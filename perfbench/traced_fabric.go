package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	bnbnet "repro"
)

// shardSpans is a cluster's fan-out: every route submits one engine
// request to each of its four shards.
const shardSpans = serveShards

// burstSlack bounds how long after Replay starts a route's four shard
// submissions begin: the exchange stage and four Submit calls take a few
// microseconds.
const burstSlack = int64(20 * time.Microsecond)

// tracedCluster is the traced run of cluster-m5x4. Each traced request is
// Cluster.Compile (the Kőnig decomposition) then Cluster.Replay of that
// assignment (exchange, shard fan-out, gather), which together do what one
// RouteInto does. Shard spans carry no cluster request id, so they are
// grouped into routes by the Replay span they fall in.
func tracedCluster(cfg config) (*result, error) {
	in := clusterSpec.inputs(cfg.seed)
	r := &result{workload: "cluster-m5x4", mode: "traced"}

	st, err := clusterSpec.build(in)
	if err != nil {
		return nil, err
	}
	u, err := runUntracedPhase(cfg, st, in)
	if err != nil {
		st.close()
		return nil, err
	}
	decompAlloc, err := decomposeAlloc(st.cl, in)
	if err != nil {
		st.close()
		return nil, err
	}
	shard0, all, err := clusterIsoInputs(st.cl, in)
	if err != nil {
		st.close()
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	tr, sink := newTraceSinks()
	traced, err := clusterSpec.build(in, bnbnet.WithTracer(tr), bnbnet.WithMetrics(sink))
	if err != nil {
		return nil, err
	}
	cl := traced.cl
	ph, err := runTracedPhase(cfg, tr, sink, func(c int, rec *recorder, stop *atomic.Bool) routeFunc {
		dst := make([]bnbnet.Word, in.n)
		return func(k int) error {
			if k%256 == 0 && ringFull(tr) {
				stop.Store(true)
			}
			req := in.next(c, k)
			t0 := time.Now()
			pl, err := cl.Compile(req.perm)
			t1 := time.Now()
			if err != nil {
				return err
			}
			err = cl.Replay(pl, dst, req.words)
			t2 := time.Now()
			if err == nil {
				err = checkRoute(dst, req.words)
			}
			t3 := time.Now()
			rid := int64(k*clientCount + c + 1)
			root := rec.add("request", 0, rid, t0, t3)
			rec.add("cluster.compile", root, rid, t0, t1)
			rec.add("cluster.replay", root, rid, t1, t2)
			return err
		}
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	end := cl.Stats()
	if err := cl.Close(); err != nil {
		return nil, err
	}
	r.attempted, r.failed = u.ws.attempted+ph.ws.attempted, u.ws.failed+ph.ws.failed

	prog := aggregateProgram(ph.program, ph.base)
	spans := append(ph.bench, programSpans(ph.program, ph.base)...)
	var windows []linkWindow
	for i := range spans {
		if b := &spans[i]; b.Name == "cluster.replay" {
			windows = append(windows, linkWindow{start: b.Start, end: b.End, id: b.ID, req: b.Req})
		}
	}
	linked, ambiguous := linkSpans(spans, "engine.request", windows, shardSpans, burstSlack)
	// Shard wait: the slowest of a route's four shard spans, over routes
	// whose four spans were all linked to them.
	slowest := map[int64]int64{}
	for i := range spans {
		if s := &spans[i]; s.Name == "engine.request" && s.Parent != 0 {
			slowest[s.Parent] = max(slowest[s.Parent], s.dur())
		}
	}
	var waitSum, replaySum int64
	full := 0
	for _, w := range windows {
		if w.got == shardSpans {
			waitSum += slowest[w.id]
			replaySum += w.end - w.start
			full++
		}
	}
	decompose, nRoutes := meanOf(ph.bench, "cluster.compile")
	replay, _ := meanOf(ph.bench, "cluster.replay")

	if prog.compiles > 0 {
		r.add("core.compile_us", "us", prog.compile/1e3, int64(prog.compiles))
	} else {
		r.add("core.compile_us", "us", 0, 0)
	}
	if err := addIso(r, 5, all, shard0); err != nil {
		return nil, err
	}
	addCacheLayers(r, u.cache, u.ws.samples)
	reqHit := float64(prog.hits) / float64(max(prog.requests, 1))
	r.add("plancache.request_hit_ratio", "ratio", reqHit, int64(prog.requests))
	r.na("engine.admit_us", "us", "the cluster submits to its shards itself")
	r.add("engine.queue_wait_us", "us", prog.queueWait/1e3, int64(prog.requests))
	r.add("engine.service_us", "us", prog.service/1e3, int64(prog.requests))
	r.na("engine.handoff_us", "us", "the cluster waits on its shards itself")
	addEngineLayers(r, ph.snap0, ph.snap1, ph.ws.samples)
	r.add("plane.attempts_per_route", "1/route", prog.attempts, int64(prog.requests))
	m := ph.snap1
	r.add("plane.failovers", "count", float64(m.Failovers), 1)
	r.add("plane.hedges", "count", float64(m.Hedges), 1)
	r.add("plane.probe_busy_frac", "ratio", prog.probeBusy.Seconds()/ph.elapsed.Seconds(), 1)
	r.add("cluster.decompose_us", "us", decompose/1e3, int64(nRoutes))
	r.add("cluster.decompose_alloc_b", "B", decompAlloc, 1024)
	r.add("cluster.replay_us", "us", replay/1e3, int64(nRoutes))
	if full > 0 {
		r.add("cluster.shard_wait_us", "us", float64(waitSum)/float64(full)/1e3, int64(full))
		r.add("cluster.exchange_us", "us", float64(replaySum-waitSum)/float64(full)/1e3, int64(full))
	} else {
		r.add("cluster.shard_wait_us", "us", 0, 0)
		r.add("cluster.exchange_us", "us", 0, 0)
	}
	naServe(r)
	d, err := diagnoserIso()
	if err != nil {
		return nil, err
	}
	r.add("fault.diagnoser_iso_s", "s", d.Seconds(), 3)
	r.add("runtime.gc_cpu_frac", "ratio", u.gcCPUFrac, 1)
	r.add("runtime.goroutines", "count", u.goroutine, 1)
	r.add("proc.alloc_b_per_route", "B", u.allocB, u.ws.samples)
	addCommonLayers(r, u, ph)
	r.add("trace.linked_frac", "ratio", float64(linked-ambiguous)/float64(max(prog.requests, 1)), int64(prog.requests))
	r.notef("%d of %d shard spans linked to their route by time window, %d of them ambiguous (another route's Replay began within %v); shard wait and exchange use the %d routes with all four linked",
		linked, prog.requests, ambiguous, time.Duration(burstSlack), full)
	printLedger(r, ledger(spans))
	path, err := writeSpans(cfg.outDir, "cluster-m5x4", spans)
	if err != nil {
		return nil, err
	}
	r.notef("spans written to %s (%d spans)", path, len(spans))

	ok, detail := planesHealthy(end)
	r.check("planes healthy", ok, "%s", detail)
	r.check("no failovers or hedges", m.Failovers == 0 && m.Hedges == 0, "failovers=%d hedges=%d", m.Failovers, m.Hedges)
	r.check("every traced shard span read back", !ph.wrapped && prog.requests >= shardSpans*int(ph.ws.attempted),
		"program request spans=%d, traced routes=%d x %d shards", prog.requests, ph.ws.attempted, shardSpans)
	return r, nil
}

// clusterIsoInputs returns the kernel's inputs for the cluster workloads'
// _iso loops: shard 0's local permutations of client 0's first 1024 routes
// (one plan cache's request stream), and every shard's of the first 128
// pool permutations.
func clusterIsoInputs(cl *bnbnet.Cluster, in *inputs) (shard0, all [][]int, err error) {
	stream := make([]request, 1024)
	for k := range stream {
		stream[k] = *in.next(0, k)
	}
	if shard0, err = localPerms(cl, stream, true); err != nil {
		return nil, nil, err
	}
	all, err = localPerms(cl, in.pool[:128], false)
	return shard0, all, err
}

// decomposeAlloc is the heap bytes one Cluster.Compile allocates, over
// 1024 of the workload's permutations on one thread.
func decomposeAlloc(cl *bnbnet.Cluster, in *inputs) (float64, error) {
	const n = 1024
	a0 := readRuntime()
	for i := 0; i < n; i++ {
		if _, err := cl.Compile(in.pool[i%len(in.pool)].perm); err != nil {
			return 0, err
		}
	}
	return (readRuntime().allocBytes - a0.allocBytes) / n, nil
}

// tracedServe is the traced run of serve-tcp. Its phases: the in-process
// cluster on the same permutations (the reference for the front's cost),
// an untraced bnbserve, then a bnbserve with -debug, whose /debug/vars
// memstats give the server's allocations and collections per route.
func tracedServe(cfg config) (*result, error) {
	in := serveInputs(cfg.seed)
	r := &result{workload: "serve-tcp", mode: "traced"}

	st, err := clusterSpec.build(in)
	if err != nil {
		return nil, err
	}
	ref, err := runUntracedPhase(cfg, st, in)
	if err != nil {
		st.close()
		return nil, err
	}
	shard0, all, err := clusterIsoInputs(st.cl, in)
	if err != nil {
		st.close()
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	// Untraced server: routes/s and the /v1/stats counters.
	s, err := openSession(cfg, in)
	if err != nil {
		return nil, err
	}
	defer s.abort()
	start := s.p.ready
	st0, err := s.p.stats()
	if err != nil {
		return nil, err
	}
	lr, err := runLoop(s.clients(), phaseLen(cfg), time.Second, nil, nil)
	if err != nil {
		return nil, err
	}
	st1, err := s.p.stats()
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	u := &untracedPhase{ws: lr.stats(), cache: cacheCounts(st1).minus(cacheCounts(st0))}
	r.attempted, r.failed = ref.ws.attempted+u.ws.attempted, ref.ws.failed+u.ws.failed
	checkServer(r, st1, int64(len(in.warm))+u.ws.attempted)

	// Traced server.
	s, err = openSession(cfg, in, "-debug")
	if err != nil {
		return nil, err
	}
	defer s.abort()
	mem0, err := s.p.memstats()
	if err != nil {
		return nil, err
	}
	stop := new(atomic.Bool)
	base := time.Now()
	recs := make([]*recorder, clientCount)
	clients := make([]routeFunc, clientCount)
	for c := range clients {
		rec := newRecorder(base, c, spansPerClient, stop)
		recs[c] = rec
		conn := s.conns[c]
		clients[c] = func(k int) error {
			req := in.next(c, k)
			t0 := time.Now()
			if err := conn.send(req.frame); err != nil {
				return err
			}
			t1 := time.Now()
			src, err := conn.receive(in.n)
			t2 := time.Now()
			if err == nil {
				err = checkSources(src, req.perm)
			}
			t3 := time.Now()
			rid := int64(k*clientCount + c + 1)
			root := rec.add("request", 0, rid, t0, t3)
			rec.add("tcp.write", root, rid, t0, t1)
			rec.add("tcp.response", root, rid, t1, t2)
			rec.add("client.check", root, rid, t2, t3)
			return err
		}
	}
	tlr, err := runLoop(clients, phaseLen(cfg), time.Second, nil, stop)
	if err != nil {
		return nil, err
	}
	tws := tlr.stats()
	mem1, err := s.p.memstats()
	if err != nil {
		return nil, err
	}
	var dump struct{ Spans []bnbnet.TraceSpan }
	if err := s.p.getJSON("/debug/bnb/traces", &dump); err != nil {
		return nil, err
	}
	goroutines, err := s.p.goroutines()
	if err != nil {
		return nil, err
	}
	st2, err := s.p.stats()
	if err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, err
	}
	r.attempted += tws.attempted
	r.failed += tws.failed
	checkServer(r, st2, int64(len(in.warm))+tws.attempted)
	var bench []span
	for _, rec := range recs {
		bench = append(bench, rec.spans...)
	}
	ph := &tracedPhase{ws: tws, base: base, bench: bench, elapsed: tlr.elapsed}

	// The -debug ring holds the server's last 4096 spans: the engine
	// figures below describe the end of the traced phase.
	prog := aggregateProgram(dump.Spans, base)
	if prog.compiles > 0 {
		r.add("core.compile_us", "us", prog.compile/1e3, int64(prog.compiles))
	} else {
		r.add("core.compile_us", "us", 0, 0)
	}
	if err := addIso(r, 5, all, shard0); err != nil {
		return nil, err
	}
	addCacheLayers(r, u.cache, u.ws.samples)
	r.add("plancache.request_hit_ratio", "ratio", float64(prog.hits)/float64(max(prog.requests, 1)), int64(prog.requests))
	r.na("engine.admit_us", "us", "the server submits to its shards itself")
	r.add("engine.queue_wait_us", "us", prog.queueWait/1e3, int64(prog.requests))
	r.add("engine.service_us", "us", prog.service/1e3, int64(prog.requests))
	r.na("engine.handoff_us", "us", "the server waits on its shards itself")
	addEngineLayers(r, *st0.Metrics, *st1.Metrics, u.ws.samples)
	r.add("plane.attempts_per_route", "1/route", prog.attempts, int64(prog.requests))
	r.add("plane.failovers", "count", float64(st2.Metrics.Failovers), 1)
	r.add("plane.hedges", "count", float64(st2.Metrics.Hedges), 1)
	r.na("plane.probe_busy_frac", "ratio", "the server's span ring is too short to cover a phase")
	naCluster(r, "runs inside the server, where it cannot be timed from outside")
	front := float64(u.ws.p50-ref.ws.p50) / 1e3
	r.add("bnbserve.front_us", "us", front, u.ws.samples)
	r.notef("bnbserve.front_us = serve p50 %.1f us - in-process cluster p50 %.1f us on the same permutations",
		float64(u.ws.p50)/1e3, float64(ref.ws.p50)/1e3)
	routes := float64(tws.samples)
	r.add("bnbserve.alloc_b_per_route", "B", float64(mem1.TotalAlloc-mem0.TotalAlloc)/routes, tws.samples)
	r.add("bnbserve.gc_per_kroute", "1/kroute", float64(mem1.NumGC-mem0.NumGC)*1000/routes, tws.samples)
	r.add("bnbserve.start_s", "s", start.Seconds(), 1)
	d, err := diagnoserIso()
	if err != nil {
		return nil, err
	}
	r.add("fault.diagnoser_iso_s", "s", d.Seconds(), 3)
	r.add("runtime.gc_cpu_frac", "ratio", mem1.GCCPUFraction, 1)
	r.add("runtime.goroutines", "count", float64(goroutines), 1)
	r.na("proc.alloc_b_per_route", "B", "see bnbserve.alloc_b_per_route")
	addCommonLayers(r, u, ph)
	r.na("trace.linked_frac", "ratio", "server spans stay in the server")
	printLedger(r, ledger(bench))
	path, err := writeSpans(cfg.outDir, "serve-tcp", bench)
	if err != nil {
		return nil, err
	}
	r.notef("spans written to %s (%d spans)", path, len(bench))
	return r, nil
}

// memstats is the part of expvar's memstats a traced serve-tcp run reads.
type memstats struct {
	TotalAlloc    uint64
	NumGC         uint32
	GCCPUFraction float64
}

func (p *serverProc) memstats() (memstats, error) {
	var v struct{ Memstats memstats }
	err := p.getJSON("/debug/vars", &v)
	return v.Memstats, err
}

// goroutines reads the server's goroutine count from the first line of its
// goroutine profile ("goroutine profile: total N").
func (p *serverProc) goroutines() (int, error) {
	resp, err := p.client.Get("http://" + p.httpAddr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("goroutine profile: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "goroutine profile: total")))
	if err != nil {
		return 0, fmt.Errorf("goroutine profile: %q", line)
	}
	return n, nil
}
