package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	bnbnet "repro"
)

// The traced run of a workload: an untraced phase on a default stack (the
// reference for the tracing overhead, and the source of counts that do not
// depend on tracing), then a traced phase on a stack with the program's own
// sinks attached (WithTracer, WithMetrics) while the benchmark records
// spans around each public call it makes, then the _iso measurements.

const (
	// tracerRing is the program tracer's ring size; the traced phase stops
	// before it wraps, so no program span of the phase is lost.
	tracerRing = 1 << 17
	// spansPerClient bounds each client's benchmark-side span buffer.
	spansPerClient = 3 * 25000
)

// phaseLen splits the run's seconds between the untraced and the traced
// phase.
func phaseLen(cfg config) int { return max(1, cfg.seconds/2) }

// tracedPhase is the outcome of a traced closed-loop phase.
type tracedPhase struct {
	ws      phaseStats
	base    time.Time
	bench   []span // benchmark-side spans, every client
	program []bnbnet.TraceSpan
	snap0   bnbnet.MetricsSnapshot
	snap1   bnbnet.MetricsSnapshot
	slowest []bnbnet.TraceSpan
	wrapped bool
	elapsed time.Duration
}

// newTraceSinks returns a tracer whose ring holds a whole traced phase and
// a metrics sink.
func newTraceSinks() (*bnbnet.Tracer, *bnbnet.Metrics) {
	return bnbnet.NewTracerConfig(bnbnet.TracerConfig{Capacity: tracerRing}), bnbnet.NewMetrics()
}

// runTracedPhase drives clients built by mk, each handed its recorder,
// and collects the program's spans and metrics around the phase.
func runTracedPhase(cfg config, tr *bnbnet.Tracer, sink *bnbnet.Metrics, mk func(c int, rec *recorder, stop *atomic.Bool) routeFunc) (*tracedPhase, error) {
	stop := new(atomic.Bool)
	ph := &tracedPhase{base: time.Now()}
	recs := make([]*recorder, clientCount)
	clients := make([]routeFunc, clientCount)
	for c := range clients {
		recs[c] = newRecorder(ph.base, c, spansPerClient, stop)
		clients[c] = mk(c, recs[c], stop)
	}
	ph.snap0 = sink.Snapshot()
	lr, err := runLoop(clients, phaseLen(cfg), time.Second, nil, stop)
	if err != nil {
		return nil, err
	}
	ph.snap1 = sink.Snapshot()
	ph.ws = lr.stats()
	ph.elapsed = lr.elapsed
	ph.wrapped = tr.Published() > uint64(tr.Capacity())
	ph.program = tr.Snapshot(0)
	ph.slowest = tr.Slowest()
	for _, r := range recs {
		ph.bench = append(ph.bench, r.spans...)
	}
	return ph, nil
}

// ringFull reports that the tracer ring is three quarters full; the traced
// clients stop the phase then.
func ringFull(tr *bnbnet.Tracer) bool { return tr.Published() > uint64(tr.Capacity())*3/4 }

// meanOf returns the mean duration of the spans named name, and their count.
func meanOf(spans []span, name string) (float64, int) {
	var sum int64
	n := 0
	for i := range spans {
		if spans[i].Name == name {
			sum += spans[i].dur()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

// programStats aggregates the program's request and probe spans of a phase.
type programStats struct {
	requests                  int
	queueWait, service, total float64 // mean ns
	compiles                  int
	compile                   float64 // mean ns over requests that compiled
	hits                      int
	attempts                  float64 // mean
	probeBusy                 time.Duration
}

func aggregateProgram(ts []bnbnet.TraceSpan, base time.Time) programStats {
	var p programStats
	var qw, svc, tot, cmp, att int64
	for _, t := range ts {
		if t.Start.Before(base) {
			continue
		}
		switch t.Kind {
		case "probe":
			p.probeBusy += t.Total
		case "request":
			p.requests++
			qw += int64(t.QueueWait)
			svc += int64(t.Service)
			tot += int64(t.Total)
			att += int64(t.Attempts)
			if t.PlanHit {
				p.hits++
			}
			if t.PlanCompile > 0 {
				p.compiles++
				cmp += int64(t.PlanCompile)
			}
		}
	}
	if p.requests > 0 {
		n := float64(p.requests)
		p.queueWait, p.service, p.total, p.attempts = float64(qw)/n, float64(svc)/n, float64(tot)/n, float64(att)/n
	}
	if p.compiles > 0 {
		p.compile = float64(cmp) / float64(p.compiles)
	}
	return p
}

// untracedPhase runs the workload's default stack, as the untraced run
// does, for the reference routes/s and the counts tracing cannot change.
type untracedPhase struct {
	ws        phaseStats
	cache     cacheTotals
	allocB    float64 // heap bytes allocated per route
	gcCPUFrac float64
	goroutine float64
}

func runUntracedPhase(cfg config, st *stack, in *inputs) (*untracedPhase, error) {
	c0 := cacheCounts(st.stats())
	rt0 := readRuntime()
	lr, err := runLoop(st.clients(in), phaseLen(cfg), time.Second, selfCPU, nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	u := &untracedPhase{ws: lr.stats(), cache: cacheCounts(st.stats()).minus(c0), goroutine: rt1.goroutines}
	routes := float64(u.ws.samples)
	u.allocB = (rt1.allocBytes - rt0.allocBytes) / routes
	if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
		u.gcCPUFrac = (rt1.gcCPU - rt0.gcCPU) / d
	}
	return u, nil
}

// addCommonLayers adds the metrics every traced run reports the same way.
func addCommonLayers(r *result, u *untracedPhase, ph *tracedPhase) {
	r.add("trace.untraced_routes_per_s", "1/s", u.ws.routesPerSec, u.ws.samples)
	r.add("trace.routes_per_s", "1/s", ph.ws.routesPerSec, ph.ws.samples)
	r.add("trace.overhead_frac", "ratio", 1-ph.ws.routesPerSec/u.ws.routesPerSec, ph.ws.samples)
	r.add("host.ref_us", "us", hostRef(), 15)
	r.add("host.cpus", "count", float64(runtime.NumCPU()), 1)
	for i, s := range ph.slowest {
		if i == 5 {
			break
		}
		r.notef("slowest program span %d: kind=%s total=%v queue=%v service=%v compile=%v plane=%d", i+1, s.Kind, s.Total, s.QueueWait, s.Service, s.PlanCompile, s.Plane)
	}
	if ph.wrapped {
		r.notef("the tracer ring wrapped: program-span figures cover only its last %d spans", tracerRing)
	}
}

// addCacheLayers adds the plan-cache counts of a phase.
func addCacheLayers(r *result, t cacheTotals, routes int64) {
	rt := float64(routes)
	r.add("plancache.hit_ratio", "ratio", t.hitRatio(), t.hits+t.misses)
	r.add("plancache.compiles_per_route", "1/route", float64(t.misses)/rt, routes)
	r.add("plancache.evictions_per_route", "1/route", float64(t.evictions)/rt, routes)
}

// addEngineLayers adds the engine's WithMetrics counters of a phase, per
// route of the workload (a cluster route is four engine requests).
func addEngineLayers(r *result, s0, s1 bnbnet.MetricsSnapshot, routes int64) {
	rt := float64(routes)
	r.add("engine.parks_per_route", "1/route", float64(s1.WorkerParks-s0.WorkerParks)/rt, routes)
	if d := s1.BatchDequeues - s0.BatchDequeues; d > 0 {
		r.add("engine.mean_batch", "requests", float64(s1.BatchedRequests-s0.BatchedRequests)/float64(d), d)
	} else {
		r.add("engine.mean_batch", "requests", 0, 0)
	}
	r.add("engine.steals_per_route", "1/route", float64(s1.Steals-s0.Steals)/rt, routes)
}

// addIso adds the kernel and plan-cache _iso metrics over perms (the
// kernel's inputs) and stream (one cache's request stream).
func addIso(r *result, m int, perms, stream [][]int) error {
	ci, err := isoCore(m, perms)
	if err != nil {
		return err
	}
	r.add("core.compile_iso_us", "us", float64(ci.compile)/1e3, int64(ci.calls))
	r.add("core.route_iso_us", "us", float64(ci.route)/1e3, 0)
	r.add("core.replay_iso_ns", "ns", float64(ci.replay), 0)
	r.add("core.compile_alloc_b", "B", ci.compileAllocB, int64(ci.calls))
	lookup, insert, err := isoPlanCache(m, stream)
	if err != nil {
		return err
	}
	r.add("plancache.lookup_iso_ns", "ns", float64(lookup), 0)
	r.add("plancache.insert_iso_ns", "ns", float64(insert), 0)
	return nil
}

func naServe(r *result) {
	const why = "serve-tcp only"
	r.na("bnbserve.front_us", "us", why)
	r.na("bnbserve.alloc_b_per_route", "B", why)
	r.na("bnbserve.gc_per_kroute", "1/kroute", why)
	r.na("bnbserve.start_s", "s", why)
}

func naCluster(r *result, why string) {
	r.na("cluster.decompose_us", "us", why)
	r.na("cluster.decompose_alloc_b", "B", why)
	r.na("cluster.replay_us", "us", why)
	r.na("cluster.shard_wait_us", "us", why)
	r.na("cluster.exchange_us", "us", why)
}

// tracedSupervised is the traced run of fresh-m7 and hot-m7.
func tracedSupervised(name string, spec inprocSpec, cfg config) (*result, error) {
	in := spec.inputs(cfg.seed)
	r := &result{workload: name, mode: "traced"}

	st, err := spec.build(in)
	if err != nil {
		return nil, err
	}
	u, err := runUntracedPhase(cfg, st, in)
	if err != nil {
		st.close()
		return nil, err
	}
	if err := st.close(); err != nil {
		return nil, err
	}

	tr, sink := newTraceSinks()
	traced, err := spec.build(in, bnbnet.WithTracer(tr), bnbnet.WithMetrics(sink))
	if err != nil {
		return nil, err
	}
	s := traced.sup
	ph, err := runTracedPhase(cfg, tr, sink, func(c int, rec *recorder, stop *atomic.Bool) routeFunc {
		dst := make([]bnbnet.Word, in.n)
		return func(k int) error {
			if k%256 == 0 && ringFull(tr) {
				stop.Store(true)
			}
			req := in.next(c, k)
			t0 := time.Now()
			t, err := s.Submit(dst, req.words)
			t1 := time.Now()
			if err != nil {
				return err
			}
			out, err := t.Wait()
			t2 := time.Now()
			if err == nil {
				err = checkRoute(out, req.words)
			}
			t3 := time.Now()
			rid := int64(k*clientCount + c + 1)
			root := rec.add("request", 0, rid, t0, t3)
			rec.add("engine.submit", root, rid, t0, t1)
			rec.add("engine.wait", root, rid, t1, t2)
			return err
		}
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	failovers, hedges := s.Failovers(), s.Hedges()
	end := traced.stats()
	if err := s.Close(); err != nil {
		return nil, err
	}
	r.attempted, r.failed = u.ws.attempted+ph.ws.attempted, u.ws.failed+ph.ws.failed

	prog := aggregateProgram(ph.program, ph.base)
	submitMean, _ := meanOf(ph.bench, "engine.submit")
	waitMean, nWait := meanOf(ph.bench, "engine.wait")
	if prog.compiles > 0 {
		r.add("core.compile_us", "us", prog.compile/1e3, int64(prog.compiles))
	} else {
		r.add("core.compile_us", "us", 0, 0)
	}
	if err := addIso(r, 7, isoPerms(in), isoStream(in)); err != nil {
		return nil, err
	}
	addCacheLayers(r, u.cache, u.ws.samples)
	reqHit := float64(prog.hits) / float64(max(prog.requests, 1))
	r.add("plancache.request_hit_ratio", "ratio", reqHit, int64(prog.requests))
	r.add("engine.admit_us", "us", submitMean/1e3, int64(nWait))
	r.add("engine.queue_wait_us", "us", prog.queueWait/1e3, int64(prog.requests))
	r.add("engine.service_us", "us", prog.service/1e3, int64(prog.requests))
	r.add("engine.handoff_us", "us", (waitMean-prog.total)/1e3, int64(nWait))
	addEngineLayers(r, ph.snap0, ph.snap1, ph.ws.samples)
	r.add("plane.attempts_per_route", "1/route", prog.attempts, int64(prog.requests))
	r.add("plane.failovers", "count", float64(failovers), 1)
	r.add("plane.hedges", "count", float64(hedges), 1)
	r.add("plane.probe_busy_frac", "ratio", prog.probeBusy.Seconds()/ph.elapsed.Seconds(), 1)
	naCluster(r, "cluster workloads only")
	naServe(r)
	r.na("fault.diagnoser_iso_s", "s", "no diagnoser above m=5")
	r.add("runtime.gc_cpu_frac", "ratio", u.gcCPUFrac, 1)
	r.add("runtime.goroutines", "count", u.goroutine, 1)
	r.add("proc.alloc_b_per_route", "B", u.allocB, u.ws.samples)
	addCommonLayers(r, u, ph)

	// A request's engine span starts inside Submit, so the submit span
	// finds it; it becomes a child of the Wait span, whose self time is then
	// the hand-off after the engine finished the request.
	spans := append(ph.bench, programSpans(ph.program, ph.base)...)
	waits := map[int64]int64{}
	for i := range ph.bench {
		if b := &ph.bench[i]; b.Name == "engine.wait" {
			waits[b.Req] = b.ID
		}
	}
	windows := make([]linkWindow, 0, nWait)
	for i := range ph.bench {
		if b := &ph.bench[i]; b.Name == "engine.submit" {
			windows = append(windows, linkWindow{start: b.Start, end: b.End, id: waits[b.Req], req: b.Req})
		}
	}
	linked, ambiguous := linkSpans(spans, "engine.request", windows, 1, math.MaxInt64)
	r.add("trace.linked_frac", "ratio", float64(linked-ambiguous)/float64(max(prog.requests, 1)), int64(prog.requests))
	printLedger(r, ledger(spans))
	path, err := writeSpans(cfg.outDir, name, spans)
	if err != nil {
		return nil, err
	}
	r.notef("spans written to %s (%d spans)", path, len(spans))

	checkRequestHits(r, spec.claim, reqHit, prog.requests)
	ok, detail := planesHealthy(end)
	r.check("planes healthy", ok, "%s", detail)
	r.check("no failovers or hedges", failovers == 0 && hedges == 0, "failovers=%d hedges=%d", failovers, hedges)
	r.check("every traced request span read back", !ph.wrapped && prog.requests >= int(ph.ws.attempted),
		"program request spans=%d, traced routes=%d", prog.requests, ph.ws.attempted)
	return r, nil
}

// isoPerms is the kernel's input for the _iso loops: the workload's
// measured permutations, at most 512 of them.
func isoPerms(in *inputs) [][]int {
	var out [][]int
	for i := 0; i < len(in.pool) && i < 512; i++ {
		out = append(out, in.pool[i].perm)
	}
	return out
}

// isoStream is one cache's request stream: client 0's first 1024 requests.
func isoStream(in *inputs) [][]int {
	out := make([][]int, 1024)
	for k := range out {
		out[k] = in.next(0, k).perm
	}
	return out
}
