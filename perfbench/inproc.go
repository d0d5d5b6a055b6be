package main

import (
	"fmt"
	"runtime"
	"time"

	bnbnet "repro"
)

// stack is one constructed in-process system under test: a supervised
// m=7 stack (fresh-m7, hot-m7) or a cluster (cluster-m5x4).
type stack struct {
	sup *bnbnet.Supervised
	cl  *bnbnet.Cluster
}

func (st *stack) route(dst []bnbnet.Word, req *request) error {
	if st.sup != nil {
		return routeSupervised(st.sup, dst, req)
	}
	return routeCluster(st.cl, dst, req)
}

func (st *stack) stats() bnbnet.Stats {
	if st.sup != nil {
		return st.sup.Stats()
	}
	return st.cl.Stats()
}

func (st *stack) close() error {
	if st.sup != nil {
		return st.sup.Close()
	}
	return st.cl.Close()
}

// cacheClaim is what a workload's name says about its plan-cache traffic.
type cacheClaim int

const (
	noClaim   cacheClaim = iota
	everyMiss            // every request compiles its plan
	everyHit             // every request replays a cached plan
)

// inprocSpec describes one in-process workload.
type inprocSpec struct {
	setups int
	claim  cacheClaim
	inputs func(seed int64) *inputs
	// build constructs the stack with opts and warms it to the steady state
	// the measured phase starts from; set-up time covers exactly this call.
	build func(in *inputs, opts ...bnbnet.Option) (*stack, error)
}

var freshSpec = inprocSpec{
	setups: 9,
	claim:  everyMiss,
	inputs: func(seed int64) *inputs { return freshInputs(seed, 128) },
	build: func(in *inputs, opts ...bnbnet.Option) (*stack, error) {
		s, err := newSupervised(opts...)
		if err != nil {
			return nil, err
		}
		st := &stack{sup: s}
		if err := st.warmFresh(in); err != nil {
			s.Close()
			return nil, err
		}
		return st, nil
	},
}

var hotSpec = inprocSpec{
	setups: 9,
	claim:  everyHit,
	inputs: func(seed int64) *inputs { return hotInputs(seed, 128) },
	build: func(in *inputs, opts ...bnbnet.Option) (*stack, error) {
		s, err := newSupervised(opts...)
		if err != nil {
			return nil, err
		}
		if err := warmHot(s, in); err != nil {
			s.Close()
			return nil, err
		}
		return &stack{sup: s}, nil
	},
}

var clusterSpec = inprocSpec{
	setups: 3,
	inputs: func(seed int64) *inputs { return freshInputs(seed, 128) },
	build: func(in *inputs, opts ...bnbnet.Option) (*stack, error) {
		cl, err := newCluster(opts...)
		if err != nil {
			return nil, err
		}
		st := &stack{cl: cl}
		if err := st.warmFresh(in); err != nil {
			cl.Close()
			return nil, err
		}
		return st, nil
	},
}

// checkCacheCounts checks the measured phase's plan-cache counters against
// the workload's claim. Idle health probes look up their own plans too, and
// on fresh traffic some survive (CLOCK gives a probed plan a second
// chance), so the caches' hit ratio is not the requests'. Without a tracer
// the run checks that misses are at least the routes: probes only add
// misses, so requests that hit show once they outnumber probe misses. The
// traced run checks the requests' own hit ratio exactly.
func checkCacheCounts(r *result, claim cacheClaim, routes int64, t cacheTotals) {
	switch claim {
	case everyMiss:
		r.check("plancache.compiles_per_route>=1", t.misses >= routes,
			"%.4f (misses=%d routes=%d; all-lookup hit ratio %.4f)", float64(t.misses)/float64(routes), t.misses, routes, t.hitRatio())
	case everyHit:
		r.check("plancache.hit_ratio>=0.99", t.hitRatio() >= 0.99, "%.4f (hits=%d misses=%d)", t.hitRatio(), t.hits, t.misses)
	}
}

// checkRequestHits checks the traced requests' own plan-hit ratio, read
// from the engine spans, against the workload's claim.
func checkRequestHits(r *result, claim cacheClaim, ratio float64, n int) {
	switch claim {
	case everyMiss:
		r.check("request plan-hit ratio<=0.01", ratio <= 0.01, "%.4f over %d traced requests", ratio, n)
	case everyHit:
		r.check("request plan-hit ratio>=0.99", ratio >= 0.99, "%.4f over %d traced requests", ratio, n)
	}
}

// setUp builds the stack spec.setups times, closing all but the last, and
// returns the last with every set-up time. Each build starts from a
// collected heap; heap0 is the live heap before the last build.
func setUp(spec inprocSpec, in *inputs, opts ...bnbnet.Option) (st *stack, setups []float64, heap0 uint64, err error) {
	for rep := 0; rep < spec.setups; rep++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, 0, fmt.Errorf("close: %w", err)
			}
			st = nil
		}
		heap0 = liveHeap()
		t0 := time.Now()
		st, err = spec.build(in, opts...)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return st, setups, heap0, nil
}

// clients returns the closed-loop clients of an in-process stack, each
// with its own output buffer.
func (st *stack) clients(in *inputs) []routeFunc {
	out := make([]routeFunc, clientCount)
	for c := range out {
		dst := make([]bnbnet.Word, in.n)
		out[c] = func(k int) error { return st.route(dst, in.next(c, k)) }
	}
	return out
}

// runInproc is the untraced run of an in-process workload: it reports the
// end-to-end metrics and the self-checks.
func runInproc(name string, spec inprocSpec, cfg config) (*result, error) {
	in := spec.inputs(cfg.seed)
	st, setups, heap0, err := setUp(spec, in)
	if err != nil {
		return nil, err
	}
	c0 := cacheCounts(st.stats())
	rt0 := readRuntime()
	lr, err := runLoop(st.clients(in), cfg.seconds, time.Second, selfCPU, nil)
	if err != nil {
		st.close()
		return nil, err
	}
	rt1 := readRuntime()
	end := st.stats()
	ws := lr.stats() // the phase's histograms are dead from here on
	heap1 := liveHeap()
	runtime.KeepAlive(in) // the inputs count in neither heap figure

	r := &result{workload: name, mode: "end-to-end", attempted: ws.attempted, failed: ws.failed}
	addEndToEnd(r, ws, setups)
	r.add("mem_mb", "MB", float64(int64(heap1)-int64(heap0))/1e6, 1)
	routes := float64(ws.samples)
	r.notef("alloc_b_per_route = %.1f B (heap bytes allocated in the measured phase / %d routes; not gated, see README)",
		(rt1.allocBytes-rt0.allocBytes)/routes, ws.samples)
	checkCacheCounts(r, spec.claim, ws.samples, cacheCounts(end).minus(c0))
	checkSupervisor(r, st, end)
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return r, nil
}

// addEndToEnd adds the metrics every workload reports from its measured
// phase.
func addEndToEnd(r *result, ps phaseStats, setups []float64) {
	r.add("setup_s", "s", median(setups), int64(len(setups)))
	r.add("p50_us", "us", float64(ps.p50)/1e3, ps.samples)
	r.add("p90_us", "us", float64(ps.p90)/1e3, ps.samples)
	r.add("routes_per_s", "1/s", ps.routesPerSec, ps.samples)
	r.add("cpu_us_per_route", "us", float64(ps.cpuPerRoute)/1e3, ps.samples)
	r.notef("p95_us = %.6g us (n=%d; printed, not gated: on serve-tcp it moved more between runs than any bound allows, see README)",
		float64(ps.p95)/1e3, ps.samples)
	r.notef("set-up times (s): %.4g", setups)
	if ps.windows != "" {
		r.notef("%s", ps.windows)
	}
}

// checkSupervisor fails the run on any failover, hedge, plane failure or
// repair: the stacks are healthy, so any of those is a bug.
func checkSupervisor(r *result, st *stack, end bnbnet.Stats) {
	ok, detail := planesHealthy(end)
	r.check("planes healthy", ok, "%s", detail)
	if st.sup != nil {
		f, h := st.sup.Failovers(), st.sup.Hedges()
		r.check("no failovers or hedges", f == 0 && h == 0, "failovers=%d hedges=%d", f, h)
	}
}
