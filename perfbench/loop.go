package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// routeFunc routes and checks the k-th request of one client; it must not
// allocate on success.
type routeFunc func(k int) error

// window is one client's tally over one measurement window.
type window struct {
	hist           histogram
	routes, failed int64
}

// loopResult is a closed-loop phase: per-client, per-window tallies and the
// serving process's CPU time at every window boundary.
type loopResult struct {
	win     time.Duration
	windows [][]window // [client][window]
	cpu     []time.Duration
	elapsed time.Duration
}

// runLoop drives the clients closed-loop for nwin windows of length win:
// each client sends its next request only after the previous one has been
// routed and checked. Latency runs from just before the call until the
// check is done. cpu, when non-nil, is sampled at every window boundary.
// stop, when non-nil, ends the phase early once set.
func runLoop(clients []routeFunc, nwin int, win time.Duration, cpu func() (time.Duration, error), stop *atomic.Bool) (*loopResult, error) {
	res := &loopResult{win: win, windows: make([][]window, len(clients))}
	for c := range res.windows {
		res.windows[c] = make([]window, nwin)
	}
	if stop == nil {
		stop = new(atomic.Bool)
	}
	var cpuErr error
	sample := func() {
		if cpu == nil {
			return
		}
		t, err := cpu()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		res.cpu = append(res.cpu, t)
	}
	sample()
	start := time.Now()
	deadline := start.Add(time.Duration(nwin) * win)
	var wg sync.WaitGroup
	ends := make([]time.Duration, len(clients)) // each client's last completion
	for c, do := range clients {
		wg.Add(1)
		go func(c int, ws []window, do routeFunc) {
			defer wg.Done()
			for k := 0; ; k++ {
				t0 := time.Now()
				err := do(k)
				t1 := time.Now()
				i := int(t1.Sub(start) / win)
				if i >= nwin {
					i = nwin - 1
				}
				w := &ws[i]
				if err != nil {
					w.failed++
				} else {
					w.routes++
					w.hist.record(t1.Sub(t0))
				}
				if !t1.Before(deadline) || stop.Load() {
					ends[c] = t1.Sub(start)
					return
				}
			}
		}(c, res.windows[c], do)
	}
	for i := 1; i <= nwin; i++ {
		if d := time.Until(start.Add(time.Duration(i) * win)); d > 0 {
			time.Sleep(d)
		}
		if stop.Load() {
			break
		}
		sample()
	}
	wg.Wait()
	for _, e := range ends {
		res.elapsed = max(res.elapsed, e)
	}
	return res, cpuErr
}

// totals sums every window of every client.
func (r *loopResult) totals() (routes, failed int64, h *histogram) {
	h = new(histogram)
	for _, ws := range r.windows {
		for i := range ws {
			routes += ws[i].routes
			failed += ws[i].failed
			h.merge(&ws[i].hist)
		}
	}
	return routes, failed, h
}

// perWindow merges the clients' tallies of each full window.
func (r *loopResult) perWindow() []window {
	n := len(r.windows[0])
	out := make([]window, n)
	for _, ws := range r.windows {
		for i := range ws {
			out[i].routes += ws[i].routes
			out[i].failed += ws[i].failed
			out[i].hist.merge(&ws[i].hist)
		}
	}
	return out
}

// phaseStats is a phase's figures. Latency quantiles come from every
// sample of the phase, the rate from its routes over its length, CPU per
// route from the CPU time the phase used over its routes. On a host whose
// speed drifts for seconds at a time, these whole-phase figures average
// the drift; a median over one-second windows instead follows whichever
// state held most windows, and moved further from run to run.
type phaseStats struct {
	p50, p90     time.Duration
	p95          time.Duration
	routesPerSec float64
	cpuPerRoute  time.Duration // 0 when CPU was not sampled
	samples      int64
	attempted    int64
	failed       int64
	elapsed      time.Duration
	// windows describes how the figures ranged over the phase's full
	// windows, for a reader judging the host's drift.
	windows string
}

func (r *loopResult) stats() phaseStats {
	routes, failed, all := r.totals()
	st := phaseStats{
		p50:       all.quantile(0.50),
		p90:       all.quantile(0.90),
		p95:       all.quantile(0.95),
		samples:   routes,
		attempted: routes + failed,
		failed:    failed,
		elapsed:   r.elapsed,
	}
	if r.elapsed > 0 {
		st.routesPerSec = float64(routes) / r.elapsed.Seconds()
	}
	if len(r.cpu) > 1 && routes > 0 {
		st.cpuPerRoute = (r.cpu[len(r.cpu)-1] - r.cpu[0]) / time.Duration(routes)
	}
	var p50, rate []float64
	for i, w := range r.perWindow() {
		// A phase stopped early leaves its last windows partial or empty.
		if w.routes == 0 || time.Duration(i+1)*r.win > r.elapsed {
			continue
		}
		p50 = append(p50, float64(w.hist.quantile(0.50))/1e3)
		rate = append(rate, float64(w.routes)/r.win.Seconds())
	}
	if len(rate) > 0 {
		st.windows = fmt.Sprintf("%d windows of %v ranged p50 %.4g-%.4g us, routes/s %.4g-%.4g",
			len(rate), r.win, slices.Min(p50), slices.Max(p50), slices.Min(rate), slices.Max(rate))
	}
	return st
}
