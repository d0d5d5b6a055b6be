package main

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunLoopCountsAndWindows(t *testing.T) {
	var cpu time.Duration
	clients := []routeFunc{
		func(k int) error { time.Sleep(time.Millisecond); return nil },
		func(k int) error {
			time.Sleep(time.Millisecond)
			if k%2 == 1 {
				return errors.New("bad route")
			}
			return nil
		},
	}
	lr, err := runLoop(clients, 3, 50*time.Millisecond, func() (time.Duration, error) {
		cpu += time.Millisecond
		return cpu, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := lr.stats()
	if !strings.HasPrefix(st.windows, "3 windows of 50ms") {
		t.Errorf("window summary %q, want three full windows", st.windows)
	}
	if st.attempted != st.samples+st.failed || st.failed == 0 || st.samples == 0 {
		t.Errorf("attempted=%d samples=%d failed=%d", st.attempted, st.samples, st.failed)
	}
	// Client 1 fails every other request: about a third of all attempts.
	if f := float64(st.failed) / float64(st.attempted); f < 0.15 || f > 0.35 {
		t.Errorf("failed share %.2f, want about 1/3", f)
	}
	if st.p50 < time.Millisecond || st.p95 < st.p50 {
		t.Errorf("p50=%v p95=%v: requests sleep 1ms", st.p50, st.p95)
	}
	// One ms of CPU per window, spread over that window's routes.
	if st.cpuPerRoute <= 0 || st.cpuPerRoute > time.Millisecond {
		t.Errorf("cpu per route %v", st.cpuPerRoute)
	}
	if st.elapsed < 150*time.Millisecond {
		t.Errorf("phase ended after %v, before its three windows", st.elapsed)
	}
}

// The clients must not allocate per request, or a long run's garbage would
// land on the stack under test: checking, recording latency and recording
// spans all work in memory sized before the phase.
func TestClientBookkeepingDoesNotAllocate(t *testing.T) {
	req := freshInputs(4, 128).pool[0]
	out := deliver(req.words)
	sources := make([]uint32, len(req.perm))
	for i, d := range req.perm {
		sources[d] = uint32(i)
	}
	var h histogram
	stop := new(atomic.Bool)
	base := time.Now()
	rec := newRecorder(base, 0, 1<<12, stop)
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := time.Now()
		if checkRoute(out, req.words) != nil || checkSources(sources, req.perm) != nil {
			t.Fatal("check failed")
		}
		t1 := time.Now()
		h.record(t1.Sub(t0))
		rec.add("request", 0, 1, t0, t1)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per request", allocs)
	}
}
