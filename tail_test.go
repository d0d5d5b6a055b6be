package bnbnet

import (
	"math/rand"
	"testing"
	"time"
)

// TestTailToleranceSoak is the acceptance soak for the tail-tolerance stack:
// 10k requests against a 3-plane supervised fabric with one plane under
// latency chaos — a hard 20ms stall window plus background slow chaos. It
// holds the whole contract at once:
//
//   - zero lost, misrouted, or duplicated deliveries, checked word by word;
//   - the hedged p99 stays within 3x the healthy-fleet p99 measured by an
//     identical fault-free run, because hedges cut the stalls out of the tail;
//   - the stalling plane cycles suspect -> quarantined -> readmitted, and the
//     fleet ends the soak fully healthy.
//
// The 20ms stall is deliberate: container timers tick at ~1ms granularity,
// so a sub-tick stall would be indistinguishable from hedge-timer overshoot.
func TestTailToleranceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance soak; skipped in -short")
	}
	const (
		m        = 4
		planes   = 3
		requests = 10000
		seed     = 20260808
		stall    = 20 * time.Millisecond
	)

	// run drives the soak closed-loop — one request in flight, so the sink's
	// submit-to-completion latency is pure service time — verifying every
	// delivery word by word.
	run := func(s *Supervised) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		n := s.Inputs()
		for i := 0; i < requests; i++ {
			p := RandomPerm(n, rng)
			outs, errs := s.RoutePermBatch([]Perm{p})
			if errs[0] != nil {
				t.Fatalf("request %d: %v", i, errs[0])
			}
			out := outs[0]
			if len(out) != n {
				t.Fatalf("request %d: %d outputs, want %d", i, len(out), n)
			}
			// RoutePermBatch carries each source index as its payload: output
			// j must hold address j and the source index that targeted j.
			// Addr pins no-misroute, Data pins no-loss/no-duplicate.
			for j, w := range out {
				if w.Addr != j {
					t.Fatalf("request %d: output %d misrouted: carries address %d", i, j, w.Addr)
				}
				if p[int(w.Data)] != j {
					t.Fatalf("request %d: output %d carries source %d, but perm sends %d to %d",
						i, j, w.Data, w.Data, p[int(w.Data)])
				}
			}
		}
	}

	build := func(faulty bool) (*Supervised, *Metrics) {
		t.Helper()
		sink := NewMetrics()
		opts := []Option{WithPlanes(planes), WithWorkers(4), WithMetrics(sink), WithHedgeAuto()}
		if faulty {
			opts = append(opts, WithPlaneFaults(0, &FaultPlan{
				// A hard stall window long enough to out-strike the detector's
				// hysteresis: strikes require consecutive slow completions, and
				// under hedging a stalled pass completes ~20ms after the request
				// it belonged to, so a short window ends before its own
				// completions land and post-window fast passes reset the count.
				// Sparse background slow chaos (~0.4% of passes) seasons the
				// tail without moving the p99 itself.
				Faults:    []Fault{{Kind: FaultSlow, Delay: stall, From: 200, Until: 300}},
				SlowRate:  0.004,
				SlowDelay: stall,
				SlowHeal:  1,
				Seed:      seed,
			}))
		}
		s, err := NewSupervised("bnb", m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s, sink
	}

	healthy, healthySink := build(false)
	run(healthy)
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}
	healthyP99 := healthySink.Snapshot().P99

	faulty, faultySink := build(true)
	defer faulty.Close()
	run(faulty)
	hedgedP99 := faultySink.Snapshot().P99

	if healthyP99 <= 0 || hedgedP99 <= 0 {
		t.Fatalf("degenerate p99s: healthy %v, hedged %v", healthyP99, hedgedP99)
	}
	if hedgedP99 > 3*healthyP99 {
		t.Errorf("hedged p99 %v above 3x the healthy fleet's %v — hedging failed to cut the stalls out of the tail",
			hedgedP99, healthyP99)
	}
	if faulty.Hedges() == 0 {
		t.Error("the hedge timer never fired across a 10k-request soak with 20ms stalls")
	}
	snap := faultySink.Snapshot()
	if snap.HedgeWins == 0 {
		t.Error("no hedge ever beat a stalled primary")
	}
	if wins := snap.HedgeWins; wins > faulty.Hedges() {
		t.Errorf("hedge wins %d exceed hedges %d", wins, faulty.Hedges())
	}

	// The stalling plane must have been drained for slowness and readmitted
	// once its window healed; give the health checker a bounded window to
	// finish the cycle, then require a fully healthy fleet.
	if snap.SlowQuarantines == 0 {
		t.Error("the stalling plane was never quarantined for slowness")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		allHealthy := true
		for _, st := range faulty.PlaneStats() {
			if st.State != PlaneHealthy {
				allHealthy = false
			}
		}
		if allHealthy && faultySink.Snapshot().Readmits >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never returned to full health: readmits %d, stats %+v",
				faultySink.Snapshot().Readmits, faulty.PlaneStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
