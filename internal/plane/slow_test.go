package plane

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestSlowPlaneQuarantineAndReadmit drives the full chronic-slowness cycle
// against real time: a plane that answers correctly but slowly is struck,
// drained into quarantine, held there by the timed readmission probe while
// it stays slow, and readmitted with a cold latency history once it heals.
func TestSlowPlaneQuarantineAndReadmit(t *testing.T) {
	const n = 8
	var stall atomic.Bool
	slowPlane := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if stall.Load() {
			time.Sleep(2 * time.Millisecond)
		}
		return deliver(dst, src)
	}}
	s, err := New(Config{
		Planes:         []Router{slowPlane, good(n)},
		HealthInterval: 5 * time.Millisecond,
		Metrics:        new(metrics.Metrics),
		slow:           slowRule{factor: 2, floor: time.Microsecond, after: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dst := make([]core.Word, n)
	// Warm both planes' latency EWMAs with healthy traffic.
	for i := 0; i < 10; i++ {
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("warm route %d: %v", i, err)
		}
	}

	// The plane turns chronically slow: strikes accumulate on its passes and
	// the detector drains it.
	stall.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for s.m.Snapshot().SlowQuarantines == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow plane never quarantined")
		}
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("route during slowdown: %v", err)
		}
		wantIdentity(t, dst)
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats %+v", desc, s.PlaneStats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("quarantine", func() bool {
		st := s.PlaneStats()[0]
		return st.State == Quarantined && st.Slow
	})

	// While the plane stays slow, functionally clean probes must not readmit
	// it: the readmission probe is timed. Give the checker several sweeps.
	time.Sleep(50 * time.Millisecond)
	if st := s.PlaneStats()[0]; st.State != Quarantined {
		t.Fatalf("still-slow plane left quarantine: %+v", st)
	}
	if got := s.m.Snapshot().Readmits; got != 0 {
		t.Fatalf("Readmits = %d before the plane healed", got)
	}

	// Healed: the next timed probe passes and the plane rejoins with a cold
	// latency history.
	stall.Store(false)
	waitFor("readmission", func() bool {
		st := s.PlaneStats()[0]
		return st.State == Healthy && s.m.Snapshot().Readmits >= 1
	})
	st := s.PlaneStats()[0]
	if st.Slow {
		t.Error("readmitted plane still marked slow")
	}
	if st.LatencyEWMA != 0 {
		t.Errorf("readmitted plane's latency EWMA = %v, want 0 (history forgotten)", st.LatencyEWMA)
	}
	// And it serves again.
	served := st.Served
	for i := 0; i < 8; i++ {
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("route after readmission: %v", err)
		}
		wantIdentity(t, dst)
	}
	if got := s.PlaneStats()[0].Served; got <= served {
		t.Errorf("readmitted plane served %d requests, want more than %d", got, served)
	}
}

// TestObserveLatencyEWMA pins the filter: first observation seeds the EWMA,
// later ones fold in at alpha = 1/8.
func TestObserveLatencyEWMA(t *testing.T) {
	const n = 8
	s, err := New(Config{Planes: []Router{good(n), good(n)}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := s.plane(0)
	s.observeLatency(p, 1000)
	if got := p.latEwma.Load(); got != 1000 {
		t.Errorf("EWMA after seed = %d, want 1000", got)
	}
	s.observeLatency(p, 2000)
	if got := p.latEwma.Load(); got != 1125 {
		t.Errorf("EWMA after second sample = %d, want 1125 (1000 + (2000-1000)/8)", got)
	}
	s.observeLatency(p, -5)
	if got := p.latEwma.Load(); got < 0 {
		t.Errorf("EWMA went negative: %d", got)
	}
}

// TestSlowDetectionNeedsReference pins the cold-fleet rule: with no other
// healthy plane carrying a latency history, there is nothing to be slow
// relative to, and no strike is charged.
func TestSlowDetectionNeedsReference(t *testing.T) {
	const n = 8
	s, err := New(Config{
		Planes:         []Router{good(n), good(n)},
		HealthInterval: time.Hour,
		Metrics:        new(metrics.Metrics),
		slow:           slowRule{factor: 2, floor: time.Nanosecond, after: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := s.plane(0)
	for i := 0; i < 10; i++ {
		s.observeLatency(p, int64(time.Hour))
	}
	if st := State(p.state.Load()); st != Healthy {
		t.Errorf("plane drained with no fleet reference: state %v", st)
	}
	if got := s.m.Snapshot().SlowQuarantines; got != 0 {
		t.Errorf("SlowQuarantines = %d, want 0", got)
	}
}

// TestSlowDetectionDisabledByDefault pins the opt-in: without hedging,
// latency observations feed the EWMA but never strike.
func TestSlowDetectionDisabledByDefault(t *testing.T) {
	const n = 8
	s, err := New(Config{Planes: []Router{good(n), good(n)}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A warm, fast reference on plane 1 — the only gate that could stop a
	// strike if detection were armed.
	s.observeLatency(s.plane(1), 100)
	p := s.plane(0)
	for i := 0; i < 10; i++ {
		s.observeLatency(p, int64(time.Hour))
	}
	if st := State(p.state.Load()); st != Healthy {
		t.Errorf("slow detection fired without opt-in: state %v", st)
	}
	if got := p.slowStrikes.Load(); got != 0 {
		t.Errorf("slowStrikes = %d, want 0 with detection disabled", got)
	}
}

// TestHedgingArmsSlowDetection pins the coupling: enabling hedging turns on
// slow-plane detection with its default factor, because hedging is what
// makes a chronically slow plane invisible to callers.
func TestHedgingArmsSlowDetection(t *testing.T) {
	const n = 8
	s, err := New(Config{
		Planes:         []Router{good(n), good(n)},
		HealthInterval: time.Hour,
		HedgeAuto:      true,
		Metrics:        new(metrics.Metrics),
		slow:           slowRule{after: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.observeLatency(s.plane(1), int64(10*time.Microsecond))
	p := s.plane(0)
	// One pass far beyond 8x the fleet reference (and the 100µs floor).
	s.observeLatency(p, int64(time.Second))
	if got := s.m.Snapshot().SlowQuarantines; got != 1 {
		t.Errorf("SlowQuarantines = %d, want 1 (hedging arms the detector)", got)
	}
	if st := State(p.state.Load()); st != Suspect && st != Quarantined {
		t.Errorf("struck plane state %v, want Suspect or Quarantined", st)
	}
}
