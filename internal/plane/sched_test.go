package plane

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/perm"
)

// TestRotorWraparound seeds the round-robin rotor at the counter values
// whose raw int conversion is negative — past MaxInt64 anywhere, and past
// MaxInt32 on 32-bit platforms — and routes across the boundary. The
// pre-fix start index went negative there and RouteInto panicked on the
// plane lookup; the modulo-in-uint64 fix keeps the index in [0, k).
func TestRotorWraparound(t *testing.T) {
	s, err := New(Config{
		Planes:         []Router{good(8), good(8), good(8)},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []uint64{
		math.MaxInt64 - 1,
		math.MaxInt64,
		math.MaxUint64 - 1,
		math.MaxUint64, // Add(1) wraps the counter itself to 0
		math.MaxInt32 - 1,
		math.MaxInt32, // the 32-bit truncation boundary
	} {
		s.rotor.Store(seed)
		for i := 0; i < 4; i++ { // enough calls to cross the seeded boundary
			if err := route(t, s, rng); err != nil {
				t.Fatalf("rotor seed %#x, call %d: %v", seed, i, err)
			}
		}
	}
	if got := s.plane(0).served.Load() + s.plane(1).served.Load() + s.plane(2).served.Load(); got != 24 {
		t.Errorf("served %d requests across the planes, want 24", got)
	}
}

// stopHealth halts the supervisor's background health checker without
// closing the supervisor, so a test owns every state transition: sweeps
// happen only when the test calls them.
func stopHealth(s *Supervisor) {
	close(s.stop)
	s.wg.Wait()
}

// TestDeterministicFailoverSchedule drives the plane state machine through
// an explicit two-request interleaving with the health checker stopped: two
// concurrent requests both hit the same misdelivering plane, and exactly
// one failover must be recorded (the Healthy -> Suspect CAS belongs to
// whichever detection lands first); a manual sweep must then quarantine the
// plane, and — after it heals — readmit it. Every transition is asserted at
// the exact schedule point it must happen, so a regression in the state
// machine fails this test deterministically.
func TestDeterministicFailoverSchedule(t *testing.T) {
	const n = 8
	var broken atomic.Bool
	broken.Store(true)
	flaky := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if broken.Load() {
			return misdeliver(dst, src)
		}
		return deliver(dst, src)
	}}
	s, err := New(Config{
		Planes:         []Router{flaky, good(n)},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	s.rotor.Store(0) // both requests start their scan at plane 0

	errs := make([]error, 2)
	req := func(slot int) func(func()) {
		return func(func()) {
			src := permWords(perm.Identity(n))
			dst := make([]core.Word, n)
			errs[slot] = s.RouteInto(dst, src)
			if errs[slot] == nil {
				for j := range dst {
					if dst[j].Addr != j {
						errs[slot] = fmt.Errorf("output %d carries address %d", j, dst[j].Addr)
						return
					}
				}
			}
		}
	}
	a := check.GoNamed("request-a", req(0))
	b := check.GoNamed("request-b", req(1))
	// Schedule: A detects the misroute, fails plane 0 over, retries on
	// plane 1 and completes; then B runs against the already-suspect plane.
	a.Finish()
	if got := State(s.plane(0).state.Load()); got != Suspect {
		t.Fatalf("after A: plane 0 state = %v, want suspect", got)
	}
	if got := s.Failovers(); got != 1 {
		t.Fatalf("after A: failovers = %d, want 1", got)
	}
	b.Finish()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed despite a healthy plane: %v", slot, err)
		}
	}
	if got := s.Failovers(); got != 1 {
		t.Fatalf("after B: failovers = %d, want exactly 1 (the CAS must not double-count)", got)
	}

	// First manual sweep: suspect -> quarantined, readmission probe fails
	// (the plane still misdelivers).
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	s.sweep(dst, src)
	if got := State(s.plane(0).state.Load()); got != Quarantined {
		t.Fatalf("after sweep 1: plane 0 state = %v, want quarantined", got)
	}
	if got := readmits(s); got != 0 {
		t.Fatalf("after sweep 1: readmits = %d, want 0", got)
	}

	// Heal the plane; the next sweep's probe pass must readmit it.
	broken.Store(false)
	s.sweep(dst, src)
	if got := State(s.plane(0).state.Load()); got != Healthy {
		t.Fatalf("after sweep 2: plane 0 state = %v, want healthy", got)
	}
	if got := readmits(s); got != 1 {
		t.Fatalf("after sweep 2: readmits = %d, want 1", got)
	}

	// The kick the failover queued must not have leaked a sweep: the test
	// owns every transition, so the counters reflect exactly one episode.
	if got := s.Failovers(); got != 1 {
		t.Fatalf("end: failovers = %d, want 1", got)
	}
}
