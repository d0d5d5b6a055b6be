package plane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// TestAddPlaneAdmission pins the admission state machine: a plane added at
// runtime starts Admitting, carries no live traffic, and is promoted to
// Healthy only by a clean full probe pass — which is a first admission,
// not a readmit.
func TestAddPlaneAdmission(t *testing.T) {
	const n = 8
	var sink metrics.Metrics
	s, err := New(Config{
		Planes:         []Router{good(n), good(n)},
		HealthInterval: time.Hour,
		Metrics:        &sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	var servedNew atomic.Int64
	newPlane := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		servedNew.Add(1)
		return deliver(dst, src)
	}}
	id, err := s.AddPlane(newPlane)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("AddPlane id = %d, want 2 (monotonic after the seed planes)", id)
	}
	if got := s.Planes(); got != 3 {
		t.Fatalf("Planes() = %d, want 3", got)
	}
	if got := State(s.plane(2).state.Load()); got != Admitting {
		t.Fatalf("added plane state = %v, want admitting", got)
	}
	// Live traffic must not land on the admitting plane.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatalf("route %d with an admitting plane present: %v", i, err)
		}
	}
	if got := servedNew.Load(); got != 0 {
		t.Fatalf("admitting plane served %d live requests, want 0", got)
	}
	// A manual sweep runs the admission probe pass; the probes themselves
	// hit the router, so count only the promotion effect.
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	s.sweep(dst, src)
	if got := State(s.plane(2).state.Load()); got != Healthy {
		t.Fatalf("after sweep: added plane state = %v, want healthy", got)
	}
	if got := readmits(s); got != 0 {
		t.Errorf("admission counted as a readmit (%d); it must not", got)
	}
	if got := sink.Snapshot().PlanesAdded; got != 1 {
		t.Errorf("PlanesAdded = %d, want 1", got)
	}
	// Now the plane serves: pin the rotor so the next request starts there.
	servedNew.Store(0)
	s.rotor.Store(2)
	if err := route(t, s, rng); err != nil {
		t.Fatal(err)
	}
	if got := servedNew.Load(); got != 1 {
		t.Errorf("admitted plane served %d requests with the rotor pinned to it, want 1", got)
	}
}

// TestAddPlaneRejections pins the validation edges of AddPlane.
func TestAddPlaneRejections(t *testing.T) {
	const n = 8
	s, err := New(Config{Planes: []Router{good(n), good(n)}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddPlane(nil); err == nil {
		t.Error("AddPlane(nil) succeeded")
	}
	if _, err := s.AddPlane(good(n * 2)); !errors.Is(err, neterr.ErrBadSize) {
		t.Errorf("AddPlane with wrong port count: err = %v, want ErrBadSize", err)
	}
	s.Close()
	if _, err := s.AddPlane(good(n)); !errors.Is(err, neterr.ErrClosed) {
		t.Errorf("AddPlane after Close: err = %v, want ErrClosed", err)
	}
}

// TestRemovePlaneDrainsAndDetaches pins the removal state machine: the
// plane stops receiving traffic immediately, leaves only once idle, the
// membership shrinks, and the redundancy floor (two planes) holds.
func TestRemovePlaneDrainsAndDetaches(t *testing.T) {
	const n = 8
	var sink metrics.Metrics
	s, err := New(Config{
		Planes:         []Router{good(n), good(n), good(n)},
		HealthInterval: time.Hour,
		Metrics:        &sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	if err := s.RemovePlane(context.Background(), 99); err == nil {
		t.Error("RemovePlane(99) succeeded for an unknown id")
	}
	if err := s.RemovePlane(context.Background(), 1); err != nil {
		t.Fatalf("RemovePlane(1): %v", err)
	}
	if got := s.Planes(); got != 2 {
		t.Fatalf("Planes() after removal = %d, want 2", got)
	}
	if got := s.PlaneIDs(); got[0] != 0 || got[1] != 2 {
		t.Fatalf("PlaneIDs after removal = %v, want [0 2]", got)
	}
	if got := sink.Snapshot().PlanesRemoved; got != 1 {
		t.Errorf("PlanesRemoved = %d, want 1", got)
	}
	// The redundancy floor: a 2-plane supervisor refuses to shrink.
	if err := s.RemovePlane(context.Background(), 0); err == nil {
		t.Error("RemovePlane below 2 planes succeeded")
	}
	// Routing still works on the shrunk membership.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatalf("route %d after removal: %v", i, err)
		}
	}
}

// TestRemovePlaneDeadlineParksInQuarantine pins the bounded-drain edge: a
// removal whose context expires while a request is still in flight aborts,
// parks the plane in Quarantine (no live traffic, checker readmits), and
// leaves the membership unchanged.
func TestRemovePlaneDeadlineParksInQuarantine(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	entered := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	slow := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		// Only the first (live) request parks; later probe traffic passes.
		if gated.CompareAndSwap(true, false) {
			close(entered)
			<-gate
		}
		return deliver(dst, src)
	}}
	s, err := New(Config{
		Planes:         []Router{slow, good(n), good(n)},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	s.rotor.Store(0)
	done := make(chan error, 1)
	go func() {
		src := permWords(perm.Identity(n))
		dst := make([]core.Word, n)
		done <- s.RouteInto(dst, src)
	}()
	<-entered // the request is mid-route on plane 0
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.RemovePlane(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RemovePlane past its deadline: err = %v, want DeadlineExceeded", err)
	}
	if got := s.Planes(); got != 3 {
		t.Fatalf("membership changed by an aborted removal: %d planes, want 3", got)
	}
	if got := State(s.plane(0).state.Load()); got != Quarantined {
		t.Fatalf("aborted removal parked plane 0 in %v, want quarantined", got)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("in-flight request on the draining plane failed: %v", err)
	}
	// The checker's next sweep readmits the healthy parked plane.
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	s.sweep(dst, src)
	if got := State(s.plane(0).state.Load()); got != Healthy {
		t.Fatalf("after sweep: plane 0 state = %v, want healthy", got)
	}
	// And a removal with room to drain succeeds.
	if err := s.RemovePlane(context.Background(), 0); err != nil {
		t.Fatalf("second RemovePlane: %v", err)
	}
}

// TestSwapPlaneRejectsBadReplacement pins pre-admission verification: a
// replacement that fails its offline probe pass never reaches the
// membership, and the incumbent keeps serving untouched.
func TestSwapPlaneRejectsBadReplacement(t *testing.T) {
	const n = 8
	s, err := New(Config{Planes: []Router{good(n), good(n)}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	bad := &funcRouter{n: n, fn: misdeliver}
	if err := s.SwapPlane(context.Background(), 0, bad); err == nil {
		t.Fatal("SwapPlane with a misdelivering replacement succeeded")
	}
	if got := State(s.plane(0).state.Load()); got != Healthy {
		t.Fatalf("failed swap left plane 0 in %v, want healthy", got)
	}
	if err := s.SwapPlane(context.Background(), 42, good(n)); err == nil {
		t.Error("SwapPlane(42) succeeded for an unknown id")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatalf("route %d after rejected swap: %v", i, err)
		}
	}
}

// TestDeterministicMidSwapSchedule drives a request through the middle of
// a SwapPlane with the exact interleaving spelled out — the acceptance
// schedule for hitless rollout:
//
//  1. the swap drains plane 0 and parks after the drain, before the new
//     router is installed (the swapYield point);
//  2. a request routed mid-swap must complete on another plane — zero
//     loss while the swap is in flight;
//  3. a second request is admitted (past the closed check, parked at the
//     routeYield point) before the swap completes; the swap then lands,
//     and the parked request must be served by the new router — a request
//     admitted before the swap completes runs on the new configuration.
func TestDeterministicMidSwapSchedule(t *testing.T) {
	const n = 8
	s, err := New(Config{
		Planes:         []Router{good(n), good(n)},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	swapYield = check.Yield
	routeYield = check.Yield
	defer func() { swapYield = nil; routeYield = nil }()

	var servedNew atomic.Int64
	replacement := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		servedNew.Add(1)
		return deliver(dst, src)
	}}
	swap := check.GoNamed("swap", func(func()) {
		if err := s.SwapPlane(context.Background(), 0, replacement); err != nil {
			t.Errorf("SwapPlane: %v", err)
		}
	})
	errs := make([]error, 2)
	request := func(slot int) func(func()) {
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
	// Step 1: the swap verifies the replacement offline, drains plane 0,
	// and parks mid-swap — drained, new router not yet installed.
	swap.Step()
	if got := State(s.plane(0).state.Load()); got != Draining {
		t.Fatalf("mid-swap: plane 0 state = %v, want draining", got)
	}
	// The replacement's offline verification routed the probe set; none of
	// that was live traffic. Reset the count so only live requests show.
	servedNew.Store(0)

	// Step 2: a request routed entirely inside the swap window. The rotor
	// starts it at the draining plane 0; it must skip it and deliver on
	// plane 1 without an error and without a failover.
	s.rotor.Store(0)
	mid := check.GoNamed("mid-swap-request", request(0))
	mid.Finish()
	if errs[0] != nil {
		t.Fatalf("request routed mid-swap failed: %v", errs[0])
	}
	if got := s.Failovers(); got != 0 {
		t.Errorf("mid-swap request recorded %d failovers; skipping a draining plane is not a failure", got)
	}
	if got := servedNew.Load(); got != 0 {
		t.Fatalf("mid-swap request reached the uninstalled replacement (%d serves)", got)
	}

	// Step 3: admit a request (it passes the closed check and parks before
	// plane selection), then let the swap complete.
	pre := check.GoNamed("admitted-before-swap-completes", request(1))
	pre.Step() // parked at routeYield: admitted, no plane chosen yet
	swap.Finish()
	if got := State(s.plane(0).state.Load()); got != Healthy {
		t.Fatalf("after swap: plane 0 state = %v, want healthy", got)
	}
	// The parked request resumes on the new configuration: pin its scan to
	// start at plane 0 and it must be served by the replacement.
	s.rotor.Store(0)
	pre.Finish()
	if errs[1] != nil {
		t.Fatalf("request admitted before the swap completed failed: %v", errs[1])
	}
	if got := servedNew.Load(); got != 1 {
		t.Fatalf("request admitted before the swap completed served %d times by the new router, want 1", got)
	}
}

// TestDeterministicSwapReadmitSchedule interleaves SwapPlane's reset of the
// readmission probation with a readmission pass of the health checker, the
// two writers of failedProbes, in both orders. The swap parks at the
// swapYield point (drained, replacement not yet installed) and the
// quarantined plane's old router parks inside its first probe:
//
//   - inside: a whole failed readmission pass lands while the swap is
//     parked; the swap then resets the probation and installs the
//     replacement;
//   - straddling: the readmission pass starts on the old router, the swap
//     completes, and only then does the stale pass fail. Its failure belongs
//     to the router that is gone: it must neither count against the
//     replacement nor let the rebuild overwrite it.
//
// Either way the plane ends Healthy on the replacement with no probation.
// Run under -race, the schedule also pins that the two writes are ordered.
func TestDeterministicSwapReadmitSchedule(t *testing.T) {
	const n = 8
	for _, straddle := range []bool{false, true} {
		t.Run(map[bool]string{false: "inside", true: "straddling"}[straddle], func(t *testing.T) {
			old := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
				check.Yield()
				return misdeliver(dst, src)
			}}
			var rebuilds atomic.Int64
			s, err := New(Config{
				Planes:         []Router{old, good(n)},
				HealthInterval: time.Hour,
				Rebuild: func() (Router, error) {
					rebuilds.Add(1)
					return good(n), nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			stopHealth(s)
			swapYield = check.Yield
			defer func() { swapYield = nil }()
			p := s.plane(0)
			p.state.Store(int32(Quarantined))

			replacement := good(n)
			swap := check.GoNamed("swap", func(func()) {
				if err := s.SwapPlane(context.Background(), 0, replacement); err != nil {
					t.Errorf("SwapPlane: %v", err)
				}
			})
			readmit := check.GoNamed("readmit", func(func()) {
				dst := make([]core.Word, n)
				src := make([]core.Word, n)
				s.tryReadmit(p, dst, src, Quarantined)
			})
			swap.Step() // drained and parked; the old router is still installed
			if straddle {
				readmit.Step() // probing the old router
				swap.Finish()
				readmit.Finish()
				if got := rebuilds.Load(); got != 0 {
					t.Errorf("stale readmission pass rebuilt the plane %d time(s)", got)
				}
			} else {
				readmit.Finish()
				swap.Finish()
			}
			if got := State(p.state.Load()); got != Healthy {
				t.Errorf("plane 0 state = %v, want healthy", got)
			}
			if p.get() != Router(replacement) {
				t.Error("plane 0 does not run the swapped-in router")
			}
			if got := p.failedProbes.Load(); got != 0 {
				t.Errorf("failedProbes = %d after the swap, want 0", got)
			}
		})
	}
}
