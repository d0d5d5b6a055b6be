package plane

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// probeBlind scripts a plane whose fault the health checker's probe battery
// misses: it delivers every fault.CanonicalProbes permutation of its order
// and hands any other request to liveFault.
func probeBlind(m int, liveFault func(dst, src []core.Word) error) *funcRouter {
	n := 1 << uint(m)
	probes := fault.CanonicalProbes(m)
	return &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		for _, p := range probes {
			isProbe := true
			for i, d := range p {
				if src[i].Addr != d {
					isProbe = false
					break
				}
			}
			if isProbe {
				return deliver(dst, src)
			}
		}
		return liveFault(dst, src)
	}}
}

// liveSrc is a request no probe battery contains: the identity with its
// first two destinations swapped.
func liveSrc(n int) []core.Word {
	p := perm.Identity(n)
	p[0], p[1] = 1, 0
	return permWords(p)
}

// quarantinePlane0 routes one live request starting at plane 0 and checks
// that plane 0 failed it over: the caller sees a clean delivery and the
// plane turns Suspect.
func quarantinePlane0(t *testing.T, s *Supervisor) {
	t.Helper()
	s.rotor.Store(0)
	dst := make([]core.Word, s.Inputs())
	if err := s.RouteInto(dst, liveSrc(s.Inputs())); err != nil {
		t.Fatalf("live request surfaced an error: %v", err)
	}
	if got := State(s.plane(0).state.Load()); got != Suspect {
		t.Fatalf("plane 0 state = %v after a live failure, want suspect", got)
	}
}

// TestRebuildProbeBlindPlane pins the hard-failure rebuild rule under live
// traffic and the real health checker: a plane that misdelivers live
// requests but passes every probe is readmitted after each quarantine, and
// the rebuildAfter-th quarantine rebuilds it — exactly once, since the
// rebuilt plane then serves cleanly. Several routers and the checker write
// the plane's hard-failure count concurrently; run it under -race.
func TestRebuildProbeBlindPlane(t *testing.T) {
	const m, routers = 3, 4
	var rebuilds atomic.Int64
	s, err := New(Config{
		Planes:         []Router{probeBlind(m, misdeliver), good(1 << m)},
		Rebuild:        func() (Router, error) { rebuilds.Add(1); return good(1 << m), nil },
		HealthInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hammer := func(stop func() bool) {
		var wg sync.WaitGroup
		for g := 0; g < routers; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				dst := make([]core.Word, 1<<m)
				for !stop() {
					if err := s.RouteInto(dst, permWords(perm.Random(1<<m, rng))); err != nil {
						t.Errorf("request failed: %v", err)
						return
					}
					for j := range dst {
						if dst[j].Addr != j {
							t.Errorf("output %d carries address %d", j, dst[j].Addr)
							return
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
	}
	deadline := time.Now().Add(10 * time.Second)
	hammer(func() bool { return rebuilds.Load() > 0 || time.Now().After(deadline) })
	if rebuilds.Load() == 0 {
		t.Fatalf("probe-blind plane never rebuilt: failovers %d, stats %+v", s.Failovers(), s.PlaneStats())
	}
	// The rebuilt plane rejoins (the sweep that rebuilt it probes the new
	// router at once) and serves without failing again.
	for State(s.plane(0).state.Load()) != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("rebuilt plane never readmitted: %+v", s.PlaneStats()[0])
		}
		time.Sleep(time.Millisecond)
	}
	served := s.plane(0).served.Load()
	var routed atomic.Int64
	hammer(func() bool { return routed.Add(1) > 400 })
	if got := s.plane(0).served.Load(); got <= served {
		t.Errorf("rebuilt plane served no traffic (served %d before and after)", got)
	}
	if got := rebuilds.Load(); got != 1 {
		t.Errorf("rebuilds = %d, want exactly 1", got)
	}
	if got := repairs(s); got != 1 {
		t.Errorf("PlaneStats repairs = %d, want 1", got)
	}
	if got := s.Failovers(); got != rebuildAfter {
		t.Errorf("failovers = %d, want rebuildAfter = %d (one per quarantine before the rebuild)", got, rebuildAfter)
	}
}

// TestRebuildSkipsTransientFailures pins that transient failures keep the
// consecutive-failed-pass rule alone: a probe-blind twin whose live failures
// are ErrTransient is readmitted after every quarantine and never rebuilt,
// however often it fails.
func TestRebuildSkipsTransientFailures(t *testing.T) {
	const m = 3
	transient := func(dst, src []core.Word) error {
		return fmt.Errorf("heal window open: %w", neterr.ErrTransient)
	}
	var rebuilds atomic.Int64
	s, err := New(Config{
		Planes:         []Router{probeBlind(m, transient), good(1 << m)},
		Rebuild:        func() (Router, error) { rebuilds.Add(1); return good(1 << m), nil },
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	src := make([]core.Word, s.Inputs())
	dst := make([]core.Word, s.Inputs())
	for q := 1; q <= 3*rebuildAfter; q++ {
		quarantinePlane0(t, s)
		s.sweep(dst, src)
		if got := State(s.plane(0).state.Load()); got != Healthy {
			t.Fatalf("quarantine %d: plane 0 state = %v after the sweep, want healthy", q, got)
		}
		if got := readmits(s); got != int64(q) {
			t.Fatalf("quarantine %d: readmits = %d, want %d", q, got, q)
		}
	}
	if got := rebuilds.Load(); got != 0 {
		t.Errorf("transient plane rebuilt %d times, want 0", got)
	}
}

// TestRebuildCountRestartsOnSwap pins that SwapPlane restarts the
// hard-failure count: the failures belonged to the router it replaced, so
// the new router earns a rebuild only with rebuildAfter quarantines of its
// own.
func TestRebuildCountRestartsOnSwap(t *testing.T) {
	const m = 3
	var rebuilds atomic.Int64
	s, err := New(Config{
		Planes:         []Router{probeBlind(m, misdeliver), good(1 << m)},
		Rebuild:        func() (Router, error) { rebuilds.Add(1); return good(1 << m), nil },
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	src := make([]core.Word, s.Inputs())
	dst := make([]core.Word, s.Inputs())
	cycle := func(label string) {
		t.Helper()
		quarantinePlane0(t, s)
		s.sweep(dst, src)
		if got := State(s.plane(0).state.Load()); got != Healthy {
			t.Fatalf("%s: plane 0 state = %v after the sweep, want healthy", label, got)
		}
	}
	for q := 1; q < rebuildAfter; q++ {
		cycle(fmt.Sprintf("old router, quarantine %d", q))
	}
	if err := s.SwapPlane(context.Background(), 0, probeBlind(m, misdeliver)); err != nil {
		t.Fatal(err)
	}
	for q := 1; q < rebuildAfter; q++ {
		cycle(fmt.Sprintf("new router, quarantine %d", q))
	}
	if got := rebuilds.Load(); got != 0 {
		t.Fatalf("rebuilt %d times with %d quarantines on each router, want 0", got, rebuildAfter-1)
	}
	cycle(fmt.Sprintf("new router, quarantine %d", rebuildAfter))
	if got := rebuilds.Load(); got != 1 {
		t.Fatalf("rebuilds = %d after rebuildAfter quarantines of the new router, want 1", got)
	}
	if got := s.plane(0).hardQuars.Load(); got != 0 {
		t.Errorf("hard-failure count = %d after the rebuild, want 0", got)
	}
}

// TestRebuildIgnoresStragglerFailure pins that the health checker's
// rebuild does not wait for the plane to drain, and need not: a request
// still in flight on the replaced router that fails afterwards is stale,
// so it fails over without taking the rebuilt plane out of service.
func TestRebuildIgnoresStragglerFailure(t *testing.T) {
	const m = 3
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	old := &funcRouter{n: 1 << m, fn: func(dst, src []core.Word) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return misdeliver(dst, src)
	}}
	s, err := New(Config{
		Planes:         []Router{old, good(1 << m)},
		Rebuild:        func() (Router, error) { return good(1 << m), nil },
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	s.plane(0).hardQuars.Store(rebuildAfter - 1)
	s.rotor.Store(0)
	straggler := make(chan error)
	go func() {
		dst := make([]core.Word, 1<<m)
		straggler <- s.RouteInto(dst, liveSrc(1<<m))
	}()
	<-entered
	quarantinePlane0(t, s) // the rebuildAfter-th hard quarantine
	src := make([]core.Word, s.Inputs())
	dst := make([]core.Word, s.Inputs())
	s.sweep(dst, src)
	if got := repairs(s); got != 1 {
		t.Fatalf("repairs = %d after the sweep, want 1", got)
	}
	close(release)
	if err := <-straggler; err != nil {
		t.Fatalf("straggler request surfaced an error: %v", err)
	}
	if got := State(s.plane(0).state.Load()); got != Healthy {
		t.Errorf("rebuilt plane state = %v after the straggler failed on its old router, want healthy", got)
	}
	if got := s.Failovers(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if got := s.plane(0).hardQuars.Load(); got != 0 {
		t.Errorf("rebuilt plane's hard-failure count = %d, want 0", got)
	}
}

// TestRebuildCountsOneQuarantinePerEpisode pins that requests failing on a
// plane together count once toward the rebuild: every request that starts
// on plane 0 is held inside its router until all of them have entered, so
// they all fail while the plane is still Healthy, and only the failure that
// flips it to Suspect counts.
func TestRebuildCountsOneQuarantinePerEpisode(t *testing.T) {
	const m, onPlane0 = 3, 6
	var entered sync.WaitGroup
	entered.Add(onPlane0)
	held := &funcRouter{n: 1 << m, fn: func(dst, src []core.Word) error {
		entered.Done()
		entered.Wait()
		return misdeliver(dst, src)
	}}
	s, err := New(Config{Planes: []Router{held, good(1 << m)}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	stopHealth(s)
	// The rotor hands the 2·onPlane0 requests alternate start planes, so
	// exactly onPlane0 of them start on plane 0.
	var wg sync.WaitGroup
	for g := 0; g < 2*onPlane0; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]core.Word, 1<<m)
			if err := s.RouteInto(dst, liveSrc(1<<m)); err != nil {
				t.Errorf("request failed: %v", err)
			}
		}()
	}
	wg.Wait()
	p := s.plane(0)
	if got := p.failures.Load(); got != onPlane0 {
		t.Fatalf("plane 0 failures = %d, want %d", got, onPlane0)
	}
	if got := p.hardQuars.Load(); got != 1 {
		t.Errorf("hard-failure count = %d after one episode, want 1", got)
	}
	if got := s.Failovers(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
}
