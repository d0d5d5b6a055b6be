package plane

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// funcRouter scripts a plane's behaviour for fault scenarios.
type funcRouter struct {
	n  int
	fn func(dst, src []core.Word) error
}

func (r *funcRouter) Inputs() int                          { return r.n }
func (r *funcRouter) RouteInto(dst, src []core.Word) error { return r.fn(dst, src) }

// deliver routes by address — the healthy behaviour.
func deliver(dst, src []core.Word) error {
	for _, wd := range src {
		dst[wd.Addr] = wd
	}
	return nil
}

// misdeliver routes by address, then silently swaps the first two outputs —
// the signature of a stuck element on a non-verifying plane.
func misdeliver(dst, src []core.Word) error {
	deliver(dst, src)
	dst[0], dst[1] = dst[1], dst[0]
	dst[0].Addr, dst[1].Addr = 1, 0
	return nil
}

func good(n int) *funcRouter { return &funcRouter{n: n, fn: deliver} }

// readmits sums the current planes' readmission counts.
func readmits(s *Supervisor) (n int64) {
	for _, st := range s.PlaneStats() {
		n += st.Readmits
	}
	return n
}

// repairs sums the current planes' rebuild counts.
func repairs(s *Supervisor) (n int64) {
	for _, st := range s.PlaneStats() {
		n += st.Repairs
	}
	return n
}

func permWords(p perm.Perm) []core.Word {
	words := make([]core.Word, len(p))
	for i, d := range p {
		words[i] = core.Word{Addr: d, Data: uint64(i)}
	}
	return words
}

// route sends one random permutation through the supervisor and verifies
// the delivery the caller sees.
func route(t *testing.T, s *Supervisor, rng *rand.Rand) error {
	t.Helper()
	n := s.Inputs()
	src := permWords(perm.Random(n, rng))
	dst := make([]core.Word, n)
	err := s.RouteInto(dst, src)
	if err == nil {
		for j := range dst {
			if dst[j].Addr != j {
				t.Fatalf("supervisor returned success with output %d carrying address %d", j, dst[j].Addr)
			}
		}
	}
	return err
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Planes: []Router{good(8)}}); err == nil {
		t.Error("single plane accepted")
	}
	if _, err := New(Config{Planes: []Router{good(8), good(4)}}); !errors.Is(err, neterr.ErrBadSize) {
		t.Errorf("mismatched plane sizes: err = %v, want ErrBadSize", err)
	}
	if _, err := New(Config{Planes: []Router{good(6), good(6)}}); !errors.Is(err, neterr.ErrBadSize) {
		t.Errorf("non-power-of-two ports: err = %v, want ErrBadSize", err)
	}
	if _, err := New(Config{Planes: []Router{good(8), nil}}); err == nil {
		t.Error("nil plane accepted")
	}
}

func TestRoutesSpreadOverHealthyPlanes(t *testing.T) {
	const n = 8
	s, err := New(Config{Planes: []Router{good(n), good(n), good(n)}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 90; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range s.PlaneStats() {
		if st.State != Healthy {
			t.Errorf("plane %d state = %v, want healthy", i, st.State)
		}
		if st.Served != 30 {
			t.Errorf("plane %d served %d requests, want 30 (round-robin)", i, st.Served)
		}
	}
}

// TestFailoverDrainsFaultyPlane pins the acceptance bound: from the first
// misroute on, the faulty plane serves zero further live requests — failover
// is immediate, far inside the <= 64-request budget — and the caller never
// sees an error.
func TestFailoverDrainsFaultyPlane(t *testing.T) {
	const n = 8
	var bad atomic.Bool
	flaky := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if bad.Load() {
			return misdeliver(dst, src)
		}
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	// HealthInterval an hour: the only sweep is the failure kick, so the
	// plane stays quarantined for the whole hammering phase.
	s, err := New(Config{Planes: []Router{flaky, good(n)}, HealthInterval: time.Hour, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatal(err)
		}
	}
	bad.Store(true)
	// Route until the fault is hit; the supervisor must absorb it.
	for i := 0; s.Failovers() == 0; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatalf("request during failover surfaced error: %v", err)
		}
		if i > 10 {
			t.Fatal("faulty plane never picked")
		}
	}
	// Wait for the kicked sweep to finish the Suspect -> Quarantined step,
	// then hammer: the drained plane must serve nothing.
	deadline := time.Now().Add(2 * time.Second)
	for State(s.plane(0).state.Load()) != Quarantined && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	servedAtFailover := s.plane(0).served.Load()
	for i := 0; i < 64; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatalf("request after failover surfaced error: %v", err)
		}
	}
	if got := s.plane(0).served.Load(); got != servedAtFailover {
		t.Errorf("drained plane served %d requests after failover", got-servedAtFailover)
	}
	if s.Failovers() != 1 {
		t.Errorf("Failovers = %d, want 1", s.Failovers())
	}
	snap := m.Snapshot()
	if snap.Failovers != 1 {
		t.Errorf("metrics Failovers = %d, want 1", snap.Failovers)
	}
	if snap.PlanesQuarantined != 1 || snap.PlanesHealthy != 1 {
		t.Errorf("plane gauges healthy=%d quarantined=%d, want 1 and 1",
			snap.PlanesHealthy, snap.PlanesQuarantined)
	}
}

// TestRepairAndReadmit drives the full heal cycle: a permanently misrouting
// plane is quarantined, fails its readmission probes, is rebuilt from the
// constructor, passes a clean probe pass, and rejoins service.
func TestRepairAndReadmit(t *testing.T) {
	const n = 8
	var rebuilds atomic.Int64
	var m metrics.Metrics
	s, err := New(Config{
		Planes:         []Router{&funcRouter{n: n, fn: misdeliver}, good(n)},
		Rebuild:        func() (Router, error) { rebuilds.Add(1); return good(n), nil },
		HealthInterval: time.Millisecond,
		Metrics:        &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	// First touch of plane 0 fails over; the health checker then needs three
	// failed probe passes to trigger the rebuild and one clean pass to
	// readmit.
	deadline := time.Now().Add(5 * time.Second)
	for readmits(s) == 0 && time.Now().Before(deadline) {
		if err := route(t, s, rng); err != nil {
			t.Fatalf("request surfaced error during repair cycle: %v", err)
		}
	}
	if readmits(s) == 0 {
		t.Fatal("plane never readmitted")
	}
	if rebuilds.Load() == 0 || repairs(s) == 0 {
		t.Errorf("rebuilds = %d, Repairs = %d, want both > 0", rebuilds.Load(), repairs(s))
	}
	// The repaired plane serves again.
	served := s.plane(0).served.Load()
	for i := 0; i < 20; i++ {
		if err := route(t, s, rng); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.plane(0).served.Load(); got <= served {
		t.Error("readmitted plane serves no traffic")
	}
	snap := m.Snapshot()
	if snap.Repairs == 0 || snap.Readmits == 0 {
		t.Errorf("metrics repairs=%d readmits=%d, want both > 0", snap.Repairs, snap.Readmits)
	}
}

// TestIdleProbeCatchesColdFault pins that the health checker finds a fault
// on a plane carrying no live traffic: the probe failure quarantines it
// before a request ever hits the defect.
func TestIdleProbeCatchesColdFault(t *testing.T) {
	const n = 8
	var bad atomic.Bool
	flaky := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if bad.Load() {
			return fmt.Errorf("stuck: %w", neterr.ErrMisrouted)
		}
		return deliver(dst, src)
	}}
	s, err := New(Config{Planes: []Router{flaky, good(n)}, HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for s.Failovers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Failovers() == 0 {
		t.Fatal("idle probe never failed the faulty plane")
	}
	bad.Store(false)
	for readmits(s) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if readmits(s) == 0 {
		t.Fatal("healed plane never readmitted")
	}
}

func TestRequestErrorsDoNotBlameThePlane(t *testing.T) {
	const n = 8
	reject := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		return fmt.Errorf("dup address: %w", neterr.ErrNotPermutation)
	}}
	s, err := New(Config{Planes: []Router{reject, reject}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := permWords(perm.Identity(n))
	dst := make([]core.Word, n)
	if err := s.RouteInto(dst, src); !errors.Is(err, neterr.ErrNotPermutation) {
		t.Fatalf("err = %v, want ErrNotPermutation through", err)
	}
	for i, st := range s.PlaneStats() {
		if st.State != Healthy || st.Failures != 0 {
			t.Errorf("plane %d blamed for a request error: state=%v failures=%d", i, st.State, st.Failures)
		}
	}
	if s.Failovers() != 0 {
		t.Errorf("Failovers = %d, want 0", s.Failovers())
	}
}

// TestNoPlaneInServiceSheds pins the request that finds every plane
// admitting or draining: no plane may serve it, so it is shed with
// ErrOverloaded and counted, without touching a router.
func TestNoPlaneInServiceSheds(t *testing.T) {
	const n = 8
	var m metrics.Metrics
	s, err := New(Config{
		Planes:         []Router{&funcRouter{n: n, fn: deliver}, &funcRouter{n: n, fn: deliver}},
		HealthInterval: time.Hour,
		Metrics:        &m,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.plane(0).state.Store(int32(Admitting))
	s.plane(1).state.Store(int32(Draining))
	dst := make([]core.Word, n)
	err = s.RouteInto(dst, permWords(perm.Identity(n)))
	if !errors.Is(err, neterr.ErrOverloaded) || !strings.Contains(err.Error(), "in service") {
		t.Errorf("err = %v, want ErrOverloaded naming no plane in service", err)
	}
	if got := m.Snapshot().Sheds; got != 1 {
		t.Errorf("Sheds = %d, want 1", got)
	}
}

// TestLastResortServesDegraded pins the no-healthy-planes path: quarantined
// planes still serve as a verified last resort, so the supervisor degrades
// instead of going dark, and readmission restores normal service.
func TestLastResortServesDegraded(t *testing.T) {
	const n = 8
	var bad atomic.Bool
	bad.Store(true)
	mk := func() *funcRouter {
		return &funcRouter{n: n, fn: func(dst, src []core.Word) error {
			if bad.Load() {
				return fmt.Errorf("down: %w", neterr.ErrMisrouted)
			}
			return deliver(dst, src)
		}}
	}
	s, err := New(Config{Planes: []Router{mk(), mk()}, HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(4))
	// Both planes fail: the request is tried everywhere and the error
	// surfaces.
	if err := route(t, s, rng); err == nil {
		t.Fatal("route succeeded with every plane down")
	}
	// Wait for both to leave service.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.States()
		if st[0] != Healthy && st[1] != Healthy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// With every plane quarantined, a healed fabric still serves via the
	// last-resort pass even before readmission.
	bad.Store(false)
	if err := route(t, s, rng); err != nil {
		t.Errorf("last-resort route on quarantined planes failed: %v", err)
	}
	for readmits(s) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if readmits(s) == 0 {
		t.Fatal("healed planes never readmitted")
	}
	if err := route(t, s, rng); err != nil {
		t.Errorf("route after readmission failed: %v", err)
	}
}

func TestCloseStopsHealthChecker(t *testing.T) {
	const n = 8
	s, err := New(Config{Planes: []Router{good(n), good(n)}, HealthInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	dst := make([]core.Word, n)
	if err := s.RouteInto(dst, permWords(perm.Identity(n))); !errors.Is(err, neterr.ErrClosed) {
		t.Errorf("route after Close: err = %v, want ErrClosed", err)
	}
}

// TestConcurrentHammerUnderFlakyPlane is the -race stress: many goroutines
// route while one plane flips between healthy and misrouting and the health
// checker quarantines and readmits it; no caller ever sees an error and no
// lock is held across routing calls.
func TestConcurrentHammerUnderFlakyPlane(t *testing.T) {
	const n = 8
	var bad atomic.Bool
	flaky := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if bad.Load() {
			return misdeliver(dst, src)
		}
		return deliver(dst, src)
	}}
	s, err := New(Config{
		Planes:         []Router{flaky, good(n), good(n)},
		HealthInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	go func() {
		// Flip the fault a few times so quarantine and readmission both run
		// under load.
		for i := 0; i < 6; i++ {
			time.Sleep(5 * time.Millisecond)
			bad.Store(i%2 == 0)
		}
		bad.Store(false)
		close(stop)
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := route(t, s, rng); err != nil {
					t.Errorf("hammer request failed: %v", err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if s.Failovers() == 0 {
		t.Log("note: fault window never hit under this schedule")
	}
}
