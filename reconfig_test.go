package bnbnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSupervisedDrainContracts pins the graceful-shutdown lifecycle at the
// public API: Drain stops admission with ErrDraining (not ErrClosed), waits
// for every ticket, and makes every later Close an idempotent no-op; Close
// seals admission with ErrClosed; Drain after Close reports ErrClosed.
func TestSupervisedDrainContracts(t *testing.T) {
	s, err := NewSupervised("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := s.Inputs()
	if _, errs := s.RoutePermBatch([]Perm{RandomPerm(n, rng)}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if s.InFlight() != 0 {
		t.Errorf("InFlight after Drain = %d, want 0", s.InFlight())
	}
	if _, err := s.Submit(nil, make([]Word, n)); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit after Drain: err = %v, want ErrDraining", err)
	}
	// Membership operations refuse a fleet that no longer admits traffic.
	if _, err := s.AddPlane(context.Background()); !errors.Is(err, ErrDraining) {
		t.Errorf("AddPlane after Drain: err = %v, want ErrDraining", err)
	}
	if err := s.RemovePlane(context.Background(), 0); !errors.Is(err, ErrDraining) {
		t.Errorf("RemovePlane after Drain: err = %v, want ErrDraining", err)
	}
	if err := s.Reconfigure(context.Background()); !errors.Is(err, ErrDraining) {
		t.Errorf("Reconfigure after Drain: err = %v, want ErrDraining", err)
	}
	// Repeat drains are clean waits on the same completed drain.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("repeat Drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close after Drain: err = %v, want nil", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close after Drain: err = %v, want nil (idempotent no-op)", err)
	}
	if _, err := s.Submit(nil, make([]Word, n)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Drain(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Drain after Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.AddPlane(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("AddPlane after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Reconfigure(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Reconfigure after Close: err = %v, want ErrClosed", err)
	}

	// Without a prior Drain the original contract stands: first Close nil,
	// second Close ErrClosed.
	s2, err := NewSupervised("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close without Drain: err = %v, want ErrClosed", err)
	}
}

// TestDrainKeepsDebugServerUp pins the Close ordering: the WithDebugAddr
// server keeps serving through and after a Drain — an operator can watch the
// drain on /debug/bnb/metrics — and is shut down only by Close.
func TestDrainKeepsDebugServerUp(t *testing.T) {
	b, err := NewBNB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(b, WithMetrics(NewMetrics()), WithDebugAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, errs := e.RoutePermBatch([]Perm{RandomPerm(8, rng)}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	url := "http://" + e.DebugAddr() + "/debug/bnb/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("debug server down after Drain (must stay up until Close): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug endpoint status %d after Drain, want 200", resp.StatusCode)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Error("debug server still serving after Close")
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestAddRemovePlaneLifecycle drives runtime membership at the public API:
// AddPlane admits a probed plane with a fresh cache registry slot,
// RemovePlane drains and detaches one (dropping its cache), and the
// redundancy floor of two planes holds.
func TestAddRemovePlaneLifecycle(t *testing.T) {
	sink := NewMetrics()
	s, err := NewSupervised("bnb", 3, WithMetrics(sink), WithHealthInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := s.AddPlane(ctx)
	if err != nil {
		t.Fatalf("AddPlane: %v", err)
	}
	if id != 2 {
		t.Errorf("first added plane id = %d, want 2", id)
	}
	if got := s.Planes(); got != 3 {
		t.Fatalf("Planes after add = %d, want 3", got)
	}
	for i, st := range s.PlaneStates() {
		if st != PlaneHealthy {
			t.Errorf("plane %d state = %v after AddPlane returned, want healthy", i, st)
		}
	}
	if got := len(s.Stats().PlanCaches); got != 3 {
		t.Errorf("PlanCacheStats length = %d, want 3", got)
	}
	rng := rand.New(rand.NewSource(9))
	n := s.Inputs()
	for i := 0; i < 12; i++ {
		if _, errs := s.RoutePermBatch([]Perm{RandomPerm(n, rng)}); errs[0] != nil {
			t.Fatalf("request %d on the 3-plane set: %v", i, errs[0])
		}
	}
	if err := s.RemovePlane(ctx, 0); err != nil {
		t.Fatalf("RemovePlane(0): %v", err)
	}
	if got := s.PlaneIDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("PlaneIDs after remove = %v, want [1 2]", got)
	}
	if got := len(s.Stats().PlanCaches); got != 2 {
		t.Errorf("PlanCacheStats length after remove = %d, want 2", got)
	}
	if err := s.RemovePlane(ctx, 1); err == nil || !strings.Contains(err.Error(), "fewer than 2") {
		t.Errorf("RemovePlane below the redundancy floor: err = %v, want refusal", err)
	}
	if _, errs := s.RoutePermBatch([]Perm{RandomPerm(n, rng)}); errs[0] != nil {
		t.Fatalf("request after remove: %v", errs[0])
	}
	snap := sink.Snapshot()
	if snap.PlanesAdded != 1 || snap.PlanesRemoved != 1 {
		t.Errorf("metrics planes added/removed = %d/%d, want 1/1", snap.PlanesAdded, snap.PlanesRemoved)
	}
}

// TestReconfigureWarmsPlanCaches pins the hitless-rollout cache contract:
// after a Reconfigure with ReconfigWarmPlans, the rebuilt planes' fresh
// caches already hold the hot plans — verified through the wired reference
// path — so post-rollout traffic hits without a single compile miss.
func TestReconfigureWarmsPlanCaches(t *testing.T) {
	sink := NewMetrics()
	// One worker makes submissions sequential, so the round-robin rotor
	// deterministically alternates the two planes and both caches see every
	// permutation. The hour-long health interval parks the background
	// prober: probe traffic also flows through the plan caches, and this
	// test wants the counters to reflect only its own requests (SwapPlane
	// verifies replacements synchronously, so the rollout needs no checker).
	s, err := NewSupervised("bnb", 4, WithMetrics(sink), WithWorkers(1), WithHealthInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Inputs()
	rng := rand.New(rand.NewSource(21))
	perms := make([]Perm, 4)
	for i := range perms {
		perms[i] = RandomPerm(n, rng)
	}
	// Each permutation twice in a row: with sequential submissions the rotor
	// alternates, so both planes compile and cache every one.
	for _, p := range perms {
		for rep := 0; rep < 2; rep++ {
			if _, errs := s.RoutePermBatch([]Perm{p}); errs[0] != nil {
				t.Fatalf("fill request: %v", errs[0])
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Reconfigure(ctx, ReconfigWarmPlans(16)); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	snap := sink.Snapshot()
	if snap.Reconfigs != 1 {
		t.Errorf("Reconfigs = %d, want 1", snap.Reconfigs)
	}
	// Each donor cache held exactly the four compiled permutations, and every
	// one must survive wired re-verification into its plane's fresh cache.
	if want := int64(2 * len(perms)); snap.PlanWarms != want {
		t.Errorf("PlanWarms = %d, want %d (both planes warmed with every hot plan)", snap.PlanWarms, want)
	}
	// Snapshot the rebuilt caches, then drive post-rollout traffic: the
	// warmed plans must absorb every compile — hits grow by exactly the
	// request count, misses not at all. (Deltas, because SwapPlane's offline
	// probe verification also flows through the fresh caches.)
	var hits0, misses0 int64
	for i, st := range s.Stats().PlanCaches {
		if st.Entries < len(perms) {
			t.Errorf("plane %d rebuilt cache holds %d plans, want >= %d", i, st.Entries, len(perms))
		}
		hits0 += st.Hits
		misses0 += st.Misses
	}
	for _, p := range perms {
		outs, errs := s.RoutePermBatch([]Perm{p})
		if errs[0] != nil {
			t.Fatalf("post-rollout request: %v", errs[0])
		}
		for j, w := range outs[0] {
			if w.Addr != j {
				t.Fatalf("post-rollout output %d carries address %d", j, w.Addr)
			}
		}
	}
	var hits, misses int64
	for _, st := range s.Stats().PlanCaches {
		hits += st.Hits
		misses += st.Misses
	}
	if misses != misses0 || hits != hits0+int64(len(perms)) {
		t.Errorf("post-rollout cache traffic hits/misses grew by %d/%d, want %d/0 (pre-warm must absorb every compile)",
			hits-hits0, misses-misses0, len(perms))
	}
}

// rebuildRaceRuns numbers the families TestRebuildRacingSwapKeepsLiveCaches
// registers, so repeated runs (-count) never collide in the registry.
var rebuildRaceRuns atomic.Int64

// TestRebuildRacingSwapKeepsLiveCaches pins that Stats reports the plan
// cache each plane routes through, even when the health checker's rebuild
// of a plane loses to a Reconfigure swap of the same plane. The family's
// third build — the checker's rebuild of the stuck-at plane 0, after the
// two construction builds — blocks until a Reconfigure has swapped every
// plane; the released rebuild then finds its plane already replaced, and
// its router (and cache) are discarded. Every plane that serves afterwards
// must report a cache that saw its lookups.
func TestRebuildRacingSwapKeepsLiveCaches(t *testing.T) {
	const m = 3
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	var builds atomic.Int64
	family := fmt.Sprintf("bnb-rebuild-race-%d", rebuildRaceRuns.Add(1))
	if err := Register(family, func(m, _ int) (Network, error) {
		if builds.Add(1) == 3 {
			entered <- struct{}{}
			<-release
		}
		return New("bnb", m)
	}); err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(1024)
	s, err := NewSupervised(family, m, WithWorkers(1), WithTracer(tr),
		WithHealthInterval(time.Millisecond),
		WithPlaneFaults(0, StuckAt(FaultElements(m)[0], true)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer unblock() // a failing test must not leave the checker blocked
	select {
	case <-entered: // the checker is rebuilding plane 0
	case <-time.After(10 * time.Second):
		t.Fatal("the health checker never rebuilt the stuck-at plane")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Reconfigure(ctx); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	// The blocked checker starts no span, and nothing else does until
	// traffic flows: the first span started after the release is the
	// checker's next probe pass, so the rebuild has settled by then.
	mark := tr.Started()
	unblock()
	deadline := time.Now().Add(10 * time.Second)
	for tr.Started() == mark {
		if time.Now().After(deadline) {
			t.Fatal("no probe pass after the rebuild was released")
		}
		runtime.Gosched()
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 256; i++ {
		if _, errs := s.RoutePermBatch([]Perm{RandomPerm(s.Inputs(), rng)}); errs[0] != nil {
			t.Fatalf("request %d: %v", i, errs[0])
		}
	}
	st := s.Stats()
	if len(st.PlanCaches) != len(st.Planes) {
		t.Fatalf("%d plan caches for %d planes", len(st.PlanCaches), len(st.Planes))
	}
	for i, p := range st.Planes {
		if c := st.PlanCaches[i]; p.Served > 0 && c.Hits+c.Misses == 0 {
			t.Errorf("plane %d served %d requests, but its reported plan cache saw no lookup: %+v", p.ID, p.Served, c)
		}
	}
}

// TestReconfigurePlanesGrowShrink exercises ReconfigPlanes both ways: grow
// admits fresh planes before anything drains, shrink detaches the newest
// members after the rollout, and option validation rejects nonsense.
func TestReconfigurePlanesGrowShrink(t *testing.T) {
	sink := NewMetrics()
	s, err := NewSupervised("bnb", 3, WithMetrics(sink), WithHealthInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Reconfigure(ctx, ReconfigPlanes(4), ReconfigWarmPlans(8)); err != nil {
		t.Fatalf("grow Reconfigure: %v", err)
	}
	if got := s.Planes(); got != 4 {
		t.Fatalf("Planes after grow = %d, want 4", got)
	}
	for i, st := range s.PlaneStates() {
		if st != PlaneHealthy {
			t.Errorf("plane %d state after grow = %v, want healthy", i, st)
		}
	}
	rng := rand.New(rand.NewSource(13))
	n := s.Inputs()
	if _, errs := s.RoutePermBatch([]Perm{RandomPerm(n, rng)}); errs[0] != nil {
		t.Fatalf("request on grown fleet: %v", errs[0])
	}
	if err := s.Reconfigure(ctx, ReconfigPlanes(2)); err != nil {
		t.Fatalf("shrink Reconfigure: %v", err)
	}
	if got := s.Planes(); got != 2 {
		t.Fatalf("Planes after shrink = %d, want 2", got)
	}
	if _, errs := s.RoutePermBatch([]Perm{RandomPerm(n, rng)}); errs[0] != nil {
		t.Fatalf("request on shrunk fleet: %v", errs[0])
	}
	if snap := sink.Snapshot(); snap.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d, want 2", snap.Reconfigs)
	}
	if err := s.Reconfigure(ctx, ReconfigPlanes(1)); err == nil || !strings.Contains(err.Error(), "at least 2") {
		t.Errorf("ReconfigPlanes(1): err = %v, want floor refusal", err)
	}
	if err := s.Reconfigure(ctx, ReconfigWarmPlans(-1)); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("ReconfigWarmPlans(-1): err = %v, want rejection", err)
	}
}

// TestReconfigureChaosSoak is the PR's acceptance run: >= 10k requests with
// 1% chaos injected in one plane, while three consecutive live Reconfigure
// rollouts rebuild the fleet under that traffic — and every single request
// must be delivered, verified: zero failures, zero misroutes, zero losses.
func TestReconfigureChaosSoak(t *testing.T) {
	const (
		m     = 5
		k     = 3
		least = 10000
		batch = 250
	)
	sink := NewMetrics()
	s, err := NewSupervised("bnb", m,
		WithPlanes(k),
		WithPlaneFaults(0, &FaultPlan{ChaosRate: 0.01, ChaosHeal: 1, Seed: 77}),
		WithWorkers(4),
		WithMetrics(sink),
		WithHealthInterval(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Inputs()
	rng := rand.New(rand.NewSource(11))
	started := make(chan struct{})
	recDone := make(chan error, 1)
	go func() {
		<-started // traffic is flowing before the first rollout begins
		for i := 0; i < 3; i++ {
			if err := s.Reconfigure(context.Background(), ReconfigWarmPlans(16)); err != nil {
				recDone <- err
				return
			}
		}
		recDone <- nil
	}()
	var done, failed, misrouted int
	var firstErr, reconfigErr error
	signaled, rolloutsDone := false, false
	for done < least || !rolloutsDone {
		ps := make([]Perm, batch)
		for i := range ps {
			ps[i] = RandomPerm(n, rng)
		}
		outs, errs := s.RoutePermBatch(ps)
		for i := range errs {
			if errs[i] != nil {
				failed++
				if firstErr == nil {
					firstErr = errs[i]
				}
				if errors.Is(errs[i], ErrMisrouted) {
					misrouted++
				}
				continue
			}
			for j, w := range outs[i] {
				if w.Addr != j {
					t.Fatalf("delivered output %d carries address %d", j, w.Addr)
				}
			}
		}
		done += batch
		if !signaled {
			close(started)
			signaled = true
		}
		if !rolloutsDone {
			select {
			case reconfigErr = <-recDone:
				rolloutsDone = true
			default:
			}
		}
	}
	if reconfigErr != nil {
		t.Fatalf("Reconfigure under chaos traffic: %v", reconfigErr)
	}
	if failed != 0 || misrouted != 0 {
		t.Errorf("delivered %d/%d requests (%d failed, %d misrouted, first error %v), want 100%%",
			done-failed, done, failed, misrouted, firstErr)
	}
	if got := s.Planes(); got != k {
		t.Errorf("Planes after three rollouts = %d, want %d", got, k)
	}
	snap := sink.Snapshot()
	if snap.Reconfigs != 3 {
		t.Errorf("Reconfigs = %d, want 3", snap.Reconfigs)
	}
	if snap.Errors != 0 {
		t.Errorf("metrics recorded %d caller-visible request errors", snap.Errors)
	}
	if snap.PlanWarms == 0 {
		t.Error("three warmed rollouts recorded no PlanWarms")
	}
	t.Logf("chaos rollout soak: %d requests, failovers=%d readmits=%d reconfigs=%d warms=%d states=%v",
		done, s.Failovers(), snap.Readmits, snap.Reconfigs, snap.PlanWarms, s.PlaneStates())
}
