package bnbnet

// Tests for the compiled-plan surface: the PlanRouter API and its discovery
// through decorators, the differential compile-replay battery (every sweep
// permutation routed live and by plan replay, word-for-word), the plan-cache
// wiring of NewEngine and NewSupervised, and the acceptance pins — Replay at
// zero allocations and below Batcher's live route at m=5.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
)

// planReplayNet adapts a *BNB into a check.Network that routes every request
// by compile-then-replay instead of the live arbiter pass. Sweeping it
// against the live network proves the recorded plans reproduce the
// self-routing data path word-for-word on every battery permutation.
type planReplayNet struct{ b *BNB }

func (n planReplayNet) Name() string { return "bnb-replay" }
func (n planReplayNet) Inputs() int  { return n.b.Inputs() }

func (n planReplayNet) Route(words []Word) ([]Word, error) {
	p := make(Perm, len(words))
	for i, wd := range words {
		p[i] = wd.Addr
	}
	pl, err := n.b.Compile(p)
	if err != nil {
		return nil, err
	}
	out := make([]Word, len(words))
	if err := n.b.Replay(pl, out, words); err != nil {
		return nil, err
	}
	return out, nil
}

func (n planReplayNet) RoutePerm(p Perm) ([]Word, error) { return n.Route(permWords(p)) }

// TestPlanDifferentialSweep routes the full verification battery through the
// live self-routing network and through compile-replay, comparing
// word-for-word. At m=3 the sweep enumerates all 8! permutations, so the
// compile-replay equivalence is exhaustive for N <= 8 (the acceptance bar);
// m=4 adds the structured families, the full BPC class, and the adversarial
// climbs at the next size up.
func TestPlanDifferentialSweep(t *testing.T) {
	for _, m := range []int{3, 4} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			b, err := NewBNB(m, 16)
			if err != nil {
				t.Fatal(err)
			}
			report, err := check.Sweep([]check.Network{b, planReplayNet{b: b}}, check.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if m == 3 && !report.ExhaustiveDone {
				t.Error("N=8 sweep skipped the exhaustive enumeration")
			}
			if !report.OK() {
				t.Fatalf("live route and plan replay diverged (%d checks): %v", report.Checked, report.Failures)
			}
			t.Logf("m=%d: %d permutations agree live vs. replay", m, report.Checked)
		})
	}
}

// TestPlanRouterSurface covers the public surface: discovery through New's
// decorators, the compile-replay round trip and the plan accessors.
func TestPlanRouterSurface(t *testing.T) {
	b, err := NewBNB(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Inputs()
	if _, ok := AsPlanRouter(b); !ok {
		t.Fatal("bare *BNB does not offer PlanRouter")
	}
	dec := mustNetwork(t, "bnb", 4, WithMetrics(NewMetrics()))
	pr, ok := AsPlanRouter(dec)
	if !ok {
		t.Fatal("AsPlanRouter does not see through New's metrics decorator")
	}
	if _, ok := AsPlanRouter(mustNetwork(t, "batcher", 4)); ok {
		t.Error("batcher offers PlanRouter; compiled plans are a BNB surface")
	}

	rng := rand.New(rand.NewSource(7))
	p := RandomPerm(n, rng)
	pl, err := pr.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.M() != 4 || pl.Inputs() != n {
		t.Errorf("plan reports m=%d N=%d, want 4, %d", pl.M(), pl.Inputs(), n)
	}
	want := (n / 2) * 4 * 5 / 2
	if pl.Switches() != want {
		t.Errorf("Switches() = %d, want %d", pl.Switches(), want)
	}
	got := pl.Perm()
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("Perm()[%d] = %d, want %d", i, got[i], p[i])
		}
	}
	got[0] = -1 // Perm returns a copy; mutating it must not corrupt the plan.

	src := make([]Word, n)
	for i, d := range p {
		src[i] = Word{Addr: d, Data: uint64(100 + i)}
	}
	dst := make([]Word, n)
	if err := pr.Replay(pl, dst, src); err != nil {
		t.Fatal(err)
	}
	for j, wd := range dst {
		if wd.Addr != j {
			t.Fatalf("output %d carries address %d", j, wd.Addr)
		}
	}
	for i, d := range p {
		if dst[d].Data != uint64(100+i) {
			t.Fatalf("payload of input %d lost", i)
		}
	}

	// Error contract: nil plan, mismatched batch, wrong sizes, foreign order.
	if err := b.Replay(nil, dst, src); err == nil {
		t.Error("nil plan accepted")
	}
	other := make([]Word, n)
	copy(other, src)
	other[0], other[1] = other[1], other[0]
	if err := b.Replay(pl, dst, other); !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("mismatched batch = %v, want ErrPlanMismatch", err)
	}
	if err := b.Replay(pl, dst, src[:n-1]); !errors.Is(err, ErrBadSize) {
		t.Errorf("short src = %v, want ErrBadSize", err)
	}
	b3, err := NewBNB(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	pl3, err := b3.Compile(RandomPerm(8, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Replay(pl3, dst, src); !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("foreign-order plan = %v, want ErrPlanMismatch", err)
	}
	if _, err := b.Compile(Perm{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}); !errors.Is(err, ErrNotPermutation) {
		t.Errorf("Compile of a non-permutation = %v, want ErrNotPermutation", err)
	}
}

// TestWithPlanCacheEngine verifies the engine-level cache wiring: repeated
// permutations hit, the counters land in both Stats().PlanCaches and the
// shared Metrics sink, expvar publication works once, and the option is
// rejected where it cannot apply.
func TestWithPlanCacheEngine(t *testing.T) {
	ms := NewMetrics()
	e, err := NewEngine(mustNetwork(t, "bnb", 3), WithPlanCache(8), WithMetrics(ms))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	ps := []Perm{RandomPerm(8, rng), RandomPerm(8, rng)}
	for round := 0; round < 3; round++ {
		for _, p := range ps {
			out, errs := e.RoutePermBatch([]Perm{p})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			for j, wd := range out[0] {
				if wd.Addr != j {
					t.Fatalf("output %d carries address %d", j, wd.Addr)
				}
			}
		}
	}
	caches := e.Stats().PlanCaches
	if len(caches) != 1 {
		t.Fatalf("Stats().PlanCaches has %d entries, want 1", len(caches))
	}
	st := caches[0]
	if st.Misses != 2 || st.Hits != 4 {
		t.Errorf("cache stats = %+v, want 2 misses and 4 hits", st)
	}
	if st.Entries != 2 || st.Capacity != 8 {
		t.Errorf("cache stats = %+v, want 2 entries of capacity 8", st)
	}
	if r := st.HitRatio(); r < 0.66 || r > 0.67 {
		t.Errorf("HitRatio() = %.3f, want 2/3", r)
	}
	snap := ms.Snapshot()
	if snap.PlanHits != 4 || snap.PlanMisses != 2 || snap.PlanCompiles != 2 {
		t.Errorf("metrics = hits %d misses %d compiles %d, want 4/2/2",
			snap.PlanHits, snap.PlanMisses, snap.PlanCompiles)
	}
	if snap.PlanCompiles > 0 && snap.MeanPlanCompile <= 0 {
		t.Error("MeanPlanCompile not recorded")
	}
	if err := e.Publish("test_engine_plan_cache"); err != nil {
		t.Fatal(err)
	}
	if err := e.Publish("test_engine_plan_cache"); err == nil {
		t.Error("duplicate expvar name accepted")
	}

	// A cached engine still refuses malformed requests with the usual
	// sentinels.
	if _, errs := e.RouteBatch([][]Word{permWords(Perm{0, 0, 2, 3, 4, 5, 6, 7})}); !errors.Is(errs[0], ErrNotPermutation) {
		t.Errorf("non-permutation through cached engine = %v, want ErrNotPermutation", errs[0])
	}

	// Rejections: no compiled-plan surface, wrong constructor, negative size.
	if _, err := NewEngine(mustNetwork(t, "batcher", 3), WithPlanCache(8)); err == nil ||
		!strings.Contains(err.Error(), "compiled-plan surface") {
		t.Errorf("WithPlanCache on batcher = %v, want compiled-plan surface error", err)
	}
	if _, err := New("bnb", 3, WithPlanCache(8)); err == nil {
		t.Error("WithPlanCache accepted by New")
	}
	if _, err := NewEngine(mustNetwork(t, "bnb", 3), WithPlanCache(-1)); err == nil {
		t.Error("negative WithPlanCache accepted")
	}
	// Engine without the option reports no plan cache.
	plain, err := NewEngine(mustNetwork(t, "bnb", 3))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if caches := plain.Stats().PlanCaches; caches != nil {
		t.Errorf("uncached engine PlanCaches = %+v, want nil", caches)
	}
}

// TestWithPlanCacheSupervised verifies the per-plane wiring: caching is on
// by default for plan-capable planes, repeats hit, WithPlanCache(0) opts
// out, and faulted planes stay uncached.
func TestWithPlanCacheSupervised(t *testing.T) {
	ms := NewMetrics()
	s, err := NewSupervised("bnb", 3, WithPlanes(2), WithMetrics(ms))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	p := RandomPerm(8, rng)
	for i := 0; i < 6; i++ {
		outs, errs := s.RoutePermBatch([]Perm{p})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		for j, wd := range outs[0] {
			if wd.Addr != j {
				t.Fatalf("output %d carries address %d", j, wd.Addr)
			}
		}
	}
	stats := s.Stats().PlanCaches
	if len(stats) != 2 {
		t.Fatalf("Stats().PlanCaches has %d planes, want 2", len(stats))
	}
	var hits, misses int64
	for _, st := range stats {
		hits += st.Hits
		misses += st.Misses
		if st.Capacity != defaultPlanCacheEntries {
			t.Errorf("default plane cache capacity = %d, want %d", st.Capacity, defaultPlanCacheEntries)
		}
	}
	if hits+misses != 6 {
		t.Errorf("plane caches saw %d lookups, want 6", hits+misses)
	}
	// Each plane compiles the permutation at most once; everything else hits.
	if misses > 2 || hits < 4 {
		t.Errorf("plane caches: %d misses, %d hits; want <=2 misses over 6 routes", misses, hits)
	}
	if snap := ms.Snapshot(); snap.PlanHits != hits || snap.PlanMisses != misses {
		t.Errorf("metrics (hits %d, misses %d) disagree with cache stats (%d, %d)",
			snap.PlanHits, snap.PlanMisses, hits, misses)
	}
	if err := s.Publish("test_supervised_plan_cache"); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish("test_supervised_plan_cache"); err == nil {
		t.Error("duplicate expvar name accepted")
	}

	// WithPlanCache(0) opts out entirely.
	off, err := NewSupervised("bnb", 3, WithPlanes(2), WithPlanCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if got := off.Stats().PlanCaches; got != nil {
		t.Errorf("opted-out supervised PlanCaches = %v, want nil", got)
	}

	// An explicit cache on a family without the surface is an error ...
	if _, err := NewSupervised("batcher", 3, WithPlanes(2), WithPlanCache(8)); err == nil ||
		!strings.Contains(err.Error(), "compiled-plan surface") {
		t.Errorf("WithPlanCache on supervised batcher = %v, want compiled-plan surface error", err)
	}
	// ... while the silent default simply leaves such planes uncached.
	bs, err := NewSupervised("batcher", 3, WithPlanes(2))
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	if st := bs.Stats().PlanCaches; len(st) != 2 || st[0] != (PlanCacheStats{}) {
		t.Errorf("batcher plane stats = %v, want zero stats per plane", st)
	}

	// A faulted plane stays uncached: plans must never be compiled on, or
	// replayed over, a plane with injected faults.
	fs, err := NewSupervised("bnb", 3, WithPlanes(2),
		WithPlaneFaults(0, &FaultPlan{ChaosRate: 0.01, ChaosHeal: 1, Seed: 2026}))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for i := 0; i < 4; i++ {
		if _, errs := fs.RoutePermBatch([]Perm{p}); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	fstats := fs.Stats().PlanCaches
	if len(fstats) != 2 {
		t.Fatalf("Stats().PlanCaches has %d planes, want 2", len(fstats))
	}
	if fstats[0] != (PlanCacheStats{}) {
		t.Errorf("faulted plane 0 has cache stats %+v, want zero (uncached)", fstats[0])
	}
	if fstats[1].Misses == 0 {
		t.Errorf("healthy plane 1 stats = %+v, want at least one compile", fstats[1])
	}
}

// TestReplayBelowBatcher is the acceptance benchmark: replaying a cached
// plan at m=5 must undercut Batcher's live sorting route — the point of
// compiling is to beat the fastest live router, not just our own arbiter
// pass. Run via testing.Benchmark so the comparison is measured, not
// assumed.
func TestReplayBelowBatcher(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts ns/op; run without -race")
	}
	const m = 5
	b, err := NewBNB(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Inputs()
	rng := rand.New(rand.NewSource(1991))
	p := RandomPerm(n, rng)
	pl, err := b.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	src := permWords(p)
	dst := make([]Word, n)
	replay := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			if err := b.Replay(pl, dst, src); err != nil {
				bb.Fatal(err)
			}
		}
	})

	bat := mustNetwork(t, "batcher", m)
	bsrc := permWords(p)
	batcher := testing.Benchmark(func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			if _, err := bat.Route(bsrc); err != nil {
				bb.Fatal(err)
			}
		}
	})

	rNs := float64(replay.T.Nanoseconds()) / float64(replay.N)
	bNs := float64(batcher.T.Nanoseconds()) / float64(batcher.N)
	t.Logf("m=%d: plan replay %.0f ns/op vs batcher live route %.0f ns/op", m, rNs, bNs)
	if rNs >= bNs {
		t.Errorf("plan replay (%.0f ns/op) is not below batcher's live route (%.0f ns/op)", rNs, bNs)
	}
	for j, wd := range dst {
		if wd.Addr != j {
			t.Fatalf("output %d carries address %d", j, wd.Addr)
		}
	}
}
