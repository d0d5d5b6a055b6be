package cluster

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// idleShard only reports its port count; the decomposition tests never
// route through it.
type idleShard int

func (s idleShard) Inputs() int { return int(s) }

func (s idleShard) RouteInto([]core.Word, []core.Word) error { panic("idleShard routed") }

func newShapeCoordinator(t testing.TB, s, l int) *Coordinator {
	t.Helper()
	sh := make([]Shard, s)
	for g := range sh {
		sh[g] = idleShard(l)
	}
	c, err := New(sh)
	if err != nil {
		t.Fatalf("New(%d x %d): %v", s, l, err)
	}
	return c
}

// loops reports whether the coordinator's matching stage uses looping
// rounds rather than König's alternating paths.
func (c *Coordinator) loops() bool {
	sc := c.pool.Get().(*scratch)
	defer c.pool.Put(sc)
	return sc.m.ec == nil
}

// TestLoopingExhaustiveN8 decomposes every permutation of N = 8 at every
// power-of-two shard count, down to one port per shard.
func TestLoopingExhaustiveN8(t *testing.T) {
	for _, s := range []int{2, 4, 8} {
		c := newShapeCoordinator(t, s, 8/s)
		if !c.loops() {
			t.Fatalf("S=%d: matching stage is not looping", s)
		}
		perm.ForEach(8, func(p perm.Perm) bool {
			a, err := c.Decompose(p)
			if err != nil {
				t.Fatalf("S=%d %v: Decompose: %v", s, p, err)
			}
			checkAssignment(t, a, p)
			return true
		})
	}
}

// TestLoopingRandom covers every power-of-two shard count up to 32 at
// every shard order up to 7, on random permutations plus the identity and
// the reversal.
func TestLoopingRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range []int{2, 4, 8, 16, 32} {
		for m := 0; m <= 7; m++ {
			c := newShapeCoordinator(t, s, 1<<m)
			n := c.Inputs()
			ps := []perm.Perm{perm.Identity(n), perm.Reversal(n)}
			for trial := 0; trial < 4; trial++ {
				ps = append(ps, perm.Random(n, rng))
			}
			for _, p := range ps {
				a, err := c.Decompose(p)
				if err != nil {
					t.Fatalf("S=%d m=%d: Decompose: %v", s, m, err)
				}
				checkAssignment(t, a, p)
			}
		}
	}
}

// TestKonigOtherShardCounts pins that shard counts that are not powers of
// two take König's path and pass the same structural check.
func TestKonigOtherShardCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []int{3, 5, 6} {
		for m := 0; m <= 4; m++ {
			c := newShapeCoordinator(t, s, 1<<m)
			if c.loops() {
				t.Fatalf("S=%d: matching stage is looping, want König", s)
			}
			n := c.Inputs()
			ps := []perm.Perm{perm.Identity(n), perm.Reversal(n)}
			for trial := 0; trial < 10; trial++ {
				ps = append(ps, perm.Random(n, rng))
			}
			for _, p := range ps {
				a, err := c.Decompose(p)
				if err != nil {
					t.Fatalf("S=%d m=%d: Decompose: %v", s, m, err)
				}
				checkAssignment(t, a, p)
			}
		}
	}
}

// TestRouteAllocFree pins the live route at zero allocations on both
// matching paths: the decomposition, the exchanges and the shard batches
// all live in the coordinator's pooled scratch.
func TestRouteAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, s := range []int{4, 3} {
		c := newTestCoordinator(t, s, 5)
		n := c.Inputs()
		p := perm.Random(n, rand.New(rand.NewSource(int64(s))))
		src := make([]core.Word, n)
		for i, d := range p {
			src[i] = core.Word{Addr: d, Data: uint64(i)}
		}
		dst := make([]core.Word, n)
		route := func() {
			if err := c.Route(context.Background(), dst, src); err != nil {
				t.Fatalf("S=%d: Route: %v", s, err)
			}
		}
		route() // warm the pools
		if allocs := testing.AllocsPerRun(100, route); allocs != 0 {
			t.Errorf("S=%d: Coordinator.Route allocates %.1f objects per call, want 0", s, allocs)
		}
	}
}

// TestDecomposeAllocs pins Decompose to the returned Assignment's four
// objects (struct, P, the int32 slab and the row headers); the matching
// stage's buffers come from the pool.
func TestDecomposeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, s := range []int{4, 8, 5} {
		c := newShapeCoordinator(t, s, 32)
		p := perm.Random(c.Inputs(), rand.New(rand.NewSource(int64(s))))
		decompose := func() {
			if _, err := c.Decompose(p); err != nil {
				t.Fatalf("S=%d: Decompose: %v", s, err)
			}
		}
		decompose()
		if allocs := testing.AllocsPerRun(100, decompose); allocs != 4 {
			t.Errorf("S=%d: Decompose allocates %.1f objects per call, want 4", s, allocs)
		}
	}
}

// BenchmarkDecompose times the matching stage plus the Assignment it
// returns, on distinct random permutations.
func BenchmarkDecompose(b *testing.B) {
	for _, bc := range []struct {
		name string
		s, m int
	}{{"S4_m5", 4, 5}, {"S8_m7", 8, 7}} {
		b.Run(bc.name, func(b *testing.B) {
			c := newShapeCoordinator(b, bc.s, 1<<bc.m)
			rng := rand.New(rand.NewSource(1))
			ps := make([]perm.Perm, 256)
			for i := range ps {
				ps[i] = perm.Random(c.Inputs(), rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decompose(ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
