package cluster

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// syncShard routes through a real BNB network.
type syncShard struct {
	net *core.Network
}

func (s *syncShard) Inputs() int { return s.net.Inputs() }

func (s *syncShard) RouteInto(dst, src []core.Word) error { return s.net.RouteInto(dst, src) }

func newTestCoordinator(t *testing.T, shards, m int) *Coordinator {
	t.Helper()
	sh := make([]Shard, shards)
	for i := range sh {
		n, err := core.New(m, 64)
		if err != nil {
			t.Fatalf("core.New(%d): %v", m, err)
		}
		sh[i] = &syncShard{net: n}
	}
	c, err := New(sh)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// checkAssignment verifies every structural invariant of a decomposition:
// stage A is collision-free, every local map is a permutation, and the
// composition of the three stages reproduces p exactly.
func checkAssignment(t *testing.T, a *Assignment, p []int) {
	t.Helper()
	s, l := a.S, a.L
	// Stage A: within each column h0, the S words (one per source shard)
	// must transit S distinct intermediate shards.
	for h0 := 0; h0 < l; h0++ {
		used := make([]bool, s)
		for g0 := 0; g0 < s; g0++ {
			mid := a.Mid[g0*l+h0]
			if mid < 0 || int(mid) >= s {
				t.Fatalf("Mid[%d] = %d out of range", g0*l+h0, mid)
			}
			if used[mid] {
				t.Fatalf("column %d: intermediate shard %d used twice", h0, mid)
			}
			used[mid] = true
		}
	}
	// Stage B: every per-shard local map must be a permutation of [0, l).
	for g := 0; g < s; g++ {
		seen := make([]bool, l)
		for h0 := 0; h0 < l; h0++ {
			h1 := a.Local[g][h0]
			if h1 < 0 || int(h1) >= l || seen[h1] {
				t.Fatalf("shard %d: Local[%d] = %d not a permutation", g, h0, h1)
			}
			seen[h1] = true
		}
	}
	// End to end: following element i through the three stages must land
	// it at p[i].
	for i, d := range p {
		mid := a.Mid[i]
		h1 := a.Local[mid][i%l]
		if got := int(a.Final[mid][h1]); got != d {
			t.Fatalf("element %d: stages deliver to %d, want %d", i, got, d)
		}
	}
}

func TestDecomposeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ shards, m int }{
		{1, 3}, {2, 3}, {3, 3}, {4, 3}, {5, 2}, {7, 3}, {8, 4}, {16, 3},
	} {
		c := newTestCoordinator(t, tc.shards, tc.m)
		for trial := 0; trial < 20; trial++ {
			p := rng.Perm(c.Inputs())
			a, err := c.Decompose(p)
			if err != nil {
				t.Fatalf("s=%d m=%d: Decompose: %v", tc.shards, tc.m, err)
			}
			checkAssignment(t, a, p)
		}
		// Identity and reversal are worst cases for the alternating-path
		// flipper (long chains of forced recolorings).
		n := c.Inputs()
		id := make([]int, n)
		rev := make([]int, n)
		for i := range id {
			id[i], rev[i] = i, n-1-i
		}
		for _, p := range [][]int{id, rev} {
			a, err := c.Decompose(p)
			if err != nil {
				t.Fatalf("s=%d m=%d: Decompose: %v", tc.shards, tc.m, err)
			}
			checkAssignment(t, a, p)
		}
	}
}

func TestDecomposeRejects(t *testing.T) {
	c := newTestCoordinator(t, 4, 3)
	n := c.Inputs()
	if _, err := c.Decompose(make([]int, n-1)); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("short perm: got %v, want ErrBadSize", err)
	}
	bad := make([]int, n)
	for i := range bad {
		bad[i] = i
	}
	bad[3] = 5
	if _, err := c.Decompose(bad); !errors.Is(err, neterr.ErrNotPermutation) {
		t.Fatalf("duplicate: got %v, want ErrNotPermutation", err)
	}
	bad[3] = n
	if _, err := c.Decompose(bad); !errors.Is(err, neterr.ErrNotPermutation) {
		t.Fatalf("out of range: got %v, want ErrNotPermutation", err)
	}
}

func TestRouteMatchesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ shards, m int }{{2, 3}, {4, 3}, {8, 4}, {3, 3}} {
		c := newTestCoordinator(t, tc.shards, tc.m)
		n := c.Inputs()
		src := make([]core.Word, n)
		dst := make([]core.Word, n)
		for trial := 0; trial < 10; trial++ {
			p := rng.Perm(n)
			for i := range src {
				src[i] = core.Word{Addr: p[i], Data: uint64(i)}
			}
			if err := c.Route(context.Background(), dst, src); err != nil {
				t.Fatalf("s=%d m=%d: Route: %v", tc.shards, tc.m, err)
			}
			for i := range p {
				got := dst[p[i]]
				if got.Addr != p[i] || got.Data != uint64(i) {
					t.Fatalf("s=%d m=%d: dst[%d] = %+v, want {%d %d}", tc.shards, tc.m, p[i], got, p[i], i)
				}
			}
		}
	}
}

func TestRouteAliased(t *testing.T) {
	c := newTestCoordinator(t, 4, 3)
	n := c.Inputs()
	rng := rand.New(rand.NewSource(3))
	p := rng.Perm(n)
	buf := make([]core.Word, n)
	for i := range buf {
		buf[i] = core.Word{Addr: p[i], Data: uint64(i)}
	}
	if err := c.Route(context.Background(), buf, buf); err != nil {
		t.Fatalf("Route aliased: %v", err)
	}
	for i := range p {
		if buf[p[i]].Data != uint64(i) {
			t.Fatalf("aliased route misplaced element %d", i)
		}
	}
}

func TestRouteAssigned(t *testing.T) {
	c := newTestCoordinator(t, 4, 3)
	n := c.Inputs()
	rng := rand.New(rand.NewSource(5))
	p := rng.Perm(n)
	a, err := c.Decompose(p)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	for i := range src {
		src[i] = core.Word{Addr: p[i], Data: uint64(100 + i)}
	}
	// Replays are idempotent.
	for rep := 0; rep < 3; rep++ {
		if err := c.RouteAssigned(context.Background(), dst, src, a); err != nil {
			t.Fatalf("RouteAssigned: %v", err)
		}
		for i := range p {
			if dst[p[i]].Data != uint64(100+i) {
				t.Fatalf("replay %d misplaced element %d", rep, i)
			}
		}
	}
	// A src batch carrying a different permutation is rejected up front.
	src[0], src[1] = src[1], src[0]
	if err := c.RouteAssigned(context.Background(), dst, src, a); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("mismatched replay: got %v, want ErrPlanMismatch", err)
	}
	if err := c.RouteAssigned(context.Background(), dst, src, nil); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("nil assignment: got %v, want ErrPlanMismatch", err)
	}
}

// failShard fails every route.
type failShard struct {
	l    int
	boom error
}

func (s *failShard) Inputs() int { return s.l }

func (s *failShard) RouteInto([]core.Word, []core.Word) error { return s.boom }

func TestRouteShardFailure(t *testing.T) {
	boom := errors.New("shard down")
	okNet, err := core.New(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New([]Shard{&syncShard{net: okNet}, &failShard{l: 8, boom: boom}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := c.Inputs()
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	for i := range src {
		src[i] = core.Word{Addr: i, Data: uint64(i)}
	}
	if err := c.Route(context.Background(), dst, src); !errors.Is(err, boom) {
		t.Fatalf("Route with failing shard: got %v, want %v", err, boom)
	}
}

// misShard returns words with the wrong local address.
type misShard struct{ l int }

func (s *misShard) Inputs() int { return s.l }

func (s *misShard) RouteInto(dst, src []core.Word) error {
	copy(dst, src) // no routing: addresses land at the wrong ports
	return nil
}

func TestRouteMisdelivery(t *testing.T) {
	c, err := New([]Shard{&misShard{l: 8}, &misShard{l: 8}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n := c.Inputs()
	rng := rand.New(rand.NewSource(9))
	p := rng.Perm(n)
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	for i := range src {
		src[i] = core.Word{Addr: p[i]}
	}
	if err := c.Route(context.Background(), dst, src); !errors.Is(err, neterr.ErrMisrouted) {
		t.Fatalf("misrouting shard: got %v, want ErrMisrouted", err)
	}
}

func TestNewRejectsMismatchedShards(t *testing.T) {
	a, _ := core.New(3, 64)
	b, _ := core.New(4, 64)
	if _, err := New([]Shard{&syncShard{net: a}, &syncShard{net: b}}); err == nil {
		t.Fatal("mismatched shard sizes accepted")
	}
	if _, err := New(nil); err == nil {
		t.Fatal("empty shard set accepted")
	}
	if _, err := New([]Shard{&failShard{l: 6}, &failShard{l: 6}}); err == nil {
		t.Fatal("6-port shards accepted; local port counts must be powers of two")
	}
}

// TestAggregate16K is the scale acceptance check: route N = 2^14
// aggregate ports from 16 shards of 1024 ports each, verified against
// direct application of the permutation.
func TestAggregate16K(t *testing.T) {
	if testing.Short() {
		t.Skip("large aggregate route in -short mode")
	}
	c := newTestCoordinator(t, 16, 10)
	n := c.Inputs()
	if n != 1<<14 {
		t.Fatalf("aggregate ports = %d, want %d", n, 1<<14)
	}
	pr := perm.Random(n, rand.New(rand.NewSource(42)))
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	for i := range src {
		src[i] = core.Word{Addr: pr[i], Data: uint64(i)}
	}
	if err := c.Route(context.Background(), dst, src); err != nil {
		t.Fatalf("Route: %v", err)
	}
	for i, d := range pr {
		if dst[d].Addr != d || dst[d].Data != uint64(i) {
			t.Fatalf("dst[%d] = %+v, want {%d %d}", d, dst[d], d, i)
		}
	}
}

func TestColoringRegular(t *testing.T) {
	// Directly exercise the colorer on dense multigraphs: s parallel
	// edge bundles between random endpoint pairs still color with s.
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ h, s int }{{1, 4}, {4, 1}, {8, 8}, {16, 5}} {
		// Build an s-regular bipartite multigraph from s random perfect
		// matchings, inserted in shuffled order.
		type edge struct{ u, v int32 }
		var edges []edge
		for k := 0; k < tc.s; k++ {
			p := rng.Perm(tc.h)
			for u, v := range p {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		ec := newEdgeColorer(tc.h, tc.s, len(edges))
		for _, e := range edges {
			if err := ec.insert(e.u, e.v); err != nil {
				t.Fatalf("h=%d s=%d: insert: %v", tc.h, tc.s, err)
			}
		}
		// Proper: no vertex sees a color twice.
		type vc struct{ v, c int32 }
		seen := map[vc]bool{}
		for e := range ec.ends {
			c := ec.color[e]
			for _, v := range ec.ends[e] {
				if seen[vc{v, c}] {
					t.Fatalf("h=%d s=%d: color %d repeated at vertex %d", tc.h, tc.s, c, v)
				}
				seen[vc{v, c}] = true
			}
		}
	}
}
