// Package cluster routes global permutations across a fleet of shards via
// the Baumslag–Annexstein product decomposition.
//
// A permutation on N = S·L ports (S shards of L local ports each) factors
// into three stages:
//
//	stage A   inter-shard exchange at a fixed local column h0
//	stage B   an independent local permutation inside every shard
//	stage C   inter-shard exchange at a fixed local column h1
//
// Writing global port i as (g, h) with g = i/L the shard and h = i%L the
// local port, an element sourced at (g0, h0) and destined for (g1, h1)
// transits an intermediate shard c: stage A moves it (g0,h0) → (c,h0),
// stage B routes it (c,h0) → (c,h1) inside shard c, and stage C moves it
// (c,h1) → (g1,h1). The intermediate shards are chosen by edge coloring
// the bipartite column multigraph (see coloring.go) so that every stage is
// itself a permutation — stage A and C never collide and every shard
// receives exactly one word per local port.
//
// The Coordinator owns the decomposition and both exchanges, and routes
// every shard on the caller's goroutine: a shard is a synchronous router
// (the root package's supervised planes satisfy the interface).
package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/neterr"
)

// Shard is one routing backend serving L local ports. RouteInto routes the
// local batch on the caller's goroutine: on success dst[j] carries the
// word addressed to local port j.
type Shard interface {
	Inputs() int
	RouteInto(dst, src []core.Word) error
}

// Assignment is a compiled product decomposition of one global
// permutation: the inter-shard stages and per-shard local permutations.
// It is immutable after Decompose and safe to replay concurrently.
type Assignment struct {
	// S and L are the shard count and local ports per shard.
	S, L int
	// P is the global permutation this assignment routes (P[i] is the
	// destination of the word sourced at global port i).
	P []int
	// Mid[i] is the intermediate shard transited by the word sourced at
	// global port i.
	Mid []int32
	// Local[c][h0] is the local destination port inside shard c for the
	// word arriving at local port h0 — each row is a permutation of [0,L).
	Local [][]int32
	// Final[c][h1] is the global destination port of the word leaving
	// shard c at local port h1.
	Final [][]int32
}

// Inputs returns the aggregate port count S·L.
func (a *Assignment) Inputs() int { return a.S * a.L }

// newAssignment allocates an assignment of s shards by l ports in four
// objects: the struct, P, one int32 slab behind Mid and every row, and one
// header slab behind Local and Final.
func newAssignment(s, l int) *Assignment {
	n := s * l
	slab := make([]int32, 3*n)
	rows := make([][]int32, 2*s)
	for g := 0; g < s; g++ {
		rows[g] = slab[n+g*l : n+(g+1)*l]
		rows[s+g] = slab[2*n+g*l : 2*n+(g+1)*l]
	}
	return &Assignment{S: s, L: l, P: make([]int, n), Mid: slab[:n], Local: rows[:s], Final: rows[s:]}
}

// scratch is the reusable per-route buffer set: one src and one dst slab
// per shard, the live route's decomposition, and the matching stage's
// working buffers.
type scratch struct {
	src, dst [][]core.Word
	a        *Assignment
	m        matcher
}

// Coordinator scatters global permutations over a fixed set of shards.
// It is safe for concurrent use; membership is immutable (the public
// Cluster type swaps whole Coordinators to change membership).
type Coordinator struct {
	shards  []Shard
	s, l, n int
	pool    sync.Pool
}

// New builds a Coordinator over the given shards. All shards must serve
// the same number of local ports, and that number must be a power of two
// (every family serves 2^m ports), so port arithmetic is shift and mask.
func New(shards []Shard) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	l := shards[0].Inputs()
	if l <= 0 || l&(l-1) != 0 {
		return nil, fmt.Errorf("cluster: shard serves %d ports, want a power of two", l)
	}
	for i, sh := range shards {
		if sh.Inputs() != l {
			return nil, fmt.Errorf("cluster: shard %d serves %d ports, shard 0 serves %d", i, sh.Inputs(), l)
		}
	}
	s := len(shards)
	lbits := uint(0)
	for 1<<lbits < l {
		lbits++
	}
	c := &Coordinator{shards: append([]Shard(nil), shards...), s: s, l: l, n: s * l}
	c.pool.New = func() any {
		sc := &scratch{
			src: make([][]core.Word, s),
			dst: make([][]core.Word, s),
			a:   newAssignment(s, l),
			m:   newMatcher(s, l, lbits),
		}
		for g := 0; g < s; g++ {
			sc.src[g] = make([]core.Word, l)
			sc.dst[g] = make([]core.Word, l)
		}
		return sc
	}
	return c, nil
}

// Inputs returns the aggregate port count.
func (c *Coordinator) Inputs() int { return c.n }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.s }

// Decompose computes the product decomposition of the permutation p
// (p[i] = destination of global port i): the intermediate-shard choice
// (see coloring.go) plus the per-shard local permutations. Only the
// returned Assignment is allocated; the working buffers are pooled.
func (c *Coordinator) Decompose(p []int) (*Assignment, error) {
	if len(p) != c.n {
		return nil, fmt.Errorf("%w: got %d entries, want %d", neterr.ErrBadSize, len(p), c.n)
	}
	a := newAssignment(c.s, c.l)
	copy(a.P, p)
	sc := c.pool.Get().(*scratch)
	err := c.decompose(sc, a)
	c.pool.Put(sc)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// decompose fills a.Mid, a.Local and a.Final from a.P.
func (c *Coordinator) decompose(sc *scratch, a *Assignment) error {
	if err := sc.m.color(a.Mid, a.P); err != nil {
		return err
	}
	lmask := c.l - 1
	for i, d := range a.P {
		mid := a.Mid[i]
		a.Local[mid][i&lmask] = int32(d & lmask)
		a.Final[mid][d&lmask] = int32(d)
	}
	return nil
}

// Route decomposes the permutation carried by the src addresses and routes
// it: dst[j] receives the word addressed to global port j, with its Data
// payload intact. dst may alias src. Every shard routes on the caller's
// goroutine, and the whole route allocates nothing.
func (c *Coordinator) Route(ctx context.Context, dst, src []core.Word) error {
	if len(dst) != c.n || len(src) != c.n {
		return fmt.Errorf("%w: got %d/%d words, want %d", neterr.ErrBadSize, len(src), len(dst), c.n)
	}
	sc := c.pool.Get().(*scratch)
	defer c.pool.Put(sc)
	for i, w := range src {
		sc.a.P[i] = w.Addr
	}
	if err := c.decompose(sc, sc.a); err != nil {
		return err
	}
	return c.routeWith(ctx, dst, src, sc.a, sc)
}

// RouteAssigned replays a previously computed Assignment. The src
// addresses must carry exactly the assignment's permutation; a mismatch
// returns ErrPlanMismatch without routing anything.
func (c *Coordinator) RouteAssigned(ctx context.Context, dst, src []core.Word, a *Assignment) error {
	if a == nil || a.S != c.s || a.L != c.l {
		return fmt.Errorf("%w: assignment shape %dx%d, cluster %dx%d", neterr.ErrPlanMismatch, shapeS(a), shapeL(a), c.s, c.l)
	}
	if len(dst) != c.n || len(src) != c.n {
		return fmt.Errorf("%w: got %d/%d words, want %d", neterr.ErrBadSize, len(src), len(dst), c.n)
	}
	for i, w := range src {
		if w.Addr != a.P[i] {
			return fmt.Errorf("%w: src[%d] addressed to %d, assignment expects %d", neterr.ErrPlanMismatch, i, w.Addr, a.P[i])
		}
	}
	sc := c.pool.Get().(*scratch)
	defer c.pool.Put(sc)
	return c.routeWith(ctx, dst, src, a, sc)
}

func shapeS(a *Assignment) int {
	if a == nil {
		return 0
	}
	return a.S
}

func shapeL(a *Assignment) int {
	if a == nil {
		return 0
	}
	return a.L
}

// routeWith runs the three stages: scatter (stage A reshuffle into
// per-shard batches), shard routing (stage B, shard g then shard g+1 on
// this goroutine), and the final exchange (stage C) into dst.
func (c *Coordinator) routeWith(ctx context.Context, dst, src []core.Word, a *Assignment, sc *scratch) error {
	// Stage A: the word sourced at global port i = (g0,h0) lands in its
	// intermediate shard's batch at the same column h0, readdressed to its
	// stage-B local destination. Reads of src complete before any write to
	// dst, so dst may alias src.
	lmask := c.l - 1
	for i := range src {
		mid := a.Mid[i]
		h0 := i & lmask
		sc.src[mid][h0] = core.Word{Addr: int(a.Local[mid][h0]), Data: src[i].Data}
	}

	// Stage B: a cancelled context stops the route before the next shard.
	for g, sh := range c.shards {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: before shard %d: %w", g, err)
		}
		if err := sh.RouteInto(sc.dst[g], sc.src[g]); err != nil {
			return fmt.Errorf("cluster: shard %d: %w", g, err)
		}
	}

	// Stage C: the word leaving shard c at column h1 belongs at global
	// port Final[c][h1]; restore the global address and deliver.
	for g := 0; g < c.s; g++ {
		fin := a.Final[g]
		sd := sc.dst[g]
		for h1, w := range sd {
			if w.Addr != h1 {
				return fmt.Errorf("%w: shard %d delivered address %d at port %d", neterr.ErrMisrouted, g, w.Addr, h1)
			}
			d := int(fin[h1])
			dst[d] = core.Word{Addr: d, Data: w.Data}
		}
	}
	return nil
}
