package core

// Compiled route plans: one self-routing pass over the arbiter tree is
// recorded as an immutable bitset image of every switch column plus the
// derived end-to-end wire map, and subsequent batches of the same
// permutation replay the plan as pure wire-following — no arbiters, no
// address decoding. This is the compile-once/replay-many operating mode the
// KR-Beneš line of work frames as the control-cost tradeoff of
// rearrangeable networks (DESIGN.md §12): the compile costs one full BNB
// route, and every replay costs a single gather over the wire map.
//
// The Plan packs the switch decisions 64 per word and carries the wire map
// so the hot path never walks the stages at all. Compile and ReplayWired
// both run the one routing kernel through its Override hook, whose controls
// already use the Plan's column layout: Compile copies each nested
// network's controls into its column, and ReplayWired loads them back from
// the bitsets, the slow reference that proves the wire map and the bitset
// image agree.

import (
	"fmt"

	"repro/internal/neterr"
	"repro/internal/perm"
)

// Plan is an immutable compiled switch-setting plan for one permutation: the
// bitset image of every switch column (the hardware's switch states, one bit
// per 2x2 switch) and the derived wire map. A Plan is created by Compile,
// never mutated afterwards, and safe for concurrent use by any number of
// replays.
type Plan struct {
	m int
	// p is the compiled permutation: input i exits on output p[i].
	p perm.Perm
	// cols[colIndex(m,i,j)] is the bitset of nested column j in main stage i;
	// bit k is the exchange state of global switch k of that column
	// (0 <= k < N/2), packed 64 per word. The columns share one backing
	// array.
	cols [][]uint64
	// wire is the end-to-end wire map: wire[j] is the input index whose word
	// exits on output j (wire[p[i]] == i).
	wire []int32
}

// colIndex flattens the (main stage, nested column) coordinates: main stage i
// contributes m-i columns, so stage i starts at i*m - i*(i-1)/2.
func colIndex(m, i, j int) int { return i*m - i*(i-1)/2 + j }

// The Override hook hands over one nested network's n switches (a power of
// two) starting at global switch base, a multiple of n: whole words when
// n >= 64, otherwise n bits inside one word of the column.

// storeControls copies a nested network's controls into its column.
func storeControls(col []uint64, base, n int, controls []uint64) {
	if n >= 64 {
		copy(col[base>>6:], controls[:n>>6])
		return
	}
	col[base>>6] |= controls[0] << uint(base&63)
}

// loadControls reads a nested network's controls back from its column.
func loadControls(controls, col []uint64, base, n int) {
	if n >= 64 {
		copy(controls[:n>>6], col[base>>6:])
		return
	}
	controls[0] = col[base>>6] >> uint(base&63) & (1<<uint(n) - 1)
}

// M returns the order of the network the plan was compiled on.
func (pl *Plan) M() int { return pl.m }

// Inputs returns the port count N = 2^m of the plan.
func (pl *Plan) Inputs() int { return 1 << uint(pl.m) }

// Perm returns a copy of the compiled permutation.
func (pl *Plan) Perm() perm.Perm {
	out := make(perm.Perm, len(pl.p))
	copy(out, pl.p)
	return out
}

// SwitchCount returns the number of recorded switch decisions,
// (N/2)·(1/2)m(m+1): one per 2x2 switch of the one-bit control plane.
func (pl *Plan) SwitchCount() int {
	return (pl.Inputs() / 2) * pl.m * (pl.m + 1) / 2
}

// Control reads one recorded switch state: the exchange bit of global switch
// k (0 <= k < N/2) in nested column j of main stage i — the coordinate
// system of the kernel's Override hook.
func (pl *Plan) Control(i, j, k int) bool {
	return pl.cols[colIndex(pl.m, i, j)][k>>6]&(1<<uint(k&63)) != 0
}

// Compile runs the self-routing control plane once for the permutation and
// records every switch decision into a fresh Plan. The compile pass is one
// full BNB route (arbiter trees and all); replays of the returned plan skip
// all of it. Safe for concurrent use.
func (n *Network) Compile(p perm.Perm) (*Plan, error) {
	N := n.Inputs()
	if len(p) != N {
		return nil, fmt.Errorf("bnb: permutation length %d, want %d: %w", len(p), N, neterr.ErrBadSize)
	}
	pl := &Plan{
		m:    n.m,
		p:    make(perm.Perm, N),
		cols: make([][]uint64, n.m*(n.m+1)/2),
		wire: make([]int32, N),
	}
	copy(pl.p, p)
	w := (N/2 + 63) / 64
	backing := make([]uint64, w*len(pl.cols))
	for c := range pl.cols {
		pl.cols[c] = backing[c*w : (c+1)*w : (c+1)*w]
	}
	words := make([]Word, N)
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	record := func(mainStage, column, switchBase int, controls []uint64, lines []Word) {
		storeControls(pl.cols[colIndex(n.m, mainStage, column)], switchBase, len(lines)/2, controls)
	}
	if err := n.routeInto(words, words, record); err != nil {
		return nil, err
	}
	for j, wd := range words {
		if wd.Addr != j {
			return nil, fmt.Errorf("bnb: internal error: compile pass misdelivered %d to %d", wd.Addr, j)
		}
		pl.wire[j] = int32(wd.Data)
	}
	return pl, nil
}

// Replay routes src into dst along a compiled plan — pure wire-following,
// zero heap allocations when dst and src are distinct slices. The source
// addresses must match the plan's permutation (src[i].Addr == p[i]); a
// mismatched batch fails with ErrPlanMismatch instead of misdelivering. dst
// may be the same slice as src (the replay then stages through pooled
// scratch) but must not partially overlap it. Safe for concurrent use.
func (n *Network) Replay(pl *Plan, dst, src []Word) error {
	if pl == nil {
		return fmt.Errorf("bnb: nil plan")
	}
	if pl.m != n.m {
		return fmt.Errorf("bnb: plan compiled for order %d, network has order %d: %w", pl.m, n.m, neterr.ErrPlanMismatch)
	}
	N := n.Inputs()
	if len(src) != N {
		return fmt.Errorf("bnb: got %d words, want %d: %w", len(src), N, neterr.ErrBadSize)
	}
	if len(dst) != N {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), N, neterr.ErrBadSize)
	}
	for i, wd := range src {
		if wd.Addr != pl.p[i] {
			return fmt.Errorf("bnb: input %d addressed to %d, plan expects %d: %w",
				i, wd.Addr, pl.p[i], neterr.ErrPlanMismatch)
		}
	}
	if &dst[0] == &src[0] {
		sc := n.pool.Get().(*scratch)
		copy(sc.next, src)
		for j, w := range pl.wire {
			dst[j] = sc.next[w]
		}
		n.pool.Put(sc)
		return nil
	}
	for j, w := range pl.wire {
		dst[j] = src[w]
	}
	return nil
}

// ReplayWired replays the plan by driving the words through the routing
// kernel with every switch state loaded from the plan's bitsets instead of
// the splitters' decisions — the slow reference path that proves the wire
// map and the bitset image agree. Because the kernel validates its input,
// the words' addresses must form a permutation; a corrupted bit surfaces as
// a misdelivery or as a splitter rejecting its now-unbalanced input. It
// allocates the result; Replay is the hot path.
func (n *Network) ReplayWired(pl *Plan, words []Word) ([]Word, error) {
	if pl == nil {
		return nil, fmt.Errorf("bnb: nil plan")
	}
	if pl.m != n.m {
		return nil, fmt.Errorf("bnb: plan compiled for order %d, network has order %d: %w", pl.m, n.m, neterr.ErrPlanMismatch)
	}
	load := func(mainStage, column, switchBase int, controls []uint64, lines []Word) {
		loadControls(controls, pl.cols[colIndex(n.m, mainStage, column)], switchBase, len(lines)/2)
	}
	out := make([]Word, n.Inputs())
	if err := n.routeInto(out, words, load); err != nil {
		return nil, err
	}
	return out, nil
}
