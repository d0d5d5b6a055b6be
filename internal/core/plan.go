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
// both run the one routing kernel through its Override hook, whose
// controls already are one whole column in the Plan's layout: Compile
// copies each column into the plan, and ReplayWired loads it back — the
// slow reference that proves the wire map and the bitset image agree.

import (
	"fmt"
	"slices"

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
	// key is AddrHash of the compiled permutation's words, the plan
	// cache's key, recorded once at compile.
	key uint64
	// cols is the bitset image of every switch column, columnWords(m)
	// words each, column colIndex(m,i,j) holding nested column j of main
	// stage i: bit k is the exchange state of global switch k of that
	// column (0 <= k < N/2), packed 64 per word.
	cols []uint64
	// wire is the end-to-end wire map: wire[j] is the input index whose word
	// exits on output j. It is the plan's only copy of the permutation:
	// input wire[j] is addressed to j.
	wire []int32
}

// FNV-1a parameters of AddrHash.
const hashOffset, hashPrime = 14695981039346656037, 1099511628211

// AddrHash is the FNV-1a hash of a batch's destination address sequence:
// the plan cache's key and the plane supervisor's request fingerprint. A
// Plan records the hash of its own permutation (Key). Alloc-free.
func AddrHash(src []Word) uint64 {
	h := uint64(hashOffset)
	for _, wd := range src {
		h ^= uint64(wd.Addr)
		h *= hashPrime
	}
	return h
}

// colIndex flattens the (main stage, nested column) coordinates: main stage i
// contributes m-i columns, so stage i starts at i*m - i*(i-1)/2.
func colIndex(m, i, j int) int { return i*m - i*(i-1)/2 + j }

// columnWords returns the words one packed switch column of an order-m
// network takes: its N/2 switches, 64 per word.
func columnWords(m int) int { return (1<<uint(m)/2 + 63) / 64 }

// column returns the bitset of nested column j of main stage i.
func (pl *Plan) column(i, j int) []uint64 {
	w := columnWords(pl.m)
	c := colIndex(pl.m, i, j)
	return pl.cols[c*w : (c+1)*w]
}

// M returns the order of the network the plan was compiled on.
func (pl *Plan) M() int { return pl.m }

// Inputs returns the port count N = 2^m of the plan.
func (pl *Plan) Inputs() int { return 1 << uint(pl.m) }

// Perm returns the compiled permutation, inverted from the wire map.
func (pl *Plan) Perm() perm.Perm {
	out := make(perm.Perm, len(pl.wire))
	for j, i := range pl.wire {
		out[i] = j
	}
	return out
}

// Key returns AddrHash of the words that offer the compiled permutation,
// recorded at compile.
func (pl *Plan) Key() uint64 { return pl.key }

// Matches reports whether src offers the compiled permutation: N words
// with src[wire[j]].Addr == j for every output j. It copies nothing.
func (pl *Plan) Matches(src []Word) bool {
	return len(src) == len(pl.wire) && pl.mismatch(src) < 0
}

// mismatch returns the first output j whose wired word src[wire[j]] is not
// addressed to j, or -1 when src offers the compiled permutation. src must
// hold N words.
func (pl *Plan) mismatch(src []Word) int {
	for j, i := range pl.wire {
		if src[i].Addr != j {
			return j
		}
	}
	return -1
}

// Equal reports whether two plans compiled the same permutation: their
// wire maps agree.
func (pl *Plan) Equal(o *Plan) bool { return slices.Equal(pl.wire, o.wire) }

// SwitchCount returns the number of recorded switch decisions,
// (N/2)·(1/2)m(m+1): one per 2x2 switch of the one-bit control plane.
func (pl *Plan) SwitchCount() int {
	return (pl.Inputs() / 2) * pl.m * (pl.m + 1) / 2
}

// Control reads one recorded switch state: the exchange bit of global switch
// k (0 <= k < N/2) in nested column j of main stage i — the coordinate
// system of the kernel's Override hook.
func (pl *Plan) Control(i, j, k int) bool {
	return pl.column(i, j)[k>>6]&(1<<uint(k&63)) != 0
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
	sc := n.pool.Get().(*scratch)
	defer n.release(sc)
	for i, d := range p {
		sc.words[i] = Word{Addr: d}
	}
	if err := sc.load(sc.words); err != nil {
		return nil, err
	}
	pl := &Plan{
		m:    n.m,
		key:  AddrHash(sc.words),
		cols: make([]uint64, columnWords(n.m)*n.m*(n.m+1)/2),
		wire: make([]int32, N),
	}
	sc.cols = pl.cols
	if err := n.pass(sc, sc.record); err != nil {
		return nil, err
	}
	sc.unpack()
	for j, a := range sc.addr[:N] {
		if int(a) != j {
			return nil, fmt.Errorf("bnb: internal error: compile pass misdelivered %d to %d", a, j)
		}
	}
	copy(pl.wire, sc.inv)
	return pl, nil
}

// Replay routes src into dst along a compiled plan — pure wire-following,
// zero heap allocations when dst and src are distinct slices. The source
// addresses must match the plan's permutation (Matches); a mismatched batch
// fails with ErrPlanMismatch, naming an input whose address is wrong,
// instead of misdelivering. dst may be the same slice as src (the replay
// then stages through pooled scratch) but must not partially overlap it.
// Safe for concurrent use.
func (n *Network) Replay(pl *Plan, dst, src []Word) error {
	if pl == nil {
		return fmt.Errorf("bnb: nil plan")
	}
	if pl.m != n.m {
		return fmt.Errorf("bnb: plan compiled for order %d, network has order %d: %w", pl.m, n.m, neterr.ErrPlanMismatch)
	}
	if err := n.checkSizes(dst, src); err != nil {
		return err
	}
	if j := pl.mismatch(src); j >= 0 {
		i := pl.wire[j]
		return fmt.Errorf("bnb: input %d addressed to %d, plan expects %d: %w",
			i, src[i].Addr, j, neterr.ErrPlanMismatch)
	}
	if &dst[0] == &src[0] {
		sc := n.pool.Get().(*scratch)
		copy(sc.words, src)
		applyWire(dst, sc.words, pl.wire)
		n.pool.Put(sc)
		return nil
	}
	applyWire(dst, src, pl.wire)
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
	load := func(mainStage, column int, controls []uint64) {
		copy(controls, pl.column(mainStage, column))
	}
	out := make([]Word, n.Inputs())
	if err := n.routeInto(out, words, load); err != nil {
		return nil, err
	}
	return out, nil
}
