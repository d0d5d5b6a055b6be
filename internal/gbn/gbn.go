// Package gbn implements the Generalized Baseline Network of Lee & Lu's
// Definition 2: an N = 2^m input, m-stage network in which stage-i holds 2^i
// switching boxes of size 2^{m-i} x 2^{m-i}, and stage-i outputs feed
// stage-(i+1) inputs through the 2^{m-i}-unshuffle connection U_{m-i}^m.
//
// The package supplies the pure topology — box geometry and inter-stage
// wiring — and the one evaluator, RunInPlace, that pushes a payload vector
// through the stages with caller-provided switching-box behaviour. The
// bit-sorter network instantiates the boxes with splitters and the
// baseline network with tag-routed switches. The BNB kernel takes only the
// topology from here: it routes its address slices as bit planes, with the
// bitset unshuffle of package wiring as the inter-stage connection.
package gbn

import (
	"fmt"

	"repro/internal/wiring"
)

// Topology describes an N = 2^M input generalized baseline network.
// The zero value is not valid; construct with New.
type Topology struct {
	m int
}

// New constructs the topology of a 2^m-input GBN.
func New(m int) (Topology, error) {
	if err := wiring.CheckOrder(m); err != nil {
		return Topology{}, fmt.Errorf("gbn: %w", err)
	}
	return Topology{m: m}, nil
}

// M returns the network order (the number of stages).
func (t Topology) M() int { return t.m }

// Inputs returns the number of network inputs, N = 2^m.
func (t Topology) Inputs() int { return 1 << uint(t.m) }

// Stages returns the number of switching stages, m.
func (t Topology) Stages() int { return t.m }

// BoxesInStage returns the number of switching boxes in stage i: 2^i.
func (t Topology) BoxesInStage(i int) int {
	t.checkStage(i)
	return 1 << uint(i)
}

// BoxSize returns the number of ports per box in stage i: 2^{m-i}.
func (t Topology) BoxSize(i int) int {
	t.checkStage(i)
	return 1 << uint(t.m-i)
}

// BoxOrder returns log2 of the box size in stage i: m-i. A stage-i box is an
// SB(m-i) in the paper's notation.
func (t Topology) BoxOrder(i int) int {
	t.checkStage(i)
	return t.m - i
}

func (t Topology) checkStage(i int) {
	if i < 0 || i >= t.m {
		panic(fmt.Sprintf("gbn: stage %d out of range [0,%d)", i, t.m))
	}
}

// InterStage returns the global line index at stage i+1 that receives
// stage-i output j: O(i,j) = I(i+1, U_{m-i}^m(j)). It is defined for
// 0 <= i <= m-2.
func (t Topology) InterStage(i, j int) int {
	if i < 0 || i >= t.m-1 {
		panic(fmt.Sprintf("gbn: inter-stage connection %d out of range [0,%d)", i, t.m-1))
	}
	return wiring.Unshuffle(j, t.m-i, t.m)
}

// StageRouter provides the behaviour of the switching boxes for RunInPlace:
// RouteStage permutes, in place, the lines of every box of one stage — box
// l of stage i holds lines[l·BoxSize(i) : (l+1)·BoxSize(i)] — so a router
// can evaluate a whole stage in one call. On failure it reports the index
// of the box that failed, which RunInPlace names in the error.
// Implementations must not grow or shrink the slice.
type StageRouter[T any] interface {
	RouteStage(stage int, lines []T) (failedBox int, err error)
}

// RunInPlace pushes cur, one payload per network input, through every
// stage of the topology: each stage's boxes are routed in place by r, and
// the stage outputs are rewired to the next stage through the unshuffle
// connection, using tmp (at least as long) as the rewiring buffer. The
// final output is left in cur; tmp's contents are unspecified afterwards.
// Neither slice is allocated or retained, so callers can recycle both
// across routes.
func RunInPlace[T any](t Topology, cur, tmp []T, r StageRouter[T]) error {
	n := len(cur)
	if n != t.Inputs() {
		return fmt.Errorf("gbn: got %d inputs, want %d", n, t.Inputs())
	}
	if len(tmp) < n {
		return fmt.Errorf("gbn: rewire buffer length %d, want %d", len(tmp), n)
	}
	a, b := cur, tmp[:n]
	for i := 0; i < t.m; i++ {
		if box, err := r.RouteStage(i, a); err != nil {
			return fmt.Errorf("gbn: stage %d box %d: %w", i, box, err)
		}
		if i == t.m-1 {
			break
		}
		unshuffle(b, a, t.m-i)
		a, b = b, a
	}
	if &a[0] != &cur[0] {
		copy(cur, a)
	}
	return nil
}

// unshuffle applies the connection that follows a stage of 2^k-line boxes,
// the 2^k-unshuffle U_k of every box-sized block: even outputs fill the
// block's upper half and odd outputs its lower half, in order, so
// dst[InterStage(i, j)] = src[j].
func unshuffle[T any](dst, src []T, k int) {
	half := 1 << uint(k-1)
	for base := 0; base+2*half <= len(src); base += 2 * half {
		blk := src[base : base+2*half : base+2*half]
		out := dst[base : base+2*half : base+2*half]
		lo, hi := out[:half:half], out[half:]
		for c := range lo {
			pair := blk[2*c : 2*c+2 : 2*c+2]
			lo[c], hi[c] = pair[0], pair[1]
		}
	}
}

// SwitchCount returns the number of 2x2 switches in one one-bit slice of the
// GBN when every box SB(p) is realized as a primitive sw(p) column of
// 2^{p-1} switches — the quantity (N/2)·log N of the paper's equation (3).
func (t Topology) SwitchCount() int {
	total := 0
	for i := 0; i < t.Stages(); i++ {
		total += t.BoxesInStage(i) * (t.BoxSize(i) / 2)
	}
	return total
}
