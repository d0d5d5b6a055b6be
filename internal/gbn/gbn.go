// Package gbn implements the Generalized Baseline Network of Lee & Lu's
// Definition 2: an N = 2^m input, m-stage network in which stage-i holds 2^i
// switching boxes of size 2^{m-i} x 2^{m-i}, and stage-i outputs feed
// stage-(i+1) inputs through the 2^{m-i}-unshuffle connection U_{m-i}^m.
//
// The package supplies the pure topology — box geometry, inter-stage wiring,
// and the one evaluator, RunInPlace, that pushes a payload vector through the
// stages with caller-provided switching-box behaviour. The bit-sorter network
// instantiates the boxes with splitters; the BNB main network instantiates
// them with whole nested GBNs.
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

// ChildBoxes returns the indices of the two stage-(i+1) boxes fed by stage-i
// box l: the even outputs of box l go to the upper child (2l), the odd
// outputs to the lower child (2l+1). This is the recursion of the baseline
// construction.
func (t Topology) ChildBoxes(i, l int) (upper, lower int) {
	t.checkStage(i)
	if i == t.m-1 {
		panic("gbn: final stage has no children")
	}
	if l < 0 || l >= t.BoxesInStage(i) {
		panic(fmt.Sprintf("gbn: box %d out of range in stage %d", l, i))
	}
	return 2 * l, 2*l + 1
}

// LocalRoute maps a local output port of a stage-i box to its destination
// within the stage's child boxes: port offset o (0 <= o < BoxSize(i)) of any
// stage-i box lands in child 0 (upper) at offset o/2 when o is even, and in
// child 1 (lower) at offset (o-1)/2 when o is odd. This is the block-local
// view of the unshuffle connection.
func (t Topology) LocalRoute(i, o int) (child, offset int) {
	t.checkStage(i)
	if i == t.m-1 {
		panic("gbn: final stage has no children")
	}
	size := t.BoxSize(i)
	if o < 0 || o >= size {
		panic(fmt.Sprintf("gbn: port offset %d out of range [0,%d)", o, size))
	}
	if o%2 == 0 {
		return 0, o / 2
	}
	return 1, (o - 1) / 2
}

// Box identifies a switching box within the topology.
type Box struct {
	// Stage is the stage index, 0 <= Stage < m.
	Stage int
	// Index is the box position within the stage, 0 <= Index < 2^Stage.
	Index int
}

// Boxes enumerates every switching box of the topology, stage by stage.
func (t Topology) Boxes() []Box {
	var boxes []Box
	for i := 0; i < t.m; i++ {
		for l := 0; l < t.BoxesInStage(i); l++ {
			boxes = append(boxes, Box{Stage: i, Index: l})
		}
	}
	return boxes
}

// FirstLine returns the global line index of the first port of the given box.
func (t Topology) FirstLine(b Box) int {
	t.checkStage(b.Stage)
	return b.Index * t.BoxSize(b.Stage)
}

// StageRouter provides the behaviour of the switching boxes for RunInPlace:
// RouteStage permutes, in place, the lines of every box of one stage — box
// l of stage i holds lines[l·BoxSize(i) : (l+1)·BoxSize(i)], counting the
// boxes of side-by-side copies in line order — so a router can evaluate a
// whole column in one call. On failure it reports the index of the box
// that failed, which RunInPlace names in the error. Implementations must
// not grow or shrink the slice.
type StageRouter[T any] interface {
	RouteStage(stage int, lines []T) (failedBox int, err error)
}

// RunInPlace pushes cur through every stage of the topology: each stage's
// boxes are routed in place by r, and the stage outputs are rewired to the
// next stage through the unshuffle connection, using tmp (at least as long)
// as the rewiring buffer. cur may hold several copies of the network side
// by side — len(cur) any positive multiple of Inputs() — and each copy is
// then routed exactly as it would be alone: the unshuffle of a stage of
// 2^k-line boxes rewires each 2^k-line block within itself, so copies never
// exchange lines, and each call to r covers that stage in every copy. The
// final output is left in cur; tmp's contents are unspecified afterwards.
// Neither slice is allocated or retained, so callers can recycle both
// across routes — this is the engine hot path.
func RunInPlace[T any](t Topology, cur, tmp []T, r StageRouter[T]) error {
	n := len(cur)
	if n == 0 || n%t.Inputs() != 0 {
		return fmt.Errorf("gbn: got %d inputs, want a positive multiple of %d", n, t.Inputs())
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
