package gbn

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/wiring"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(wiring.MaxOrder + 1); err == nil {
		t.Error("New(MaxOrder+1) accepted")
	}
	top, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if top.M() != 3 || top.Inputs() != 8 || top.Stages() != 3 {
		t.Errorf("geometry = (%d,%d,%d)", top.M(), top.Inputs(), top.Stages())
	}
}

// TestFig1Geometry pins the box layout of the paper's Fig. 1: the 8-input
// GBN B(3, SB) has 1 SB(3) in stage 0, 2 SB(2)s in stage 1 and 4 SB(1)s in
// stage 2.
func TestFig1Geometry(t *testing.T) {
	top, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	wantBoxes := []int{1, 2, 4}
	wantSize := []int{8, 4, 2}
	wantOrder := []int{3, 2, 1}
	for i := 0; i < 3; i++ {
		if got := top.BoxesInStage(i); got != wantBoxes[i] {
			t.Errorf("BoxesInStage(%d) = %d, want %d", i, got, wantBoxes[i])
		}
		if got := top.BoxSize(i); got != wantSize[i] {
			t.Errorf("BoxSize(%d) = %d, want %d", i, got, wantSize[i])
		}
		if got := top.BoxOrder(i); got != wantOrder[i] {
			t.Errorf("BoxOrder(%d) = %d, want %d", i, got, wantOrder[i])
		}
	}
}

func TestBoxesEnumeration(t *testing.T) {
	top, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	boxes := top.Boxes()
	want := 1 + 2 + 4 + 8
	if len(boxes) != want {
		t.Fatalf("len(Boxes) = %d, want %d", len(boxes), want)
	}
	// First line offsets partition the stage.
	for i := 0; i < top.Stages(); i++ {
		covered := make([]bool, top.Inputs())
		for l := 0; l < top.BoxesInStage(i); l++ {
			first := top.FirstLine(Box{Stage: i, Index: l})
			for o := 0; o < top.BoxSize(i); o++ {
				if covered[first+o] {
					t.Fatalf("stage %d line %d covered twice", i, first+o)
				}
				covered[first+o] = true
			}
		}
		for j, c := range covered {
			if !c {
				t.Fatalf("stage %d line %d not covered", i, j)
			}
		}
	}
}

// TestInterStageMatchesUnshuffle pins the inter-stage wiring to Definition 1.
func TestInterStageMatchesUnshuffle(t *testing.T) {
	top, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.Stages()-1; i++ {
		for j := 0; j < top.Inputs(); j++ {
			want := wiring.Unshuffle(j, top.M()-i, top.M())
			if got := top.InterStage(i, j); got != want {
				t.Fatalf("InterStage(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

// TestLocalRouteConsistentWithGlobal verifies that the block-local routing
// view (LocalRoute/ChildBoxes) agrees with the global unshuffle map.
func TestLocalRouteConsistentWithGlobal(t *testing.T) {
	top, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.Stages()-1; i++ {
		size := top.BoxSize(i)
		childSize := size / 2
		for l := 0; l < top.BoxesInStage(i); l++ {
			upper, lower := top.ChildBoxes(i, l)
			for o := 0; o < size; o++ {
				child, offset := top.LocalRoute(i, o)
				globalOut := l*size + o
				globalIn := top.InterStage(i, globalOut)
				var wantChildBox int
				if child == 0 {
					wantChildBox = upper
				} else {
					wantChildBox = lower
				}
				gotChildBox := globalIn / childSize
				gotOffset := globalIn % childSize
				if gotChildBox != wantChildBox || gotOffset != offset {
					t.Fatalf("stage %d box %d port %d: local (%d,%d) vs global (%d,%d)",
						i, l, o, wantChildBox, offset, gotChildBox, gotOffset)
				}
			}
		}
	}
}

// TestEvenOddSplit verifies the property Theorem 1's proof leans on: even
// outputs of a box feed its upper child, odd outputs its lower child, in
// order.
func TestEvenOddSplit(t *testing.T) {
	top, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.Stages()-1; i++ {
		for o := 0; o < top.BoxSize(i); o++ {
			child, offset := top.LocalRoute(i, o)
			if o%2 == 0 {
				if child != 0 || offset != o/2 {
					t.Fatalf("even port %d went to (%d,%d)", o, child, offset)
				}
			} else {
				if child != 1 || offset != (o-1)/2 {
					t.Fatalf("odd port %d went to (%d,%d)", o, child, offset)
				}
			}
		}
	}
}

// identityRouter routes every box straight through.
type identityRouter[T any] struct{}

func (identityRouter[T]) RouteStage(int, []T) (int, error) { return 0, nil }

// boxFunc adapts a per-box function to StageRouter.
type boxFunc struct {
	top Topology
	f   func(box Box, lines []int) error
}

func (r boxFunc) RouteStage(stage int, lines []int) (int, error) {
	size := r.top.BoxSize(stage)
	for l := 0; l*size < len(lines); l++ {
		if err := r.f(Box{Stage: stage, Index: l}, lines[l*size:(l+1)*size]); err != nil {
			return l, err
		}
	}
	return 0, nil
}

// lineLabels returns the vector 0, 1, ..., n-1.
func lineLabels(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	return in
}

// TestRunIdentityIsBaselinePermutation pushes line labels through an
// all-straight network; the result must equal the composition of the
// inter-stage unshuffles, i.e. the baseline network's inherent wiring
// permutation. Orders of both parities check that the output lands back in
// cur whichever buffer the last stage wrote.
func TestRunIdentityIsBaselinePermutation(t *testing.T) {
	for m := 1; m <= 8; m++ {
		top, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		n := top.Inputs()
		out := lineLabels(n)
		if err := RunInPlace[int](top, out, make([]int, n), identityRouter[int]{}); err != nil {
			t.Fatal(err)
		}
		// Compute the expected wiring permutation directly.
		want := lineLabels(n)
		for s := 0; s < top.Stages()-1; s++ {
			next := make([]int, n)
			for j := 0; j < n; j++ {
				next[top.InterStage(s, j)] = want[j]
			}
			want = next
		}
		for j := 0; j < n; j++ {
			if out[j] != want[j] {
				t.Fatalf("m=%d: out[%d] = %d, want %d", m, j, out[j], want[j])
			}
		}
	}
}

// TestRunBaselineWiringIsBitReversal verifies the classic fact that the
// composition of the baseline inter-stage unshuffles is the bit-reversal
// permutation: with all switches straight, input i exits at bit-reverse(i).
func TestRunBaselineWiringIsBitReversal(t *testing.T) {
	for m := 1; m <= 8; m++ {
		top, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		out := lineLabels(top.Inputs())
		if err := RunInPlace[int](top, out, make([]int, top.Inputs()), identityRouter[int]{}); err != nil {
			t.Fatal(err)
		}
		for pos, v := range out {
			if wiring.ReverseBits(v, m) != pos {
				t.Fatalf("m=%d: input %d exited at %d, not at its bit reversal %d",
					m, v, pos, wiring.ReverseBits(v, m))
			}
		}
	}
}

// TestRunValidation covers every refusal of RunInPlace: an input length
// that is not a positive multiple of Inputs() (side-by-side copies must be
// whole), a short rewire buffer, and a box error, which must come back
// wrapped with the failing box's stage and index.
func TestRunValidation(t *testing.T) {
	top, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 7, 12, 20} {
		if err := RunInPlace[int](top, make([]int, n), make([]int, 32), identityRouter[int]{}); err == nil {
			t.Errorf("RunInPlace accepted %d inputs on an 8-input network", n)
		}
	}
	if err := RunInPlace[int](top, make([]int, 8), make([]int, 7), identityRouter[int]{}); err == nil {
		t.Error("RunInPlace accepted a short rewire buffer")
	}
	if err := RunInPlace[int](top, make([]int, 16), make([]int, 8), identityRouter[int]{}); err == nil {
		t.Error("RunInPlace accepted a rewire buffer shorter than two copies")
	}
	boom := errors.New("boom")
	failing := boxFunc{top, func(b Box, lines []int) error {
		if len(lines) != top.BoxSize(b.Stage) {
			t.Errorf("box %+v got %d lines, want %d", b, len(lines), top.BoxSize(b.Stage))
		}
		if b.Stage == 1 && b.Index == 1 {
			return boom
		}
		return nil
	}}
	err = RunInPlace[int](top, make([]int, 8), make([]int, 8), failing)
	if !errors.Is(err, boom) {
		t.Fatalf("RunInPlace returned %v, want the box error", err)
	}
	if !strings.Contains(err.Error(), "stage 1 box 1") {
		t.Errorf("box error %q lacks its stage 1 box 1 context", err)
	}
}

// rotateRouter rotates every box of a stage by an amount drawn from its
// first line's label, so the output depends on every stage and rewire; a
// label listed in fail makes its box fail.
type rotateRouter struct {
	top  Topology
	fail map[int]bool
}

func (r rotateRouter) RouteStage(stage int, lines []int) (int, error) {
	size := r.top.BoxSize(stage)
	for l := 0; l*size < len(lines); l++ {
		box := lines[l*size : (l+1)*size]
		if r.fail[box[0]] {
			return l, fmt.Errorf("label %d", box[0])
		}
		k := (box[0]*7 + stage) % size
		rot := append(append([]int(nil), box[k:]...), box[:k]...)
		copy(box, rot)
	}
	return 0, nil
}

// TestRunSideBySideCopies routes several copies of a network side by side
// and requires each copy's output to equal a run of that copy alone, and a
// failing box to be named by its index across the copies.
func TestRunSideBySideCopies(t *testing.T) {
	for m := 1; m <= 6; m++ {
		top, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		n := top.Inputs()
		for _, copies := range []int{1, 2, 3, 8} {
			r := rotateRouter{top: top}
			all := lineLabels(copies * n)
			if err := RunInPlace[int](top, all, make([]int, copies*n), r); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < copies; c++ {
				alone := lineLabels(copies * n)[c*n : (c+1)*n]
				if err := RunInPlace[int](top, alone, make([]int, n), r); err != nil {
					t.Fatal(err)
				}
				for j, v := range alone {
					if all[c*n+j] != v {
						t.Fatalf("m=%d %d copies: copy %d line %d = %d side by side, %d alone", m, copies, c, j, all[c*n+j], v)
					}
				}
			}
		}
	}
	// Four 8-line copies: stage 0 has one box per copy, and label 16 opens
	// copy 2's, so the runner must name box 2.
	top, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	err = RunInPlace[int](top, lineLabels(32), make([]int, 32), rotateRouter{top: top, fail: map[int]bool{16: true}})
	if err == nil || err.Error() != "gbn: stage 0 box 2: label 16" {
		t.Fatalf("failing copy reported as %v, want stage 0 box 2", err)
	}
}

func TestSwitchCount(t *testing.T) {
	// One-bit slice GBN with primitive switches has (N/2) log N switches.
	for m := 1; m <= 10; m++ {
		top, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		n := top.Inputs()
		want := n / 2 * m
		if got := top.SwitchCount(); got != want {
			t.Errorf("m=%d: SwitchCount = %d, want %d", m, got, want)
		}
	}
}

func TestPanicsOnBadStage(t *testing.T) {
	top, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("BoxesInStage(-1)", func() { top.BoxesInStage(-1) })
	mustPanic("BoxSize(3)", func() { top.BoxSize(3) })
	mustPanic("InterStage(2,0)", func() { top.InterStage(2, 0) })
	mustPanic("LocalRoute final stage", func() { top.LocalRoute(2, 0) })
	mustPanic("LocalRoute bad port", func() { top.LocalRoute(0, 8) })
	mustPanic("ChildBoxes final stage", func() { top.ChildBoxes(2, 0) })
	mustPanic("ChildBoxes bad box", func() { top.ChildBoxes(0, 1) })
}

func BenchmarkRun1024(b *testing.B) {
	top, err := New(10)
	if err != nil {
		b.Fatal(err)
	}
	cur, tmp := lineLabels(top.Inputs()), make([]int, top.Inputs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunInPlace[int](top, cur, tmp, identityRouter[int]{}); err != nil {
			b.Fatal(err)
		}
	}
}
