package gbn

import (
	"errors"
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

// TestBoxesEnumeration checks that the boxes of every stage — box l of
// stage i holding lines l·BoxSize(i) to (l+1)·BoxSize(i)-1 — partition the
// stage's lines, 1+2+4+8 boxes in all at m = 4.
func TestBoxesEnumeration(t *testing.T) {
	top, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < top.Stages(); i++ {
		covered := make([]bool, top.Inputs())
		for l := 0; l < top.BoxesInStage(i); l++ {
			total++
			first := l * top.BoxSize(i)
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
	if want := 1 + 2 + 4 + 8; total != want {
		t.Fatalf("%d boxes, want %d", total, want)
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

// TestLocalRouteConsistentWithGlobal verifies that the block-local view of
// the baseline recursion — port o of stage-i box l feeds child box 2l+o%2
// of stage i+1 at offset o/2 — agrees with the global unshuffle map.
func TestLocalRouteConsistentWithGlobal(t *testing.T) {
	top, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.Stages()-1; i++ {
		size := top.BoxSize(i)
		childSize := size / 2
		for l := 0; l < top.BoxesInStage(i); l++ {
			for o := 0; o < size; o++ {
				globalIn := top.InterStage(i, l*size+o)
				if box, offset := globalIn/childSize, globalIn%childSize; box != 2*l+o%2 || offset != o/2 {
					t.Fatalf("stage %d box %d port %d: global (%d,%d), local (%d,%d)",
						i, l, o, box, offset, 2*l+o%2, o/2)
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
		half := top.BoxSize(i) / 2
		for o := 0; o < top.BoxSize(i); o++ {
			got := top.InterStage(i, o) // box 0 of stage i
			if o%2 == 0 && got != o/2 {
				t.Fatalf("stage %d: even port %d went to line %d, want %d", i, o, got, o/2)
			}
			if o%2 == 1 && got != half+o/2 {
				t.Fatalf("stage %d: odd port %d went to line %d, want %d", i, o, got, half+o/2)
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
	f   func(stage, box int, lines []int) error
}

func (r boxFunc) RouteStage(stage int, lines []int) (int, error) {
	size := r.top.BoxSize(stage)
	for l := 0; l*size < len(lines); l++ {
		if err := r.f(stage, l, lines[l*size:(l+1)*size]); err != nil {
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
// other than Inputs(), a short rewire buffer, and a box error, which must
// come back wrapped with the failing box's stage and index.
func TestRunValidation(t *testing.T) {
	top, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 7, 12, 16, 20} {
		if err := RunInPlace[int](top, make([]int, n), make([]int, 32), identityRouter[int]{}); err == nil {
			t.Errorf("RunInPlace accepted %d inputs on an 8-input network", n)
		}
	}
	if err := RunInPlace[int](top, make([]int, 8), make([]int, 7), identityRouter[int]{}); err == nil {
		t.Error("RunInPlace accepted a short rewire buffer")
	}
	boom := errors.New("boom")
	failing := boxFunc{top, func(stage, box int, lines []int) error {
		if len(lines) != top.BoxSize(stage) {
			t.Errorf("stage %d box %d got %d lines, want %d", stage, box, len(lines), top.BoxSize(stage))
		}
		if stage == 1 && box == 1 {
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
	mustPanic("InterStage(-1,0)", func() { top.InterStage(-1, 0) })
	mustPanic("BoxOrder(3)", func() { top.BoxOrder(3) })
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
