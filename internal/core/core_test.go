package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/perm"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0); err == nil {
		t.Error("New(0,0) accepted")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("negative data width accepted")
	}
	if _, err := New(3, 65); err == nil {
		t.Error("oversized data width accepted")
	}
	n, err := New(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n.M() != 3 || n.W() != 8 || n.Inputs() != 8 {
		t.Errorf("geometry = (%d,%d,%d)", n.M(), n.W(), n.Inputs())
	}
}

func TestRouteValidation(t *testing.T) {
	n, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Route(make([]Word, 3)); err == nil {
		t.Error("Route accepted wrong word count")
	}
	dup := []Word{{Addr: 0}, {Addr: 0}, {Addr: 1}, {Addr: 2}}
	if _, err := n.Route(dup); err == nil {
		t.Error("Route accepted duplicate destinations")
	}
	oob := []Word{{Addr: 0}, {Addr: 1}, {Addr: 2}, {Addr: 4}}
	if _, err := n.Route(oob); err == nil {
		t.Error("Route accepted out-of-range destination")
	}
}

// TestTheorem2Exhaustive verifies Theorem 2 in full for N = 2, 4 and 8: the
// BNB network self-routes all N! permutations (2 + 24 + 40320 cases).
func TestTheorem2Exhaustive(t *testing.T) {
	for m := 1; m <= 3; m++ {
		n, err := New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		size := n.Inputs()
		count := perm.ForEach(size, func(p perm.Perm) bool {
			out, err := n.RoutePerm(p)
			if err != nil {
				t.Errorf("m=%d perm=%v: %v", m, p, err)
				return false
			}
			if !Delivered(out) {
				t.Errorf("m=%d perm=%v: misrouted to %v", m, p, out)
				return false
			}
			// Data rides with the address: output p[i] must carry data i.
			for i, d := range p {
				if out[d].Data != uint64(i) {
					t.Errorf("m=%d perm=%v: data lost at output %d", m, p, d)
					return false
				}
			}
			return true
		})
		want := 1
		for i := 2; i <= size; i++ {
			want *= i
		}
		if count != want {
			t.Fatalf("m=%d: exhausted %d permutations, want %d", m, count, want)
		}
	}
}

// TestTheorem2Random verifies Theorem 2 on random permutations for orders up
// to N = 1024.
func TestTheorem2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for m := 4; m <= 10; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatal(err)
		}
		trials := 50
		if m >= 9 {
			trials = 10
		}
		for trial := 0; trial < trials; trial++ {
			p := perm.Random(n.Inputs(), rng)
			out, err := n.RoutePerm(p)
			if err != nil {
				t.Fatalf("m=%d trial=%d: %v", m, trial, err)
			}
			if !Delivered(out) {
				t.Fatalf("m=%d trial=%d: misrouted", m, trial)
			}
		}
	}
}

// TestTheorem2Property is the quick-check form of Theorem 2 at N = 256.
func TestTheorem2Property(t *testing.T) {
	n, err := New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		p := perm.Random(n.Inputs(), rand.New(rand.NewSource(seed)))
		out, err := n.RoutePerm(p)
		return err == nil && Delivered(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStructuredFamilies routes every built-in permutation family.
func TestStructuredFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, f := range perm.Families() {
		for _, m := range []int{2, 4, 6} {
			n, err := New(m, 4)
			if err != nil {
				t.Fatal(err)
			}
			p, err := perm.Generate(f, m, rng)
			if err != nil {
				t.Fatalf("Generate(%v,%d): %v", f, m, err)
			}
			out, err := n.RoutePerm(p)
			if err != nil {
				t.Fatalf("family %v m=%d: %v", f, m, err)
			}
			if !Delivered(out) {
				t.Fatalf("family %v m=%d: misrouted", f, m)
			}
		}
	}
}

// TestBPCFamilies routes random bit-permute-complement permutations, the
// classic workload class.
func TestBPCFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, err := New(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		p, err := perm.RandomBPC(6, rng).Perm()
		if err != nil {
			t.Fatal(err)
		}
		out, err := n.RoutePerm(p)
		if err != nil {
			t.Fatal(err)
		}
		if !Delivered(out) {
			t.Fatal("misrouted BPC permutation")
		}
	}
}

// TestDataIntegrity verifies arbitrary payloads survive routing bit-exactly.
func TestDataIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, err := New(5, 64)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Random(n.Inputs(), rng)
	words := make([]Word, n.Inputs())
	payload := make(map[int]uint64)
	for i := range words {
		d := rng.Uint64()
		words[i] = Word{Addr: p[i], Data: d}
		payload[p[i]] = d
	}
	out, err := n.Route(words)
	if err != nil {
		t.Fatal(err)
	}
	for j, wd := range out {
		if wd.Data != payload[j] {
			t.Fatalf("output %d carries %#x, want %#x", j, wd.Data, payload[j])
		}
	}
}

// TestRouteTraced verifies the trace invariant at every main stage boundary:
// after stage i, each block of size 2^{m-i-1} at the next stage's input
// agrees on address bits 0..i (the radix-sort progress invariant from the
// proof of Theorem 2).
func TestRouteTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n, err := New(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := n.M()
	p := perm.Random(n.Inputs(), rng)
	words := make([]Word, n.Inputs())
	for i, d := range p {
		words[i] = Word{Addr: d}
	}
	out, trace, err := n.RouteTraced(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != m+1 {
		t.Fatalf("trace length %d, want %d", len(trace), m+1)
	}
	if !Delivered(out) {
		t.Fatal("misrouted")
	}
	// trace[i+1] is the input to main stage i+1 (or the final output): the
	// words inside each aligned block of size 2^{m-(i+1)} share the high
	// (i+1) address bits, which equal the block index.
	for i := 0; i < m; i++ {
		snap := trace[i+1]
		blockSize := 1 << uint(m-i-1)
		for b := 0; b < len(snap)/blockSize; b++ {
			for o := 0; o < blockSize; o++ {
				got := snap[b*blockSize+o].Addr >> uint(m-i-1)
				if got != b {
					t.Fatalf("after stage %d, block %d offset %d has prefix %b, want %b",
						i, b, o, got, b)
				}
			}
		}
	}
}

// TestWrongBitOrderBreaksRouting is the negative control of DESIGN.md §5:
// radix-sorting LSB-first on the baseline wiring (i.e. feeding the stage-i
// BSN bit m-1-i instead of bit i) must misroute some permutation, showing
// the MSB-first order is load-bearing, not incidental.
func TestWrongBitOrderBreaksRouting(t *testing.T) {
	// Hand-rolled variant: reuse the network but flip the bit each stage
	// sorts by pre-transforming addresses so that stage i sees bit (m-1-i).
	// Reversing the address bits before routing achieves exactly that; the
	// network then delivers to the bit-reversed output. If bit order did not
	// matter, delivery would still satisfy out[j].Addr == j.
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	broken := 0
	perm.ForEach(8, func(p perm.Perm) bool {
		words := make([]Word, 8)
		for i, d := range p {
			rev := ((d & 1) << 2) | (d & 2) | ((d >> 2) & 1)
			words[i] = Word{Addr: rev, Data: uint64(d)}
		}
		out, err := n.Route(words)
		if err != nil {
			t.Fatalf("route failed: %v", err)
		}
		for j, wd := range out {
			if int(wd.Data) != j { // the true destination is Data
				broken++
				return false // one counterexample suffices
			}
		}
		return true
	})
	if broken == 0 {
		t.Error("LSB-first bit order routed every permutation; expected a counterexample")
	}
}

func TestDeliveredHelper(t *testing.T) {
	if !Delivered([]Word{{Addr: 0}, {Addr: 1}}) {
		t.Error("Delivered rejected correct output")
	}
	if Delivered([]Word{{Addr: 1}, {Addr: 0}}) {
		t.Error("Delivered accepted swapped output")
	}
}

func TestRoutePermLengthMismatch(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RoutePerm(perm.Identity(4)); err == nil {
		t.Error("RoutePerm accepted wrong-length permutation")
	}
}

func TestRouteErrorMentionsPermutation(t *testing.T) {
	n, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = n.Route([]Word{{Addr: 1}, {Addr: 1}, {Addr: 2}, {Addr: 3}})
	if err == nil || !strings.Contains(err.Error(), "permutation") {
		t.Errorf("error %v does not explain the permutation requirement", err)
	}
}

// TestCountHardwareSmall pins the structural counts for the paper's running
// example N = 8 (m = 3) with w = 0.
func TestCountHardwareSmall(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := n.CountHardware()
	// Stage 0: 1 nested net of order 3: 3 slices x 12 switches = 36.
	// Stage 1: 2 nested nets of order 2: each 2 slices x 4 switches = 16.
	// Stage 2: 4 nested nets of order 1: each 1 slice x 1 switch = 4.
	if h.Switches != 36+16+4 {
		t.Errorf("Switches = %d, want 56", h.Switches)
	}
	// Function nodes: stage 0 BSN(3) has 13; stage 1: 2 x BSN(2) = 2x3;
	// stage 2: 4 x BSN(1) = 0. Total 19.
	if h.FunctionNodes != 19 {
		t.Errorf("FunctionNodes = %d, want 19", h.FunctionNodes)
	}
	// Splitters: stage 0: 1+2+4 = 7; stage 1: 2x(1+2) = 6; stage 2: 4x1 = 4.
	if h.Splitters != 17 {
		t.Errorf("Splitters = %d, want 17", h.Splitters)
	}
	if h.NestedNetworks != 1+2+4 {
		t.Errorf("NestedNetworks = %d, want 7", h.NestedNetworks)
	}
	// Naive layout carries q = 3 slices everywhere:
	// stage 0: 3x12 = 36; stage 1: 2x3x4 = 24; stage 2: 4x3x1 = 12.
	if h.SwitchesNaive != 72 {
		t.Errorf("SwitchesNaive = %d, want 72", h.SwitchesNaive)
	}
}

// TestMeasureDelaySmall pins the measured critical path for m = 3: switch
// stages 3+2+1 = 6; arbiter levels 2(2+3) from stage 0 plus 2(2) from stage
// 1 = 14.
func TestMeasureDelaySmall(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := n.MeasureDelay()
	if d.SwitchStages != 6 {
		t.Errorf("SwitchStages = %d, want 6", d.SwitchStages)
	}
	if d.FunctionNodeLevels != 14 {
		t.Errorf("FunctionNodeLevels = %d, want 14", d.FunctionNodeLevels)
	}
	if got := d.Total(1, 1); got != 20 {
		t.Errorf("Total(1,1) = %v, want 20", got)
	}
	if got := d.Total(2, 0.5); got != 19 {
		t.Errorf("Total(2,0.5) = %v, want 19", got)
	}
}

// TestHardwareScalesWithW verifies the data-width term of equation (6):
// adding w data bits adds w extra slices per nested network.
func TestHardwareScalesWithW(t *testing.T) {
	for m := 2; m <= 6; m++ {
		n0, err := New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		n8, err := New(m, 8)
		if err != nil {
			t.Fatal(err)
		}
		h0, h8 := n0.CountHardware(), n8.CountHardware()
		// Extra switches = 8 x (switches of one slice summed over nested nets)
		// = 8 x (N/2)(m + m-1 + ... + 1)? No: per nested net of order p the
		// per-slice switch count is (P/2)p; summed over all nested nets this
		// is the coefficient of w in equation (6): (N/4)(log^2 N + log N).
		N := 1 << uint(m)
		wantExtra := 8 * N / 4 * (m*m + m)
		if h8.Switches-h0.Switches != wantExtra {
			t.Errorf("m=%d: switch delta = %d, want %d", m, h8.Switches-h0.Switches, wantExtra)
		}
		// Function nodes are independent of w.
		if h8.FunctionNodes != h0.FunctionNodes {
			t.Errorf("m=%d: function nodes changed with w", m)
		}
	}
}

func TestRouteInputUnmodified(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Reversal(8)
	words := make([]Word, 8)
	for i, d := range p {
		words[i] = Word{Addr: d}
	}
	orig := append([]Word(nil), words...)
	if _, err := n.Route(words); err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if words[i] != orig[i] {
			t.Fatal("Route modified its input")
		}
	}
}

// TestRouteConcurrentUse exercises the documented concurrency contract: one
// immutable Network serving many goroutines.
func TestRouteConcurrentUse(t *testing.T) {
	n, err := New(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 20; trial++ {
				out, err := n.RoutePerm(perm.Random(n.Inputs(), rng))
				if err != nil {
					errs <- err
					return
				}
				if !Delivered(out) {
					errs <- errors.New("misrouted")
					return
				}
			}
			errs <- nil
		}(int64(g))
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkRouteBNB(b *testing.B) {
	for _, m := range []int{6, 8, 10} {
		n, err := New(m, 16)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		p := perm.Random(n.Inputs(), rng)
		words := make([]Word, n.Inputs())
		for i, d := range p {
			words[i] = Word{Addr: d, Data: uint64(i)}
		}
		b.Run(map[int]string{6: "N=64", 8: "N=256", 10: "N=1024"}[m], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := n.Route(words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
