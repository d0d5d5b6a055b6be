package splitter

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	s, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.P() != 4 || s.Inputs() != 16 || s.Switches() != 8 {
		t.Errorf("geometry = (%d,%d,%d), want (4,16,8)", s.P(), s.Inputs(), s.Switches())
	}
}

func TestComponentCounts(t *testing.T) {
	tests := []struct {
		p, switches, nodes, critical int
	}{
		{1, 1, 0, 0},
		{2, 2, 3, 4},
		{3, 4, 7, 6},
		{4, 8, 15, 8},
		{8, 128, 255, 16},
	}
	for _, tt := range tests {
		s, err := New(tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if s.Switches() != tt.switches {
			t.Errorf("sp(%d).Switches() = %d, want %d", tt.p, s.Switches(), tt.switches)
		}
		if s.ArbiterNodes() != tt.nodes {
			t.Errorf("sp(%d).ArbiterNodes() = %d, want %d", tt.p, s.ArbiterNodes(), tt.nodes)
		}
		if s.CriticalPath() != tt.critical {
			t.Errorf("sp(%d).CriticalPath() = %d, want %d", tt.p, s.CriticalPath(), tt.critical)
		}
	}
}

func TestSp1RoutesByBit(t *testing.T) {
	s, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	// Definition 3, p = 1: the 0 goes to output 0 and the 1 to output 1.
	for _, in := range [][]uint8{{0, 1}, {1, 0}} {
		out, controls, err := s.RouteBits(in)
		if err != nil {
			t.Fatalf("RouteBits(%v): %v", in, err)
		}
		if out[0] != 0 || out[1] != 1 {
			t.Errorf("sp(1).RouteBits(%v) = %v, want [0 1]", in, out)
		}
		wantExchange := in[0] == 1
		if controls[0] != wantExchange {
			t.Errorf("sp(1) control for %v = %v, want %v", in, controls[0], wantExchange)
		}
	}
}

func TestSp1RejectsEqualInputs(t *testing.T) {
	s, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]uint8{{0, 0}, {1, 1}} {
		if _, _, err := s.RouteBits(in); err == nil {
			t.Errorf("sp(1).RouteBits(%v) accepted equal inputs", in)
		}
	}
}

func TestControlsValidation(t *testing.T) {
	s, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Controls([]uint8{0, 1}); err == nil {
		t.Error("Controls accepted wrong length")
	}
	if _, err := s.Controls([]uint8{1, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("Controls accepted odd number of 1s")
	}
}

// TestTheorem3Exhaustive verifies M_e(out) == M_o(out) for every even-weight
// input of sp(2), sp(3), sp(4) — the full claim of Theorem 3.
func TestTheorem3Exhaustive(t *testing.T) {
	for p := 2; p <= 4; p++ {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		n := s.Inputs()
		checked := 0
		for mask := 0; mask < 1<<uint(n); mask++ {
			if bits.OnesCount(uint(mask))%2 != 0 {
				continue
			}
			in := make([]uint8, n)
			for i := range in {
				in[i] = uint8(mask >> uint(i) & 1)
			}
			out, _, err := s.RouteBits(in)
			if err != nil {
				t.Fatalf("p=%d mask=%b: %v", p, mask, err)
			}
			even, odd := Balance(out)
			if even != odd {
				t.Fatalf("p=%d mask=%b: M_e=%d M_o=%d out=%v", p, mask, even, odd, out)
			}
			// The splitter permutes its inputs: total weight is conserved.
			inEven, inOdd := Balance(in)
			if even+odd != inEven+inOdd {
				t.Fatalf("p=%d mask=%b: weight not conserved", p, mask)
			}
			checked++
		}
		if checked != 1<<uint(n-1) {
			t.Fatalf("p=%d: checked %d inputs, want %d", p, checked, 1<<uint(n-1))
		}
	}
}

// TestTheorem3Property checks the balance invariant on large splitters with
// random even-weight inputs via testing/quick.
func TestTheorem3Property(t *testing.T) {
	s, err := New(9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]uint8, s.Inputs())
		ones := 0
		for i := range in {
			in[i] = uint8(rng.Intn(2))
			ones += int(in[i])
		}
		if ones%2 == 1 {
			in[rng.Intn(len(in))] ^= 1
		}
		out, _, err := s.RouteBits(in)
		if err != nil {
			return false
		}
		even, odd := Balance(out)
		return even == odd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSwitchSemantics verifies each 2x2 switch either passes straight or
// exchanges — the output multiset of each switch equals its input pair.
func TestSwitchSemantics(t *testing.T) {
	s, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		in := make([]uint8, s.Inputs())
		ones := 0
		for i := range in {
			in[i] = uint8(rng.Intn(2))
			ones += int(in[i])
		}
		if ones%2 == 1 {
			in[0] ^= 1
		}
		out, controls, err := s.RouteBits(in)
		if err != nil {
			t.Fatal(err)
		}
		for sw := 0; sw < s.Switches(); sw++ {
			a, b := in[2*sw], in[2*sw+1]
			x, y := out[2*sw], out[2*sw+1]
			if controls[sw] {
				if x != b || y != a {
					t.Fatalf("switch %d marked exchange but outputs (%d,%d) from (%d,%d)", sw, x, y, a, b)
				}
			} else {
				if x != a || y != b {
					t.Fatalf("switch %d marked straight but outputs (%d,%d) from (%d,%d)", sw, x, y, a, b)
				}
			}
		}
	}
}

// TestLemma1 verifies the paper's Lemma 1 on type-2 pairs: with flag 0 the
// 1-bit exits on the lower (odd) output; with flag 1 it exits on the upper
// (even) output.
func TestLemma1(t *testing.T) {
	s, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		in := make([]uint8, s.Inputs())
		ones := 0
		for i := range in {
			in[i] = uint8(rng.Intn(2))
			ones += int(in[i])
		}
		if ones%2 == 1 {
			in[0] ^= 1
		}
		out, _, err := s.RouteBits(in)
		if err != nil {
			t.Fatal(err)
		}
		for sw := 0; sw < s.Switches(); sw++ {
			a, b := in[2*sw], in[2*sw+1]
			if a == b {
				continue // type-1 pair: Lemma 1 does not constrain it
			}
			// Type-2: outputs must contain exactly one 1.
			if out[2*sw]+out[2*sw+1] != 1 {
				t.Fatalf("type-2 pair at switch %d lost a bit: in (%d,%d) out (%d,%d)",
					sw, a, b, out[2*sw], out[2*sw+1])
			}
		}
	}
}

func TestApplySlavedSlices(t *testing.T) {
	s, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	in := []uint8{1, 0, 0, 1}
	_, controls, err := s.RouteBits(in)
	if err != nil {
		t.Fatal(err)
	}
	// Slave a payload slice to the same controls: it must follow the exact
	// same switch settings.
	payload := []string{"a", "b", "c", "d"}
	out := append([]string(nil), payload...)
	if err := ApplyInPlace(controls, out); err != nil {
		t.Fatal(err)
	}
	for sw, exchange := range controls {
		wantUpper, wantLower := payload[2*sw], payload[2*sw+1]
		if exchange {
			wantUpper, wantLower = wantLower, wantUpper
		}
		if out[2*sw] != wantUpper || out[2*sw+1] != wantLower {
			t.Fatalf("slaved slice disagrees at switch %d", sw)
		}
	}
	if err := ApplyInPlace(controls, payload[:3]); err == nil {
		t.Error("ApplyInPlace accepted mismatched payload length")
	}
}

func TestBalanceHelper(t *testing.T) {
	even, odd := Balance([]uint8{1, 0, 1, 1, 0, 1})
	if even != 2 || odd != 2 {
		t.Errorf("Balance = (%d,%d), want (2,2)", even, odd)
	}
	even, odd = Balance(nil)
	if even != 0 || odd != 0 {
		t.Errorf("Balance(nil) = (%d,%d), want (0,0)", even, odd)
	}
}

func BenchmarkRouteBits256(b *testing.B) {
	s, err := New(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]uint8, s.Inputs())
	for i := 0; i < len(in); i += 2 { // balanced pairs keep weight even
		in[i] = uint8(rng.Intn(2))
		in[i+1] = in[i] ^ 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.RouteBits(in); err != nil {
			b.Fatal(err)
		}
	}
}

// columnOf runs ColumnControls over boxes of sp(p) laid side by side and
// unpacks the controls, which a rejection leaves filled in as well.
func columnOf(s *Splitter, in []uint8) ([]bool, int, error) {
	n := len(in)
	x := make([]uint64, (n+63)/64)
	for j, b := range in {
		x[j>>6] |= uint64(b) << uint(j&63)
	}
	ctl := make([]uint64, (n/2+63)/64)
	box, err := s.ColumnControls(ctl, x, make([]uint64, WorkWords(n)), n)
	out := make([]bool, n/2)
	for t := range out {
		out[t] = ctl[t>>6]>>uint(t&63)&1 == 1
	}
	for t := n / 2; t < len(ctl)*64; t++ {
		if ctl[t>>6]>>uint(t&63)&1 == 1 {
			return nil, -1, fmt.Errorf("control bit %d set past the %d switches", t, n/2)
		}
	}
	return out, box, err
}

// TestColumnControlsExhaustive proves the word-parallel column equals the
// scalar splitter on every input of sp(p) for p <= 4: the same controls on
// every valid input, and on every invalid one the same error text.
func TestColumnControlsExhaustive(t *testing.T) {
	for p := 1; p <= 4; p++ {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		n := s.Inputs()
		in := make([]uint8, n)
		for v := 0; v < 1<<uint(n); v++ {
			for j := range in {
				in[j] = uint8(v >> uint(j) & 1)
			}
			want, wantErr := s.Controls(in)
			got, box, err := columnOf(s, in)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || box != 0 {
					t.Fatalf("sp(%d) input %v: column returned box %d, %v; Controls rejects with %v", p, in, box, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("sp(%d) input %v: column rejected valid input: %v", p, in, err)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("sp(%d) input %v: column control %d = %v, Controls says %v", p, in, k, got[k], want[k])
				}
			}
		}
	}
}

// TestColumnControlsRandom checks seeded random even-parity columns of
// sp(p) for p = 1..13 — up to 16 boxes of up to 8192 lines, so the
// arbiter's word-parity recursion runs twice — against Controls box by box,
// then plants one invalid box and requires the column to reject exactly it
// with Controls' error while still giving every other box, before and
// after it, the controls Controls gives.
func TestColumnControlsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for p := 1; p <= 13; p++ {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		size := s.Inputs()
		for _, boxes := range []int{1, 3, 16} {
			if size*boxes > 1<<14 {
				continue
			}
			for trial := 0; trial < 4; trial++ {
				in := make([]uint8, size*boxes)
				for l := 0; l < boxes; l++ {
					box := in[l*size : (l+1)*size]
					if p == 1 {
						box[rng.Intn(2)] = 1
						continue
					}
					for j := range box {
						box[j] = uint8(rng.Intn(2))
					}
					if ones := bytes.Count(box, []byte{1}); ones%2 != 0 {
						box[rng.Intn(size)] ^= 1
					}
				}
				// Odd box counts leave a ragged tail of lines; pad to the
				// next power of two with valid boxes so n stays a power of
				// two, as it is in the network.
				for len(in)&(len(in)-1) != 0 {
					pad := make([]uint8, size)
					if p == 1 {
						pad[1] = 1
					}
					in = append(in, pad...)
				}
				// sameControls compares every box but skip with Controls.
				sameControls := func(got []bool, skip int) {
					t.Helper()
					for l := 0; l < len(in)/size; l++ {
						if l == skip {
							continue
						}
						want, err := s.Controls(in[l*size : (l+1)*size])
						if err != nil {
							t.Fatal(err)
						}
						for k, w := range want {
							if got[l*size/2+k] != w {
								t.Fatalf("sp(%d) box %d trial %d: control %d = %v, Controls says %v", p, l, trial, k, got[l*size/2+k], w)
							}
						}
					}
				}
				got, _, err := columnOf(s, in)
				if err != nil {
					t.Fatalf("sp(%d) x%d: column rejected valid input: %v", p, len(in)/size, err)
				}
				sameControls(got, -1)
				bad := rng.Intn(len(in) / size)
				in[bad*size+rng.Intn(size)] ^= 1
				if p == 1 {
					in[bad*size] = in[bad*size+1]
				}
				_, wantErr := s.Controls(in[bad*size : (bad+1)*size])
				got, box, err := columnOf(s, in)
				if err == nil || box != bad || err.Error() != wantErr.Error() {
					t.Fatalf("sp(%d) with box %d broken: column returned box %d, %v; Controls rejects with %v", p, bad, box, err, wantErr)
				}
				sameControls(got, bad)
			}
		}
	}
}

// TestExchangeMatchesApplyInPlace drives one to three bit planes through
// the packed-control switch column at once and compares every plane with
// ApplyInPlace driven by the same controls.
func TestExchangeMatchesApplyInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 8, 64, 128, 512} {
		words := (n + 63) / 64
		for planes := 1; planes <= 3; planes++ {
			controls := make([]bool, n/2)
			ctl := make([]uint64, (n/2+63)/64)
			for k := range controls {
				controls[k] = rng.Intn(2) == 1
				if controls[k] {
					ctl[k>>6] |= 1 << uint(k&63)
				}
			}
			slices := make([][]uint8, planes)
			x := make([]uint64, planes*words)
			for b := range slices {
				slices[b] = make([]uint8, n)
				for j := range slices[b] {
					slices[b][j] = uint8(rng.Intn(2))
					x[b*words+j>>6] |= uint64(slices[b][j]) << uint(j&63)
				}
				if err := ApplyInPlace(controls, slices[b]); err != nil {
					t.Fatal(err)
				}
			}
			ExchangePlanes(ctl, x, words)
			for b, want := range slices {
				for j := range want {
					if got := uint8(x[b*words+j>>6] >> uint(j&63) & 1); got != want[j] {
						t.Fatalf("n=%d plane %d of %d: line %d = %d, ApplyInPlace %d", n, b, planes, j, got, want[j])
					}
				}
			}
			for j := n; j < 64*words; j++ {
				if x[j>>6]>>uint(j&63)&1 != 0 {
					t.Fatalf("n=%d: line %d past the column was set", n, j)
				}
			}
		}
	}
}
