package splitter

import (
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
