package arbiter

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestNodeTruthTable pins the behavioural node rules to the paper's
// Algorithm steps 2-3.
func TestNodeTruthTable(t *testing.T) {
	tests := []struct {
		x1, x2, zd uint8
		y1, y2     uint8
	}{
		// Type-1 children state (x1 == x2): self-generate 0/1.
		{0, 0, 0, 0, 1},
		{0, 0, 1, 0, 1},
		{1, 1, 0, 0, 1},
		{1, 1, 1, 0, 1},
		// Type-2 children state (x1 != x2): forward parent flag.
		{0, 1, 0, 0, 0},
		{0, 1, 1, 1, 1},
		{1, 0, 0, 0, 0},
		{1, 0, 1, 1, 1},
	}
	for _, tt := range tests {
		y1, y2 := NodeDown(tt.x1, tt.x2, tt.zd)
		if y1 != tt.y1 || y2 != tt.y2 {
			t.Errorf("NodeDown(%d,%d,%d) = (%d,%d), want (%d,%d)",
				tt.x1, tt.x2, tt.zd, y1, y2, tt.y1, tt.y2)
		}
		if up := NodeUp(tt.x1, tt.x2); up != tt.x1^tt.x2 {
			t.Errorf("NodeUp(%d,%d) = %d", tt.x1, tt.x2, up)
		}
	}
}

// TestGateLevelNodeMatchesBehavioural proves the Fig. 5 gate schematic
// computes exactly the behavioural function on all 8 input combinations.
func TestGateLevelNodeMatchesBehavioural(t *testing.T) {
	for x1 := uint8(0); x1 <= 1; x1++ {
		for x2 := uint8(0); x2 <= 1; x2++ {
			for zd := uint8(0); zd <= 1; zd++ {
				by1, by2 := NodeDown(x1, x2, zd)
				gy1, gy2 := NodeDownGates(x1, x2, zd)
				if by1 != gy1 || by2 != gy2 {
					t.Errorf("gate/behaviour mismatch at (%d,%d,%d): gates (%d,%d) vs rules (%d,%d)",
						x1, x2, zd, gy1, gy2, by1, by2)
				}
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	if _, err := New(31); err == nil {
		t.Error("New(31) accepted")
	}
	tr, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.P() != 3 || tr.Inputs() != 8 {
		t.Errorf("P/Inputs = %d/%d, want 3/8", tr.P(), tr.Inputs())
	}
}

func TestNodeCount(t *testing.T) {
	// The paper: a P-input arbiter has P-1 nodes, except A(1) which is wiring.
	tests := []struct {
		p, want int
	}{
		{1, 0}, {2, 3}, {3, 7}, {4, 15}, {5, 31}, {10, 1023},
	}
	for _, tt := range tests {
		tr, err := New(tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Nodes(); got != tt.want {
			t.Errorf("A(%d).Nodes() = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	tests := []struct {
		p, want int
	}{
		{1, 0}, {2, 4}, {3, 6}, {4, 8}, {7, 14},
	}
	for _, tt := range tests {
		tr, err := New(tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.CriticalPath(); got != tt.want {
			t.Errorf("A(%d).CriticalPath() = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestFlagsInputValidation(t *testing.T) {
	tr, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Flags([]uint8{0, 1}); err == nil {
		t.Error("Flags accepted wrong length")
	}
	if _, err := tr.Flags([]uint8{0, 1, 2, 0}); err == nil {
		t.Error("Flags accepted non-binary input")
	}
}

func TestFlagsA1IsWiring(t *testing.T) {
	tr, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]uint8{{0, 1}, {1, 0}, {0, 0}, {1, 1}} {
		flags, err := tr.Flags(in)
		if err != nil {
			t.Fatal(err)
		}
		if flags[0] != 0 || flags[1] != 0 {
			t.Errorf("A(1).Flags(%v) = %v, want zeros", in, flags)
		}
	}
}

// splitBalance applies the paper's switch-setting rule (Algorithm step 5) to
// the flags and returns (#1s routed to even outputs, #1s routed to odd
// outputs). A switch's upper output is the even-numbered network output, the
// lower is odd.
func splitBalance(bits, flags []uint8) (even, odd int) {
	for i := 0; i < len(bits); i += 2 {
		a, b := bits[i], bits[i+1]
		// Only the upper input's control is used for the pair (the paper
		// notes one flag suffices when there is no conflict).
		exchange := a ^ flags[i]
		var outEven, outOdd uint8
		if exchange == 0 {
			outEven, outOdd = a, b
		} else {
			outEven, outOdd = b, a
		}
		even += int(outEven)
		odd += int(outOdd)
	}
	return even, odd
}

// TestBalanceExhaustive verifies Theorem 3 — every even-weight input to
// A(p)+sw(p) splits its 1-bits evenly between even and odd outputs — by
// exhausting all even-weight inputs for p = 2, 3, 4.
func TestBalanceExhaustive(t *testing.T) {
	for p := 2; p <= 4; p++ {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.Inputs()
		for mask := 0; mask < 1<<uint(n); mask++ {
			if bits.OnesCount(uint(mask))%2 != 0 {
				continue // splitter precondition: even number of 1s
			}
			in := make([]uint8, n)
			for i := range in {
				in[i] = uint8(mask >> uint(i) & 1)
			}
			flags, err := tr.Flags(in)
			if err != nil {
				t.Fatal(err)
			}
			even, odd := splitBalance(in, flags)
			if even != odd {
				t.Fatalf("p=%d mask=%b: even=%d odd=%d flags=%v", p, mask, even, odd, flags)
			}
		}
	}
}

// TestBalanceProperty extends Theorem 3 to large splitters with random
// even-weight inputs.
func TestBalanceProperty(t *testing.T) {
	tr, err := New(10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]uint8, tr.Inputs())
		ones := 0
		for i := range in {
			in[i] = uint8(rng.Intn(2))
			ones += int(in[i])
		}
		if ones%2 == 1 { // repair parity to satisfy the precondition
			for i := range in {
				if in[i] == 1 {
					in[i] = 0
					break
				}
			}
		}
		flags, err := tr.Flags(in)
		if err != nil {
			return false
		}
		even, odd := splitBalance(in, flags)
		return even == odd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestType2PairsGetEqualFlags verifies the pairing argument in the proof of
// Theorem 3: both members of a type-2 pair receive the same flag, and across
// the splitter exactly half of the type-2 pairs receive flag 0.
func TestType2PairsGetEqualFlags(t *testing.T) {
	tr, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		in := make([]uint8, tr.Inputs())
		ones := 0
		for i := range in {
			in[i] = uint8(rng.Intn(2))
			ones += int(in[i])
		}
		if ones%2 == 1 {
			in[0] ^= 1
		}
		flags, err := tr.Flags(in)
		if err != nil {
			t.Fatal(err)
		}
		zeroFlags, oneFlags := 0, 0
		for i := 0; i < len(in); i += 2 {
			if in[i] == in[i+1] {
				continue // type-1 pair
			}
			if flags[i] != flags[i+1] {
				t.Fatalf("type-2 pair (%d,%d) got different flags %d,%d",
					i, i+1, flags[i], flags[i+1])
			}
			if flags[i] == 0 {
				zeroFlags++
			} else {
				oneFlags++
			}
		}
		if zeroFlags != oneFlags {
			t.Fatalf("type-2 pairs flagged 0: %d, flagged 1: %d; want equal", zeroFlags, oneFlags)
		}
	}
}

// TestGateLevelTreeMatchesBehavioural checks that the full gate-level
// evaluation agrees with the behavioural tree on random inputs and reports
// the static gate count.
func TestGateLevelTreeMatchesBehavioural(t *testing.T) {
	tr, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		in := make([]uint8, tr.Inputs())
		for i := range in {
			in[i] = uint8(rng.Intn(2))
		}
		want, err := tr.Flags(in)
		if err != nil {
			t.Fatal(err)
		}
		got, gates, err := tr.FlagsGateLevel(in)
		if err != nil {
			t.Fatal(err)
		}
		if static := tr.Nodes() * GatesPerNode; gates != static {
			t.Fatalf("dynamic gates %d != static gates %d", gates, static)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("flag %d: gate-level %d != behavioural %d", i, got[i], want[i])
			}
		}
	}
}

func TestFlagsGateLevelValidation(t *testing.T) {
	tr, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.FlagsGateLevel([]uint8{0}); err == nil {
		t.Error("FlagsGateLevel accepted wrong length")
	}
}

// packBits packs a 0/1 vector into a bitset, bit j of word j>>6 = bits[j].
func packBits(in []uint8) []uint64 {
	x := make([]uint64, (len(in)+63)/64)
	for j, b := range in {
		x[j>>6] |= uint64(b) << uint(j&63)
	}
	return x
}

// flagWordsOf runs FlagWords over a packed copy of in, trees of order p
// tiled across it, and unpacks the flags. It also checks the reported
// first odd tree against a direct count.
func flagWordsOf(t *testing.T, tr *Tree, in []uint8) []uint8 {
	t.Helper()
	x := packBits(in)
	f := make([]uint64, len(x))
	odd := tr.FlagWords(f, x, make([]uint64, WorkWords(len(x))))
	wantOdd := -1
	for k := 0; tr.P() >= 2 && wantOdd < 0 && k*tr.Inputs() < len(in); k++ {
		ones := 0
		for _, b := range in[k*tr.Inputs() : (k+1)*tr.Inputs()] {
			ones += int(b)
		}
		if ones%2 != 0 {
			wantOdd = k
		}
	}
	if odd != wantOdd {
		t.Fatalf("A(%d) over %d inputs: first odd tree %d, want %d", tr.P(), len(in), odd, wantOdd)
	}
	out := make([]uint8, len(in))
	for j := range out {
		out[j] = uint8(f[j>>6] >> uint(j&63) & 1)
	}
	return out
}

// TestFlagWordsExhaustive proves the word-parallel arbiter equals the
// scalar reference on every input of every A(p) with p <= 4, parity odd or
// even: the root echo, the self-generated 0/1 pairs and the forwarded
// flags all agree bit for bit.
func TestFlagWordsExhaustive(t *testing.T) {
	for p := 1; p <= 4; p++ {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.Inputs()
		in := make([]uint8, n)
		for v := 0; v < 1<<uint(n); v++ {
			for j := range in {
				in[j] = uint8(v >> uint(j) & 1)
			}
			want, err := tr.Flags(in)
			if err != nil {
				t.Fatal(err)
			}
			got := flagWordsOf(t, tr, in)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("A(%d) input %v: FlagWords flag %d = %d, Flags says %d", p, in, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFlagWordsTiledRandom checks FlagWords against Flags on seeded random
// inputs for every order up to 13, with the trees tiled several to a word,
// one per word and spanning up to 128 words (where the per-word parities
// themselves span two words and recurse again).
func TestFlagWordsTiledRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	for p := 1; p <= 13; p++ {
		tr, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		size := tr.Inputs()
		for _, trees := range []int{1, 2, 4} {
			for trial := 0; trial < 8; trial++ {
				in := make([]uint8, size*trees)
				for j := range in {
					in[j] = uint8(rng.Intn(2))
				}
				got := flagWordsOf(t, tr, in)
				for k := 0; k < trees; k++ {
					want, err := tr.Flags(in[k*size : (k+1)*size])
					if err != nil {
						t.Fatal(err)
					}
					for j, w := range want {
						if got[k*size+j] != w {
							t.Fatalf("A(%d) tree %d of %d, trial %d: flag %d = %d, Flags says %d",
								p, k, trees, trial, j, got[k*size+j], w)
						}
					}
				}
			}
		}
	}
}

func BenchmarkFlags1024(b *testing.B) {
	tr, err := New(10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	in := make([]uint8, tr.Inputs())
	for i := range in {
		in[i] = uint8(rng.Intn(2))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Flags(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlagWords1024(b *testing.B) {
	tr, err := New(10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]uint64, tr.Inputs()/64)
	for i := range x {
		x[i] = rng.Uint64()
	}
	f := make([]uint64, len(x))
	work := make([]uint64, WorkWords(len(x)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.FlagWords(f, x, work)
	}
}
