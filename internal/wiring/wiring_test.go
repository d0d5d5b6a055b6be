package wiring

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	tests := []struct {
		n    int
		want bool
	}{
		{-4, false}, {-1, false}, {0, false}, {1, true}, {2, true}, {3, false},
		{4, true}, {6, false}, {8, true}, {1024, true}, {1023, false}, {1 << 29, true},
	}
	for _, tt := range tests {
		if got := IsPow2(tt.n); got != tt.want {
			t.Errorf("IsPow2(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestLog2(t *testing.T) {
	for m := 0; m <= 20; m++ {
		if got := Log2(1 << uint(m)); got != m {
			t.Errorf("Log2(2^%d) = %d, want %d", m, got, m)
		}
	}
}

func TestLog2PanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(6) did not panic")
		}
	}()
	Log2(6)
}

func TestCheckOrder(t *testing.T) {
	if err := CheckOrder(0); err == nil {
		t.Error("CheckOrder(0) = nil, want error")
	}
	if err := CheckOrder(MaxOrder + 1); err == nil {
		t.Error("CheckOrder(MaxOrder+1) = nil, want error")
	}
	for m := 1; m <= MaxOrder; m++ {
		if err := CheckOrder(m); err != nil {
			t.Errorf("CheckOrder(%d) = %v, want nil", m, err)
		}
	}
}

func TestAddrBit(t *testing.T) {
	// addr = 0b101 with m = 3: paper bit-0 is the MSB (1), bit-1 is 0, bit-2 is 1.
	tests := []struct {
		addr, l, m, want int
	}{
		{0b101, 0, 3, 1},
		{0b101, 1, 3, 0},
		{0b101, 2, 3, 1},
		{0b0110, 0, 4, 0},
		{0b0110, 1, 4, 1},
		{0b0110, 2, 4, 1},
		{0b0110, 3, 4, 0},
	}
	for _, tt := range tests {
		if got := AddrBit(tt.addr, tt.l, tt.m); got != tt.want {
			t.Errorf("AddrBit(%b, %d, %d) = %d, want %d", tt.addr, tt.l, tt.m, got, tt.want)
		}
	}
}

func TestSetAddrBit(t *testing.T) {
	for m := 1; m <= 6; m++ {
		for addr := 0; addr < 1<<uint(m); addr++ {
			for l := 0; l < m; l++ {
				for v := 0; v <= 1; v++ {
					got := SetAddrBit(addr, l, m, v)
					if AddrBit(got, l, m) != v {
						t.Fatalf("SetAddrBit(%d,%d,%d,%d): bit did not take", addr, l, m, v)
					}
					// All other bits unchanged.
					for o := 0; o < m; o++ {
						if o == l {
							continue
						}
						if AddrBit(got, o, m) != AddrBit(addr, o, m) {
							t.Fatalf("SetAddrBit(%d,%d,%d,%d) disturbed bit %d", addr, l, m, v, o)
						}
					}
				}
			}
		}
	}
}

func TestReverseBits(t *testing.T) {
	tests := []struct {
		i, m, want int
	}{
		{0b001, 3, 0b100},
		{0b110, 3, 0b011},
		{0b1011, 4, 0b1101},
		{0, 5, 0},
		{0b11111, 5, 0b11111},
	}
	for _, tt := range tests {
		if got := ReverseBits(tt.i, tt.m); got != tt.want {
			t.Errorf("ReverseBits(%b, %d) = %b, want %b", tt.i, tt.m, got, tt.want)
		}
	}
}

func TestReverseBitsInvolution(t *testing.T) {
	f := func(i uint16) bool {
		x := int(i) & 0x3ff
		return ReverseBits(ReverseBits(x, 10), 10) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateRoundTrip(t *testing.T) {
	for m := 1; m <= 10; m++ {
		for i := 0; i < 1<<uint(m); i++ {
			if got := RotateLeft(RotateRight(i, m), m); got != i {
				t.Fatalf("RotateLeft(RotateRight(%d, %d)) = %d", i, m, got)
			}
			if got := RotateRight(RotateLeft(i, m), m); got != i {
				t.Fatalf("RotateRight(RotateLeft(%d, %d)) = %d", i, m, got)
			}
		}
	}
}

// TestUnshuffleDefinition checks U_k^m against the paper's bit-level
// definition: (b_{m-1} ... b_k b_{k-1} ... b_0) -> (b_{m-1} ... b_k b_0 b_{k-1} ... b_1).
func TestUnshuffleDefinition(t *testing.T) {
	for m := 1; m <= 8; m++ {
		for k := 1; k <= m; k++ {
			for i := 0; i < 1<<uint(m); i++ {
				want := 0
				// High m-k bits unchanged.
				for b := k; b < m; b++ {
					want |= Bit(i, b) << uint(b)
				}
				// b_0 moves to position k-1.
				want |= Bit(i, 0) << uint(k-1)
				// b_j (1 <= j <= k-1) moves to position j-1.
				for b := 1; b < k; b++ {
					want |= Bit(i, b) << uint(b-1)
				}
				if got := Unshuffle(i, k, m); got != want {
					t.Fatalf("Unshuffle(%d, k=%d, m=%d) = %d, want %d", i, k, m, got, want)
				}
			}
		}
	}
}

// TestUnshuffleBaselineProperty verifies the routing property exploited by the
// baseline network: under the full-span unshuffle U_m^m, even lines land in
// the top half and odd lines in the bottom half, preserving relative order.
func TestUnshuffleBaselineProperty(t *testing.T) {
	for m := 1; m <= 8; m++ {
		n := 1 << uint(m)
		for j := 0; j < n; j++ {
			got := Unshuffle(j, m, m)
			var want int
			if j%2 == 0 {
				want = j / 2
			} else {
				want = n/2 + (j-1)/2
			}
			if got != want {
				t.Fatalf("U_%d^%d(%d) = %d, want %d", m, m, j, got, want)
			}
		}
	}
}

// shuffle is the inverse of Unshuffle, the reference the tests below check
// it against: the low k bits of i are rotated left by one position while the
// high m-k bits are kept fixed.
func shuffle(i, k, m int) int {
	checkUnshuffleArgs(i, k, m)
	lowMask := 1<<uint(k) - 1
	return i&^lowMask | RotateLeft(i&lowMask, k)
}

func TestShuffleInvertsUnshuffle(t *testing.T) {
	for m := 1; m <= 8; m++ {
		for k := 1; k <= m; k++ {
			for i := 0; i < 1<<uint(m); i++ {
				if got := shuffle(Unshuffle(i, k, m), k, m); got != i {
					t.Fatalf("Shuffle(Unshuffle(%d, %d, %d)) = %d", i, k, m, got)
				}
			}
		}
	}
}

func TestUnshufflePanicsOnBadArgs(t *testing.T) {
	cases := []struct {
		name    string
		i, k, m int
	}{
		{"k too small", 0, 0, 3},
		{"k exceeds m", 0, 4, 3},
		{"negative index", -1, 2, 3},
		{"index too large", 8, 2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Unshuffle(%d, %d, %d) did not panic", tc.i, tc.k, tc.m)
				}
			}()
			Unshuffle(tc.i, tc.k, tc.m)
		})
	}
}

// TestUnshufflePattern checks that the connection pattern U_k^m is a
// bijection on the 2^m lines for every span k: no two lines share a target.
func TestUnshufflePattern(t *testing.T) {
	for m := 1; m <= 8; m++ {
		n := 1 << uint(m)
		for k := 1; k <= m; k++ {
			hit := make([]bool, n)
			for j := 0; j < n; j++ {
				to := Unshuffle(j, k, m)
				if hit[to] {
					t.Fatalf("U_%d^%d sends two lines to %d", k, m, to)
				}
				hit[to] = true
			}
		}
	}
}

// TestUnshufflePatternErrors checks that the unshuffle connection refuses
// an order below 1 and a span outside [1, m] — the argument errors the
// materialized pattern used to report — by panicking.
func TestUnshufflePatternErrors(t *testing.T) {
	for _, tc := range []struct{ k, m int }{{1, 0}, {0, 3}, {4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Unshuffle(0, %d, %d) did not panic", tc.k, tc.m)
				}
			}()
			Unshuffle(0, tc.k, tc.m)
		}()
	}
}

// TestUnshuffleStaysWithinBox verifies the property the GBN relies on: the
// stage-i connection U_{m-i}^m never crosses a 2^{m-i}-aligned block, so each
// switching box feeds exactly its two child boxes.
func TestUnshuffleStaysWithinBox(t *testing.T) {
	m := 8
	for i := 0; i < m-1; i++ {
		k := m - i // span of the stage-i connection
		blockSize := 1 << uint(k)
		for j := 0; j < 1<<uint(m); j++ {
			got := Unshuffle(j, k, m)
			if j/blockSize != got/blockSize {
				t.Fatalf("stage %d: line %d left its block (got %d)", i, j, got)
			}
		}
	}
}

func BenchmarkUnshuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	idx := make([]int, 1024)
	for i := range idx {
		idx[i] = rng.Intn(1 << 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Unshuffle(idx[i%len(idx)], 16, 16)
	}
}

// TestUnshuffleGroupOrder verifies the group structure of U_k^m: the
// unshuffle rotates the low k bits by one position, so applying it k times
// is the identity — and no smaller positive power is, whenever some index
// has low-k bits that are not rotation-invariant (k >= 2 guarantees such an
// index).
func TestUnshuffleGroupOrder(t *testing.T) {
	for m := 2; m <= 8; m++ {
		for k := 2; k <= m; k++ {
			// Order divides k: U^k = identity.
			for i := 0; i < 1<<uint(m); i++ {
				x := i
				for r := 0; r < k; r++ {
					x = Unshuffle(x, k, m)
				}
				if x != i {
					t.Fatalf("m=%d k=%d: U^%d(%d) = %d, want identity", m, k, k, i, x)
				}
			}
			// No smaller positive power fixes everything.
			for r := 1; r < k; r++ {
				allFixed := true
				for i := 0; i < 1<<uint(m) && allFixed; i++ {
					x := i
					for s := 0; s < r; s++ {
						x = Unshuffle(x, k, m)
					}
					if x != i {
						allFixed = false
					}
				}
				if allFixed {
					t.Fatalf("m=%d k=%d: U^%d already identity", m, k, r)
				}
			}
		}
	}
}

// TestShuffleUnshuffleAreMutualInversesAsPatterns checks the other side of
// TestShuffleInvertsUnshuffle: routing every line through the shuffle and
// then the unshuffle brings it back, so the two connection patterns are
// mutual inverses.
func TestShuffleUnshuffleAreMutualInversesAsPatterns(t *testing.T) {
	for m := 1; m <= 6; m++ {
		for k := 1; k <= m; k++ {
			for i := 0; i < 1<<uint(m); i++ {
				if got := Unshuffle(shuffle(i, k, m), k, m); got != i {
					t.Fatalf("m=%d k=%d: Unshuffle(Shuffle(%d)) = %d", m, k, i, got)
				}
			}
		}
	}
}

// TestUnshuffleBitsMatchesUnshuffle checks the bitset unshuffle line by
// line against Unshuffle for every block order up to 10 (blocks of one
// partial word, of whole words and spanning several words) over seeded
// random slices, with one to three planes end to end in one call: every
// plane must come out as if unshuffled alone.
func TestUnshuffleBitsMatchesUnshuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for m := 1; m <= 10; m++ {
		n := 1 << uint(m)
		words := (n + 63) / 64
		for k := 1; k <= m; k++ {
			for trial := 0; trial < 12; trial++ {
				planes := 1 + trial%3
				src := make([]uint64, planes*words)
				for b := 0; b < planes; b++ {
					for j := 0; j < n; j++ {
						src[b*words+j>>6] |= uint64(rng.Intn(2)) << uint(j&63)
					}
				}
				dst := make([]uint64, planes*words)
				UnshuffleBits(dst, src, k)
				for b := 0; b < planes; b++ {
					in, out := src[b*words:(b+1)*words], dst[b*words:(b+1)*words]
					for j := 0; j < n; j++ {
						to := Unshuffle(j, k, m)
						if got, want := out[to>>6]>>uint(to&63)&1, in[j>>6]>>uint(j&63)&1; got != want {
							t.Fatalf("m=%d k=%d plane %d of %d: line %d -> %d carries %d, want %d", m, k, b, planes, j, to, got, want)
						}
					}
				}
			}
		}
	}
}
