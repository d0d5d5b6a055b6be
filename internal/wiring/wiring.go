// Package wiring implements the index algebra that underlies every
// multistage interconnection network in this repository: power-of-two
// arithmetic, bit addressing in the paper's MSB-first convention, and the
// 2^k-unshuffle connection U_k^m of Lee & Lu's Definition 1, which wires
// consecutive stages of the (generalized) baseline network.
//
// Throughout the package a "line index" is an integer in [0, 2^m) whose
// binary representation (b_{m-1} b_{m-2} ... b_1 b_0) names one of the 2^m
// lines between two switching stages.
package wiring

import "fmt"

// MaxOrder bounds the network order m = log2(N) accepted by constructors in
// this repository. 2^30 lines is far beyond anything simulable in memory and
// keeps all intermediate products inside int64 range on 64-bit platforms.
const MaxOrder = 30

// CheckOrder validates a network order m (N = 2^m inputs).
func CheckOrder(m int) error {
	if m < 1 || m > MaxOrder {
		return fmt.Errorf("wiring: order m=%d out of range [1,%d]", m, MaxOrder)
	}
	return nil
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// Log2 returns log2(n) for a positive power of two n.
// It panics if n is not a positive power of two; callers validate sizes at
// their API boundary with IsPow2/CheckOrder first.
func Log2(n int) int {
	if !IsPow2(n) {
		panic(fmt.Sprintf("wiring: Log2 of non-power-of-two %d", n))
	}
	m := 0
	for x := n; x > 1; x >>= 1 {
		m++
	}
	return m
}

// Bit returns bit k (LSB-first: k=0 is the least significant bit) of i.
func Bit(i, k int) int {
	return (i >> uint(k)) & 1
}

// AddrBit returns bit l of an m-bit destination address in the paper's
// convention, where bit-0 is the most significant bit (b^0 is the MSB) and
// bit-(m-1) is the least significant bit.
func AddrBit(addr, l, m int) int {
	return (addr >> uint(m-1-l)) & 1
}

// SetAddrBit returns addr with paper-convention bit l (0 = MSB) set to v
// (v must be 0 or 1).
func SetAddrBit(addr, l, m, v int) int {
	mask := 1 << uint(m-1-l)
	if v == 0 {
		return addr &^ mask
	}
	return addr | mask
}

// ReverseBits returns the m-bit reversal of i: output bit k equals input bit
// (m-1-k).
func ReverseBits(i, m int) int {
	r := 0
	for k := 0; k < m; k++ {
		r = (r << 1) | (i >> uint(k) & 1)
	}
	return r
}

// RotateRight rotates the low m bits of i right by one position:
// (b_{m-1} ... b_1 b_0) becomes (b_0 b_{m-1} ... b_1).
func RotateRight(i, m int) int {
	low := i & 1
	return (i >> 1) | (low << uint(m-1))
}

// RotateLeft rotates the low m bits of i left by one position:
// (b_{m-1} ... b_1 b_0) becomes (b_{m-2} ... b_0 b_{m-1}).
func RotateLeft(i, m int) int {
	high := (i >> uint(m-1)) & 1
	return ((i << 1) | high) & (1<<uint(m) - 1)
}

// Unshuffle computes the 2^k-unshuffle U_k^m(i) of Definition 1: the low k
// bits of the m-bit index i are rotated right by one position while the high
// m-k bits are kept fixed:
//
//	U_k^m(b_{m-1} ... b_k b_{k-1} ... b_1 b_0) = (b_{m-1} ... b_k b_0 b_{k-1} ... b_1).
//
// It panics when k or m is out of range; stage constructors validate their
// parameters before calling it.
func Unshuffle(i, k, m int) int {
	checkUnshuffleArgs(i, k, m)
	lowMask := 1<<uint(k) - 1
	high := i &^ lowMask
	return high | RotateRight(i&lowMask, k)
}

func checkUnshuffleArgs(i, k, m int) {
	if m < 1 || m > MaxOrder || k < 1 || k > m {
		panic(fmt.Sprintf("wiring: unshuffle parameters k=%d m=%d out of range", k, m))
	}
	if i < 0 || i >= 1<<uint(m) {
		panic(fmt.Sprintf("wiring: line index %d out of range [0,2^%d)", i, m))
	}
}

// UnshuffleBits applies the 2^k-unshuffle U_k to every aligned 2^k-line
// block of bit planes held as bitsets: bit j of src (bit j&63 of
// src[j>>6]) moves to bit Unshuffle(j, k, m) of dst, so each block's even
// lines land in its lower half and its odd lines in its upper half. Blocks
// of up to 64 lines are permuted inside their word by k-1 unrolled delta
// swaps (Hacker's Delight §7-2); wider blocks unshuffle every word and then
// interleave the words' halves. src may hold several planes end to end:
// a block of 2^k lines spans 2^(k-6) words, and as long as that divides
// the plane length no block straddles two planes, so one call covers all
// of them. len(dst) must be at least len(src), and the two must not
// overlap. Lines past the end of a partial word stay zero only if they are
// zero in src.
func UnshuffleBits(dst, src []uint64, k int) {
	dst = dst[:len(src)]
	if k <= 6 {
		for w, x := range src {
			if k > 1 {
				x = swap(x, 1, swap1)
			}
			if k > 2 {
				x = swap(x, 2, swap2)
			}
			if k > 3 {
				x = swap(x, 4, swap4)
			}
			if k > 4 {
				x = swap(x, 8, swap8)
			}
			if k > 5 {
				x = swap(x, 16, swap16)
			}
			dst[w] = x
		}
		return
	}
	// Each 2^k-line block spans W = 2^(k-6) words. After the in-word
	// unshuffle, word 2a of a block holds the even lines of its 64 in the
	// low half and the odd lines in the high half; output word a gathers
	// the even halves of input words 2a and 2a+1, output word W/2+a their
	// odd halves.
	half := 1 << uint(k-7)
	for base := 0; base < len(src); base += 2 * half {
		in := src[base : base+2*half]
		lo, hi := dst[base:base+half], dst[base+half:base+2*half]
		for a := range lo {
			x, y := unshuffle64(in[2*a]), unshuffle64(in[2*a+1])
			lo[a] = x&0xFFFFFFFF | y<<32
			hi[a] = x>>32 | y&^0xFFFFFFFF
		}
	}
}

// The masks of the in-word unshuffle's delta swaps: swapS selects the bit
// groups that trade places with the groups S positions above them.
// Applying the first k-1 swaps unshuffles every aligned 2^k-bit block of a
// word (Hacker's Delight §7-2).
const (
	swap1  = 0x2222222222222222
	swap2  = 0x0C0C0C0C0C0C0C0C
	swap4  = 0x00F000F000F000F0
	swap8  = 0x0000FF000000FF00
	swap16 = 0x00000000FFFF0000
)

// unshuffle64 applies U_6 to one word: its even bits move to the low half
// and its odd bits to the high half, each in order.
func unshuffle64(x uint64) uint64 {
	return swap(swap(swap(swap(swap(x, 1, swap1), 2, swap2), 4, swap4), 8, swap8), 16, swap16)
}

// swap exchanges the bits of x that mask selects with those shift
// positions above them.
func swap(x uint64, shift uint, mask uint64) uint64 {
	t := (x ^ x>>shift) & mask
	return x ^ t ^ t<<shift
}
