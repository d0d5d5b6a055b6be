// Package splitter implements the splitter sp(p) of Lee & Lu's Definition 3
// and Section 4: the primitive switching box of the bit-sorter network. A
// 2^p x 2^p splitter consists of a 2^p-input arbiter A(p) and a one-bit
// switch column sw(p) of 2^{p-1} two-by-two switches. Given an input bit
// vector with an even number of 1s, the splitter sets its switches so the
// 1-bits are divided equally between the even-numbered and odd-numbered
// outputs (Theorem 3); the subsequent unshuffle wiring of the GBN then
// delivers equal halves to the two half-size sub-networks.
//
// Besides routing its own bit slice, a splitter exports its switch settings
// (one control bit per 2x2 switch). In the BNB network the sw(1)s of every
// other slice of the same nested network are slaved to these controls, which
// is how one bit of the destination address routes whole words.
package splitter

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
)

// Splitter is a 2^p x 2^p one-bit-slice self-routing switching box.
// Construct with New; the zero value is not usable.
type Splitter struct {
	p    int
	tree *arbiter.Tree
}

// New constructs sp(p) for p >= 1.
func New(p int) (*Splitter, error) {
	tree, err := arbiter.New(p)
	if err != nil {
		return nil, fmt.Errorf("splitter: %w", err)
	}
	return &Splitter{p: p, tree: tree}, nil
}

// P returns the splitter order; the splitter has 2^P inputs and outputs.
func (s *Splitter) P() int { return s.p }

// Inputs returns the number of input (and output) lines, 2^p.
func (s *Splitter) Inputs() int { return 1 << uint(s.p) }

// Switches returns the number of 2x2 switches in the sw(p) column, 2^{p-1}.
func (s *Splitter) Switches() int { return 1 << uint(s.p-1) }

// ArbiterNodes returns the number of function nodes in A(p) (0 for sp(1)).
func (s *Splitter) ArbiterNodes() int { return s.tree.Nodes() }

// CriticalPath returns the splitter's routing-decision critical path in
// function-node delays D_FN (the switch itself adds D_SW, accounted by the
// enclosing network).
func (s *Splitter) CriticalPath() int { return s.tree.CriticalPath() }

// Controls runs the arbiter on the input bits and derives one control bit
// per 2x2 switch using the paper's switch-setting rule (Algorithm step 5):
// a switch exchanges its inputs exactly when (upper input bit XOR its flag)
// is 1, i.e. when the upper input belongs on the lower (odd) output.
//
// bits must hold exactly 2^p values in {0,1}. An even number of 1s is the
// splitter's operating precondition for p >= 2 (guaranteed whenever the
// enclosing network carries a permutation); Controls enforces it so that
// contract violations surface at the point of failure. Controls is the
// scalar reference; ColumnControls is the word-parallel column the routing
// kernel runs.
func (s *Splitter) Controls(bits []uint8) ([]bool, error) {
	if len(bits) != s.Inputs() {
		return nil, fmt.Errorf("splitter: got %d inputs, want %d", len(bits), s.Inputs())
	}
	if s.p >= 2 {
		ones := 0
		for _, b := range bits {
			ones += int(b)
		}
		if ones%2 != 0 {
			return nil, oddError(s.p, ones)
		}
	} else if bits[0]^bits[1] != 1 {
		// Definition 3 for p = 1: one input 0 and the other 1.
		return nil, pairError(bits[0], bits[1])
	}
	flags, err := s.tree.Flags(bits)
	if err != nil {
		return nil, fmt.Errorf("splitter: %w", err)
	}
	controls := make([]bool, s.Switches())
	for t := range controls {
		controls[t] = bits[2*t]^flags[2*t] == 1
	}
	return controls, nil
}

func oddError(p, ones int) error {
	return fmt.Errorf("splitter: sp(%d) requires an even number of 1-bits, got %d", p, ones)
}

func pairError(a, b uint8) error {
	return fmt.Errorf("splitter: sp(1) requires one 0 and one 1 input, got %d,%d", a, b)
}

// evenLines marks the upper input of every 2x2 switch in a bitset word.
const evenLines = 0x5555555555555555

// WorkWords returns the scratch ColumnControls needs for a column of the
// given number of lines.
func WorkWords(lines int) int {
	words := (lines + 63) / 64
	return words + arbiter.WorkWords(words)
}

// ColumnControls runs a whole column of sp(p) splitters at once. The
// column's n lines (n a multiple of 2^p) carry the bit slice x — bit j of
// x[j>>6] is the bit on line j, and box l holds lines l·2^p to (l+1)·2^p-1
// — and ctl receives the exchange bit of every 2x2 switch, bit t of
// ctl[t>>6] for the switch of lines 2t and 2t+1; bits of ctl at and past
// n/2 are cleared. Every box is checked as Controls checks one — for
// p >= 2 from the parities the arbiter's up pass leaves at its roots: if
// any box breaks its precondition, ColumnControls returns the index of the
// first such box and the error Controls returns for it, and -1 and nil
// otherwise. Either way every box that meets its precondition gets in ctl
// what Controls returns for it — the word-parallel arbiter's flag XOR the
// upper input bit for p >= 2, and the upper input bit itself for the
// wiring-only sp(1) — so a caller routing independent groups of boxes side
// by side can carry on with the groups a rejection does not touch; a
// failing box's own controls are whatever the gates compute. Bits of x
// past line n must be zero; n must be at most 64 or a multiple of 64, and
// work must hold WorkWords(n) words.
func (s *Splitter) ColumnControls(ctl, x, work []uint64, n int) (int, error) {
	x = x[:(n+63)/64]
	cx := work[:len(x)] // the upper-input bit XOR its flag, at the even lines
	failed, err := -1, error(nil)
	if s.p >= 2 {
		if odd := s.tree.FlagWords(cx, x, work[len(x):]); odd >= 0 {
			failed, err = odd, oddError(s.p, s.ones(x, odd))
		}
		for w, xw := range x {
			cx[w] ^= xw
		}
	} else {
		// sp(1) takes its upper input bit raw; each pair must differ.
		for w, xw := range x {
			pairs := uint64(evenLines)
			if n < 64 {
				pairs &= 1<<uint(n) - 1
			}
			if bad := pairs &^ (xw ^ xw>>1); bad != 0 && err == nil {
				j := uint(bits.TrailingZeros64(bad))
				failed, err = (w<<6|int(j))/2, pairError(uint8(xw>>j&1), uint8(xw>>(j+1)&1))
			}
		}
		copy(cx, x)
	}
	if n <= 64 {
		ctl[0] = evenBits(cx[0]) & (1<<uint(n/2) - 1)
		return failed, err
	}
	for c := range ctl[:len(x)/2] {
		ctl[c] = evenBits(cx[2*c]) | evenBits(cx[2*c+1])<<32
	}
	return failed, err
}

// ones counts the 1-bits of box l of the column.
func (s *Splitter) ones(x []uint64, l int) int {
	size := s.Inputs()
	if size < 64 {
		return bits.OnesCount64(x[l*size>>6] >> uint(l*size&63) & (1<<uint(size) - 1))
	}
	count := 0
	for _, xw := range x[l*size>>6 : (l+1)*size>>6] {
		count += bits.OnesCount64(xw)
	}
	return count
}

// evenBits packs the even-numbered bits of x into the low 32 bits, in
// order: bit 2t of x becomes bit t.
func evenBits(x uint64) uint64 {
	x &= evenLines
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0x00000000FFFFFFFF
}

// spreadBits is the inverse of evenBits: bit t of the low 32 bits of c
// becomes bit 2t.
func spreadBits(c uint64) uint64 {
	c &= 0x00000000FFFFFFFF
	c = (c | c<<16) & 0x0000FFFF0000FFFF
	c = (c | c<<8) & 0x00FF00FF00FF00FF
	c = (c | c<<4) & 0x0F0F0F0F0F0F0F0F
	c = (c | c<<2) & 0x3333333333333333
	return (c | c<<1) & evenLines
}

// ExchangePlanes drives a switch column with packed controls, as
// ColumnControls produces them, on bit planes held as bitsets: planes
// holds len(planes)/words planes of `words` words each, bit j of a plane's
// word j>>6 on line j, and lines 2t and 2t+1 of every plane are exchanged
// for every set bit t of ctl. Each control word is spread to the lines
// once and applied to every plane by a delta swap, so all the planes move
// as the one-bit slices of Definition 5 follow their BSN slice's switches.
func ExchangePlanes(ctl, planes []uint64, words int) {
	for w := 0; w < words; w++ {
		e := spreadBits(ctl[w>>1] >> uint(32*(w&1)))
		for b := w; b < len(planes); b += words {
			x := planes[b]
			d := (x ^ x>>1) & e
			planes[b] = x ^ (d | d<<1)
		}
	}
}

// RouteBits routes the input bit vector through the splitter and returns the
// output vector together with the switch controls (for slaved slices).
// Output 2t is the upper (even) output of switch t, output 2t+1 the lower
// (odd) output.
func (s *Splitter) RouteBits(bits []uint8) (out []uint8, controls []bool, err error) {
	controls, err = s.Controls(bits)
	if err != nil {
		return nil, nil, err
	}
	out = append([]uint8(nil), bits...)
	if err := ApplyInPlace(controls, out); err != nil {
		return nil, nil, err
	}
	return out, controls, nil
}

// ApplyInPlace routes an arbitrary payload through a switch column driven by
// the given controls, modeling the slaved sw(1)s of the non-BSN slices of a
// nested network: lines 2t and 2t+1 are exchanged where controls[t] is set.
// A 2x2 switch only ever swaps its pair, so no second buffer is needed.
// len(lines) must be exactly twice len(controls).
func ApplyInPlace[T any](controls []bool, lines []T) error {
	if len(lines) != 2*len(controls) {
		return fmt.Errorf("splitter: payload length %d does not match %d switches",
			len(lines), len(controls))
	}
	for t, exchange := range controls {
		if exchange {
			lines[2*t], lines[2*t+1] = lines[2*t+1], lines[2*t]
		}
	}
	return nil
}

// Balance returns the number of 1-bits on even-numbered and odd-numbered
// positions of a bit vector — the quantities M_e and M_o of Definition 3.
func Balance(bits []uint8) (even, odd int) {
	for j, b := range bits {
		if b == 1 {
			if j%2 == 0 {
				even++
			} else {
				odd++
			}
		}
	}
	return even, odd
}
