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
// contract violations surface at the point of failure.
func (s *Splitter) Controls(bits []uint8) ([]bool, error) {
	controls := make([]bool, s.Switches())
	if err := s.ControlsInto(controls, bits, make([]uint8, arbiter.WorkSize(s.p))); err != nil {
		return nil, err
	}
	return controls, nil
}

// WorkSize returns the scratch length ControlsInto requires for sp(p).
func WorkSize(p int) int { return arbiter.WorkSize(p) }

// ControlsInto computes the same switch settings as Controls without
// allocating: controls receives one setting per 2x2 switch (len 2^{p-1}) and
// work supplies the arbiter's level storage (len >= WorkSize(p)). bits must
// not alias work. This is the routing hot path; callers recycle controls and
// work across routes.
func (s *Splitter) ControlsInto(controls []bool, bits, work []uint8) error {
	if len(bits) != s.Inputs() {
		return fmt.Errorf("splitter: got %d inputs, want %d", len(bits), s.Inputs())
	}
	if len(controls) != s.Switches() {
		return fmt.Errorf("splitter: got %d control slots, want %d", len(controls), s.Switches())
	}
	if s.p >= 2 {
		ones := 0
		for _, b := range bits {
			ones += int(b)
		}
		if ones%2 != 0 {
			return fmt.Errorf("splitter: sp(%d) requires an even number of 1-bits, got %d", s.p, ones)
		}
	} else {
		// Definition 3 for p = 1: one input 0 and the other 1.
		if bits[0]^bits[1] != 1 {
			return fmt.Errorf("splitter: sp(1) requires one 0 and one 1 input, got %d,%d", bits[0], bits[1])
		}
	}
	flags, err := s.tree.FlagsInto(bits, work)
	if err != nil {
		return fmt.Errorf("splitter: %w", err)
	}
	for t := range controls {
		controls[t] = bits[2*t]^flags[2*t] == 1
	}
	return nil
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
