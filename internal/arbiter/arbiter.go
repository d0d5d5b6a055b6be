// Package arbiter implements the tree-structured arbiter A(p) of Lee & Lu's
// Section 4 — the control logic of the splitter. The arbiter receives the
// 2^p one-bit inputs of a splitter, propagates XOR state up the tree and
// flags down the tree, and delivers one flag per input; XOR-ing each input
// bit with its flag yields the switch settings that split the 1-bits evenly
// between the even and odd outputs.
//
// The function node (the paper's Fig. 5) is modeled twice: behaviourally,
// as the up/down rules of the routing algorithm, and at gate level, as the
// four-gate circuit the paper sketches. Tests prove both agree on every
// input combination.
//
// Up/down rules (the paper's Algorithm, steps 1-4):
//
//  1. each node sends up z_u = x1 XOR x2;
//  2. if z_u == 0 the node generates flags itself: y1 = 0 to its upper
//     child and y2 = 1 to its lower child, ignoring the parent flag;
//  3. if z_u == 1 the node forwards the parent flag z_d to both children;
//  4. at the root, z_u is echoed back as z_d.
package arbiter

import (
	"fmt"
	"math/bits"

	"repro/internal/wiring"
)

// NodeUp computes the state a function node sends to its parent.
func NodeUp(x1, x2 uint8) uint8 {
	return x1 ^ x2
}

// NodeDown computes the flags (y1 for the upper child, y2 for the lower
// child) a function node sends down, given its children state bits and the
// flag z_d received from its parent.
func NodeDown(x1, x2, zd uint8) (y1, y2 uint8) {
	if x1^x2 == 0 {
		return 0, 1
	}
	return zd, zd
}

// NodeDownGates is the gate-level realization of NodeDown per Fig. 5:
// with z_u = x1 XOR x2,
//
//	y1 = z_u AND z_d        (0 when the node self-generates, else z_d)
//	y2 = (NOT z_u) OR z_d   (1 when the node self-generates, else z_d)
//
// It exists so tests can prove the published schematic computes the same
// function as the behavioural rules.
func NodeDownGates(x1, x2, zd uint8) (y1, y2 uint8) {
	zu := x1 ^ x2
	y1 = zu & zd
	y2 = (zu ^ 1) | zd
	return y1, y2
}

// GatesPerNode is the gate inventory of one function node in the Fig. 5
// realization: one XOR (z_u), one AND (y1), one OR and one NOT (y2).
const GatesPerNode = 4

// Tree is an arbiter A(p): a complete binary tree of function nodes over
// 2^p one-bit inputs. A(1) is pure wiring (zero nodes): the single switch of
// a 2x2 splitter is set directly by its upper input bit.
type Tree struct {
	p int
}

// New constructs an arbiter A(p) for a 2^p-input splitter, 1 <= p <= MaxOrder.
func New(p int) (*Tree, error) {
	if p < 1 || p > wiring.MaxOrder {
		return nil, fmt.Errorf("arbiter: p=%d out of range [1,%d]", p, wiring.MaxOrder)
	}
	return &Tree{p: p}, nil
}

// P returns the order of the arbiter (the splitter has 2^P inputs).
func (t *Tree) P() int { return t.p }

// Inputs returns the number of one-bit inputs, 2^p.
func (t *Tree) Inputs() int { return 1 << uint(t.p) }

// Nodes returns the number of function nodes: 2^p - 1 for p >= 2, and 0 for
// the wiring-only A(1) (the paper's cost equation (4) charges A(1) nothing).
func (t *Tree) Nodes() int {
	if t.p < 2 {
		return 0
	}
	return t.Inputs() - 1
}

// CriticalPath returns the arbiter's critical path in function-node delays
// D_FN: the state travels up p node levels and the flag travels down p node
// levels, giving 2p for p >= 2; A(1) is wiring and contributes 0. This is
// the per-splitter term of the paper's delay equation (8).
func (t *Tree) CriticalPath() int {
	if t.p < 2 {
		return 0
	}
	return 2 * t.p
}

// Flags runs the arbiter on the splitter's input bits and returns the flag
// delivered to each input. bits must contain exactly 2^p values in {0,1}.
//
// For A(1) the returned flags are zero: the paper defines sp(1) switch
// setting directly from the input bit, which corresponds to a constant-zero
// flag in the XOR switch-setting rule of Algorithm step 5.
//
// Flags is the scalar reference, one tree node at a time; FlagWords is the
// word-parallel evaluation the routing kernel runs.
func (t *Tree) Flags(bits []uint8) ([]uint8, error) {
	n := t.Inputs()
	if len(bits) != n {
		return nil, fmt.Errorf("arbiter: got %d inputs, want %d", len(bits), n)
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("arbiter: input %d has non-binary value %d", i, b)
		}
	}
	flags := make([]uint8, n)
	if t.p < 2 {
		return flags, nil // A(1): wiring only
	}
	// up[v] holds the states level v sends to its parents; up[0] = inputs.
	up := make([][]uint8, t.p+1)
	up[0] = bits
	for v := 1; v <= t.p; v++ {
		up[v] = make([]uint8, len(up[v-1])/2)
		for i := range up[v] {
			up[v][i] = NodeUp(up[v-1][2*i], up[v-1][2*i+1])
		}
	}
	// Downward pass: at the root the node's own XOR state is echoed as the
	// parent flag (Algorithm step 4); every node hands its children their
	// flags.
	down := []uint8{up[t.p][0]}
	for v := t.p; v >= 1; v-- {
		child := make([]uint8, len(up[v-1]))
		for i, zd := range down {
			child[2*i], child[2*i+1] = NodeDown(up[v-1][2*i], up[v-1][2*i+1], zd)
		}
		down = child
	}
	copy(flags, down)
	return flags, nil
}

// levelMask[v] marks the bits that hold tree level v in the word-parallel
// layout: node i of level v sits at bit i<<v (the position of its subtree's
// first input), so level v occupies the multiples of 2^v.
var levelMask = [7]uint64{
	0xFFFFFFFFFFFFFFFF,
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
	0x0000000000000001,
}

// FlagWords computes the flags of every A(p) tiled across a bitset: bit j
// of x (bit j&63 of x[j>>6]) is input j mod 2^p of tree j/2^p, and the flag
// delivered to that input is written to the same bit of f. It computes
// exactly what Flags computes, input for input, for every tree at once
// (DESIGN.md §7, ALGORITHM.md §2):
//
//   - up pass: after u ^= u >> 2^(v-1) for v = 1..p, the bit at each
//     multiple of 2^v is the XOR of the 2^v inputs from there on — the
//     state node (v, i) sends up (NodeUp);
//   - down pass: the root echoes its own state, and level v hands level v-1
//     the two Fig. 5 gates at once, y1 = z_u AND z_d to the upper child (the
//     same bit) and y2 = NOT z_u OR z_d to the lower child (2^(v-1) bits
//     higher), under the level mask (NodeDownGates).
//
// Trees of up to 64 inputs are evaluated in their word; a wider tree
// treats each word as a six-level subtree, runs the same evaluation over
// the words' parities to find the flag entering each subtree's root, and
// finishes each word from there, so any order up to wiring.MaxOrder works.
// When 2^p > 64, len(x) must be a multiple of 2^p/64; when 2^p <= 64 the
// bits of x past the last tree must be zero, and the matching bits of f are
// unspecified. f must not alias x, and work must hold WorkWords(len(x))
// words.
//
// The up pass leaves every root's state — the XOR of its tree's inputs —
// in hand, so FlagWords also returns the index of the first tree whose
// inputs hold an odd number of 1s, or -1 if there is none. The wiring-only
// A(1) has no root: its flags are zero and it returns -1.
func (t *Tree) FlagWords(f, x, work []uint64) int {
	if t.p < 2 {
		clear(f[:len(x)])
		return -1
	}
	return treeFlags(f, x, t.p, work)
}

// WorkWords returns the scratch FlagWords needs for a bitset of the given
// number of words: two parity words per 64 words at every level of the
// tree above the word.
func WorkWords(words int) int {
	n := 0
	for words > 1 {
		words = (words + 63) / 64
		n += 2 * words
	}
	return n
}

// treeFlags evaluates every order-p tree of x, including p = 1 as a real
// function node (only the top-level A(1) is wiring), and returns the index
// of the first tree whose root state is 1, or -1.
func treeFlags(f, x []uint64, p int, work []uint64) int {
	odd := -1
	if p <= 6 {
		for w, xw := range x {
			var u [7]uint64
			up(&u, xw, p)
			root := u[p] & levelMask[p]
			if root != 0 && odd < 0 {
				odd = (w<<6 | bits.TrailingZeros64(root)) >> uint(p)
			}
			f[w] = down(&u, p, root)
		}
		return odd
	}
	// Every word is a six-level subtree; the levels above it form order
	// p-6 trees over the words' parities, whose roots are the roots of the
	// order-p trees and whose flags are the flags entering each word's
	// subtree root.
	nq := (len(x) + 63) / 64
	par, into := work[:nq], work[nq:2*nq]
	clear(par)
	for w, xw := range x {
		par[w>>6] |= uint64(bits.OnesCount64(xw)&1) << uint(w&63)
	}
	odd = treeFlags(into, par, p-6, work[2*nq:])
	for w, xw := range x {
		var u [7]uint64
		up(&u, xw, 6)
		f[w] = down(&u, 6, into[w>>6]>>uint(w&63)&1)
	}
	return odd
}

// up runs the XOR-fold of levels 1..p: u[v] holds level v at the multiples
// of 2^v (other bits are don't-cares).
func up(u *[7]uint64, x uint64, p int) {
	u[0] = x
	for v := 1; v <= p; v++ {
		u[v] = u[v-1] ^ u[v-1]>>(1<<uint(v-1))
	}
}

// down runs the gate pass from level p (whose flags d holds at the
// multiples of 2^p, zero elsewhere) to the inputs and returns their flags.
func down(u *[7]uint64, p int, d uint64) uint64 {
	for v := p; v >= 1; v-- {
		m := levelMask[v]
		d = u[v]&d&m | (^u[v]|d)&m<<(1<<uint(v-1))
	}
	return d
}

// FlagsGateLevel computes the same flags as Flags but evaluates every node
// with the gate-level realization NodeDownGates, and additionally returns
// the number of gate evaluations performed (the dynamic gate count). It is
// used by tests and by the hardware-reconciliation experiments to tie the
// behavioural model to the published schematic.
func (t *Tree) FlagsGateLevel(bits []uint8) (flags []uint8, gates int, err error) {
	n := t.Inputs()
	if len(bits) != n {
		return nil, 0, fmt.Errorf("arbiter: got %d inputs, want %d", len(bits), n)
	}
	flags = make([]uint8, n)
	if t.p < 2 {
		return flags, 0, nil
	}
	up := make([][]uint8, t.p+1)
	up[0] = bits
	for v := 1; v <= t.p; v++ {
		prev := up[v-1]
		cur := make([]uint8, len(prev)/2)
		for i := range cur {
			cur[i] = prev[2*i] ^ prev[2*i+1] // the node's XOR gate
		}
		up[v] = cur
	}
	down := make([][]uint8, t.p+1)
	down[t.p] = []uint8{up[t.p][0]}
	for v := t.p; v >= 1; v-- {
		child := make([]uint8, len(up[v-1]))
		for i := range up[v] {
			y1, y2 := NodeDownGates(up[v-1][2*i], up[v-1][2*i+1], down[v][i])
			child[2*i], child[2*i+1] = y1, y2
			gates += GatesPerNode
		}
		down[v-1] = child
	}
	copy(flags, down[0])
	return flags, gates, nil
}
