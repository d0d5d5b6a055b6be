// Package omega implements the omega (shuffle-exchange) network — the
// canonical single-path banyan network of Lawrie 1975, reference [2] of
// Lee & Lu. It is the structural foil for the permutation networks in this
// repository: with log N stages it is cheap, self-routing by destination
// tags, and blocking. Because every input-output pair has exactly one path,
// a full switch setting determines a unique permutation and vice versa, so
// the network passes exactly 2^{(N/2)·log N} of the N! permutations — a
// vanishing fraction that quantifies *why* permutation networks like the
// BNB design need more than log N stages.
package omega

import (
	"fmt"
	"math/rand"

	"repro/internal/perm"
	"repro/internal/wiring"
)

// Network is an N = 2^m input omega network: m stages, each a perfect
// shuffle followed by a column of N/2 two-by-two switches. Construct with
// New; the Network is immutable and safe for concurrent use.
type Network struct {
	m int
}

// New constructs an omega network of order m.
func New(m int) (*Network, error) {
	if err := wiring.CheckOrder(m); err != nil {
		return nil, fmt.Errorf("omega: %w", err)
	}
	return &Network{m: m}, nil
}

// M returns the network order.
func (n *Network) M() int { return n.m }

// Inputs returns the number of inputs N = 2^m.
func (n *Network) Inputs() int { return 1 << uint(n.m) }

// Stages returns the number of switching stages, log N.
func (n *Network) Stages() int { return n.m }

// Switches returns the number of 2x2 switches, (N/2)·log N.
func (n *Network) Switches() int { return n.Inputs() / 2 * n.m }

// RoutablePermutations returns the exact number of permutations the network
// can realize: 2^{(N/2)·log N}, one per switch setting (settings biject with
// realizable permutations in a unique-path network under full load). The
// result is returned as a float64 because it overflows integers already at
// N = 16.
func (n *Network) RoutablePermutations() float64 {
	exp := n.Switches()
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= 2
	}
	return out
}

// Route attempts destination-tag self-routing of the permutation: stage t
// consumes destination bit m-1-t (MSB first). It reports whether the
// permutation is passable and the number of conflicted switches (a conflict
// is resolved arbitrarily so the count reflects all blocked switches, not
// just the first).
func (n *Network) Route(p perm.Perm) (ok bool, conflicts int, err error) {
	if len(p) != n.Inputs() {
		return false, 0, fmt.Errorf("omega: permutation length %d, want %d", len(p), n.Inputs())
	}
	if err := p.Validate(); err != nil {
		return false, 0, fmt.Errorf("omega: %w", err)
	}
	size := n.Inputs()
	cur := p.Clone() // cur[line] = destination of the packet on the line
	next := make(perm.Perm, size)
	for t := 0; t < n.m; t++ {
		// Perfect shuffle wiring: line i moves to RotateLeft(i).
		for i := 0; i < size; i++ {
			next[wiring.RotateLeft(i, n.m)] = cur[i]
		}
		cur, next = next, cur
		// Switch column: the packet wants output port = destination bit m-1-t.
		for k := 0; k < size/2; k++ {
			a, b := cur[2*k], cur[2*k+1]
			wantA := wiring.Bit(a, n.m-1-t)
			wantB := wiring.Bit(b, n.m-1-t)
			if wantA == wantB {
				conflicts++
				wantA = 0 // arbitrary resolution to keep walking
			}
			if wantA == 1 {
				a, b = b, a
			}
			cur[2*k], cur[2*k+1] = a, b
		}
	}
	if conflicts > 0 {
		return false, conflicts, nil
	}
	for j, d := range cur {
		if d != j {
			return false, 0, fmt.Errorf("omega: internal error: conflict-free pass misdelivered %d to %d", d, j)
		}
	}
	return true, 0, nil
}

// PassRate estimates the fraction of uniformly random permutations the
// network passes.
func (n *Network) PassRate(trials int, rng *rand.Rand) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("omega: trials must be positive, got %d", trials)
	}
	okCount := 0
	for t := 0; t < trials; t++ {
		ok, _, err := n.Route(perm.Random(n.Inputs(), rng))
		if err != nil {
			return 0, err
		}
		if ok {
			okCount++
		}
	}
	return float64(okCount) / float64(trials), nil
}
