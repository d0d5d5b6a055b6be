// Package baseline implements the plain baseline network of Wu & Feng
// (Lee & Lu's reference [12]): the GBN of Definition 2 with every switching
// box realized as a single column of 2x2 switches. It is the skeleton the
// BNB network nests and equips with splitters; on its own, with one-bit
// destination-tag routing, it is a unique-path banyan that blocks on most
// permutations — routing exactly 2^{(N/2)·log N} of the N! like the omega
// network, just over different wiring.
//
// The package quantifies precisely what the BNB additions buy: same
// inter-stage wiring, same radix-sort bit order (stage i consumes address
// bit i, MSB first), but log N single-switch columns instead of the
// splitter-driven nested networks.
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/gbn"
	"repro/internal/perm"
	"repro/internal/wiring"
)

// Network is an N = 2^m input baseline network under destination-tag
// self-routing. Construct with New; it is immutable and safe for concurrent
// use.
type Network struct {
	top gbn.Topology
}

// New constructs the baseline network of order m.
func New(m int) (*Network, error) {
	top, err := gbn.New(m)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	return &Network{top: top}, nil
}

// M returns the network order.
func (n *Network) M() int { return n.top.M() }

// Inputs returns the number of inputs N = 2^m.
func (n *Network) Inputs() int { return n.top.Inputs() }

// Stages returns the number of switch columns, log N.
func (n *Network) Stages() int { return n.top.Stages() }

// Switches returns the 2x2-switch count, (N/2)·log N.
func (n *Network) Switches() int { return n.top.SwitchCount() }

// RoutablePermutations returns the exact number of realizable permutations,
// 2^{(N/2)·log N} — the unique-path banyan count.
func (n *Network) RoutablePermutations() float64 {
	out := 1.0
	for i := 0; i < n.Switches(); i++ {
		out *= 2
	}
	return out
}

// Route attempts destination-tag self-routing: in stage i, each packet
// requests the switch output whose parity equals address bit i (the paper's
// MSB-first convention), because even box outputs feed the upper child box.
// It reports whether the permutation passed and the number of conflicted
// switches (resolved arbitrarily to keep counting).
func (n *Network) Route(p perm.Perm) (ok bool, conflicts int, err error) {
	if len(p) != n.Inputs() {
		return false, 0, fmt.Errorf("baseline: permutation length %d, want %d", len(p), n.Inputs())
	}
	if err := p.Validate(); err != nil {
		return false, 0, fmt.Errorf("baseline: %w", err)
	}
	dests := make([]int, len(p))
	copy(dests, p)
	r := &tagRouter{m: n.M()}
	if err := gbn.RunInPlace[int](n.top, dests, make([]int, len(dests)), r); err != nil {
		return false, 0, fmt.Errorf("baseline: %w", err)
	}
	if r.conflicts > 0 {
		return false, r.conflicts, nil
	}
	for j, d := range dests {
		if d != j {
			return false, 0, fmt.Errorf("baseline: internal error: conflict-free pass misdelivered %d to %d", d, j)
		}
	}
	return true, 0, nil
}

// tagRouter sets every 2x2 switch of a stage from its two packets' address
// bit for the stage, counting the switches where both packets request the
// same output (the conflict resolves as straight). A box is one switch
// column, so the stage's switches are simply its consecutive line pairs.
type tagRouter struct {
	m, conflicts int
}

// RouteStage implements gbn.StageRouter.
func (r *tagRouter) RouteStage(stage int, lines []int) (int, error) {
	for k := 0; k+1 < len(lines); k += 2 {
		wantA := wiring.AddrBit(lines[k], stage, r.m)
		if wantA == wiring.AddrBit(lines[k+1], stage, r.m) {
			r.conflicts++
			continue
		}
		if wantA == 1 {
			lines[k], lines[k+1] = lines[k+1], lines[k]
		}
	}
	return 0, nil
}

// Passable reports whether p routes without conflict.
func (n *Network) Passable(p perm.Perm) (bool, error) {
	ok, _, err := n.Route(p)
	return ok, err
}

// PassRate estimates the fraction of random permutations that pass.
func (n *Network) PassRate(trials int, rng *rand.Rand) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("baseline: trials must be positive, got %d", trials)
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
