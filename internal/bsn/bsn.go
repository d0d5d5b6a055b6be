// Package bsn implements the bit-sorter network of Lee & Lu's Definition 4:
// a one-bit-slice generalized baseline network whose switching boxes are
// splitters. Given an input bit vector with exactly half 0s and half 1s, the
// BSN self-routes so that every even-numbered output carries 0 and every
// odd-numbered output carries 1 (Theorem 1).
//
// The BSN is the routing engine of the BNB network: inside a nested network
// it is the slice that decodes one destination-address bit, and its switch
// settings drive the slaved switch columns of every other slice.
package bsn

import (
	"fmt"

	"repro/internal/gbn"
	"repro/internal/splitter"
)

// Network is a 2^k-input bit-sorter network. Construct with New.
type Network struct {
	top gbn.Topology
	// sps[i] is the splitter sp(k-i) shared by all boxes of stage i; the
	// splitter is stateless so one instance per size suffices.
	sps []*splitter.Splitter
}

// New constructs a 2^k-input BSN.
func New(k int) (*Network, error) {
	top, err := gbn.New(k)
	if err != nil {
		return nil, fmt.Errorf("bsn: %w", err)
	}
	sps := make([]*splitter.Splitter, k)
	for i := 0; i < k; i++ {
		sp, err := splitter.New(top.BoxOrder(i))
		if err != nil {
			return nil, fmt.Errorf("bsn: %w", err)
		}
		sps[i] = sp
	}
	return &Network{top: top, sps: sps}, nil
}

// K returns the network order (number of stages).
func (n *Network) K() int { return n.top.M() }

// Inputs returns the number of network inputs, 2^k.
func (n *Network) Inputs() int { return n.top.Inputs() }

// Topology exposes the underlying GBN topology.
func (n *Network) Topology() gbn.Topology { return n.top }

// Controls records the switch settings chosen by every splitter during one
// routing pass: Controls[i][l] holds the control bits of stage-i box l, one
// bool per 2x2 switch (true = exchange).
type Controls [][][]bool

// Sort routes the bit vector through the network and returns the sorted
// output along with the switch settings of every splitter. bits must contain
// exactly 2^k values in {0,1} with exactly half of them 1 — the operating
// assumption of Theorem 1.
func (n *Network) Sort(bits []uint8) ([]uint8, Controls, error) {
	if len(bits) != n.Inputs() {
		return nil, nil, fmt.Errorf("bsn: got %d inputs, want %d", len(bits), n.Inputs())
	}
	ones := 0
	for i, b := range bits {
		if b > 1 {
			return nil, nil, fmt.Errorf("bsn: input %d has non-binary value %d", i, b)
		}
		ones += int(b)
	}
	if ones*2 != n.Inputs() {
		return nil, nil, fmt.Errorf("bsn: need exactly %d one-bits, got %d", n.Inputs()/2, ones)
	}

	controls := make(Controls, n.K())
	for i := range controls {
		controls[i] = make([][]bool, n.top.BoxesInStage(i))
	}
	out := append([]uint8(nil), bits...)
	if err := gbn.RunInPlace[uint8](n.top, out, make([]uint8, len(out)), sorter{n: n, controls: controls}); err != nil {
		return nil, nil, fmt.Errorf("bsn: %w", err)
	}
	return out, controls, nil
}

// sorter routes the splitter boxes of one Sort pass in place, recording each
// box's switch settings.
type sorter struct {
	n        *Network
	controls Controls
}

// RouteStage implements gbn.StageRouter: every splitter of the stage in
// turn.
func (s sorter) RouteStage(stage int, lines []uint8) (int, error) {
	size := s.n.top.BoxSize(stage)
	for l := range s.controls[stage] {
		box := lines[l*size : (l+1)*size]
		ctl, err := s.n.sps[stage].Controls(box)
		if err != nil {
			return l, err
		}
		s.controls[stage][l] = ctl
		if err := splitter.ApplyInPlace(ctl, box); err != nil {
			return l, err
		}
	}
	return 0, nil
}

// Sorted reports whether a bit vector satisfies the Theorem 1 postcondition:
// 0 on every even output, 1 on every odd output.
func Sorted(bits []uint8) bool {
	for j, b := range bits {
		if int(b) != j%2 {
			return false
		}
	}
	return true
}

// SplitterCount returns the number of splitters in the network:
// stage-i holds 2^i of them, totalling 2^k - 1.
func (n *Network) SplitterCount() int {
	total := 0
	for i := 0; i < n.K(); i++ {
		total += n.top.BoxesInStage(i)
	}
	return total
}

// SwitchCount returns the total number of 2x2 switches across all splitters:
// (2^k / 2) * k, the one-bit-slice switch cost of equation (3).
func (n *Network) SwitchCount() int { return n.top.SwitchCount() }

// ArbiterNodes returns the total number of arbiter function nodes in the
// network: the quantity C_{NB,A} of the paper's equation (4),
// P·log(P/2) - P/2 + 1 for P = 2^k.
func (n *Network) ArbiterNodes() int {
	total := 0
	for i := 0; i < n.K(); i++ {
		total += n.top.BoxesInStage(i) * n.sps[i].ArbiterNodes()
	}
	return total
}

// CriticalPathFN returns the network's routing-decision critical path in
// function-node delays: the sum over stages of each splitter's arbiter
// up-and-down traversal, 2·sum_{l=2..k} l.
func (n *Network) CriticalPathFN() int {
	total := 0
	for i := 0; i < n.K(); i++ {
		total += n.sps[i].CriticalPath()
	}
	return total
}

// CriticalPathSW returns the switch contribution to the critical path in
// D_SW units: one switch column per stage.
func (n *Network) CriticalPathSW() int { return n.K() }
