package bnbnet

// This file exposes the reproduction's extension studies — analyses the
// paper gestures at but does not carry out — through the public API:
// the information-theoretic switch lower bound, pipelined operation,
// gate-level validation of the bit-sorter network, the omega-network
// blocking quantification, and partial-permutation padding.

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/batcher"
	"repro/internal/bitonic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gatesim"
	"repro/internal/omega"
	"repro/internal/perm"
	"repro/internal/render"
	"repro/internal/waksman"
)

// LowerBoundRow reports a network's 2x2-switch spend against the
// information-theoretic minimum ceil(log2(N!)).
type LowerBoundRow = cost.LowerBoundRow

// LowerBoundComparison evaluates every design's switch count against the
// log2(N!) bound at order m (data path only, w = 0).
func LowerBoundComparison(m int) ([]LowerBoundRow, error) {
	return cost.LowerBoundComparison(m)
}

// PipelineReport describes pipelined operation of a staged network.
type PipelineReport = cost.PipelineReport

// PipelineBNB analyzes the BNB network pipelined at switch-column
// granularity.
func PipelineBNB(m, w int) (PipelineReport, error) { return cost.BNBPipeline(m, w) }

// CompletePerm pads a partial destination assignment (-1 = idle input) to a
// full permutation by giving idle inputs the unused outputs in order — the
// dummy-cell discipline sorting-network fabrics use every cycle.
func CompletePerm(partial []int) (Perm, error) { return perm.Complete(partial) }

// GateReport summarizes the gate-level compilation of a 2^k-input
// bit-sorter network: the control and data plane of one BNB slice compiled
// to XOR/AND/OR/NOT/mux gates.
type GateReport struct {
	// Inputs is the network size 2^k.
	Inputs int
	// LogicGates is the total gate count excluding inputs/constants.
	LogicGates int
	// Muxes, Xors, Ands, Ors, Nots break the count down by kind.
	Muxes, Xors, Ands, Ors, Nots int
	// CriticalPathGates is the measured logic depth in unit gate delays.
	CriticalPathGates int
	// SpareGates counts gates outside the outputs' fan-in cone — the
	// paper's unused "other flags", kept for conflict handling in other
	// applications.
	SpareGates int
}

// GateLevelBSN compiles the 2^k-input bit-sorter network to gates and
// reports its inventory and measured critical path. The compiled circuit is
// proven equivalent to the behavioural network in the test suite.
func GateLevelBSN(k int) (GateReport, error) {
	c, err := gatesim.BuildBSN(k)
	if err != nil {
		return GateReport{}, err
	}
	nl := c.Netlist
	cp, err := nl.CriticalPath(c.Outputs)
	if err != nil {
		return GateReport{}, err
	}
	cone, err := nl.FanInCone(c.Outputs)
	if err != nil {
		return GateReport{}, err
	}
	// In a compiled BSN every primary input feeds a switch (so inputs are
	// always inside the cone) and no constant gates exist, so the spare
	// count is exactly the out-of-cone gates.
	spare := 0
	for _, in := range cone {
		if !in {
			spare++
		}
	}
	return GateReport{
		Inputs:            1 << uint(k),
		LogicGates:        nl.LogicGates(),
		Muxes:             nl.CountKind(gatesim.KindMux),
		Xors:              nl.CountKind(gatesim.KindXor),
		Ands:              nl.CountKind(gatesim.KindAnd),
		Ors:               nl.CountKind(gatesim.KindOr),
		Nots:              nl.CountKind(gatesim.KindNot),
		CriticalPathGates: cp,
		SpareGates:        spare,
	}, nil
}

// ExpectedBSNGateDepth returns the closed-form gate-level critical path of
// the compiled BSN: k^2 + 4k - 4 for k >= 2 (1 for k = 1).
func ExpectedBSNGateDepth(k int) int { return gatesim.ExpectedBSNGateDepth(k) }

// OmegaReport quantifies the blocking of the log N-stage omega network —
// the structural foil motivating permutation networks.
type OmegaReport struct {
	// Inputs is N.
	Inputs int
	// Switches is the switch count (N/2) log N.
	Switches int
	// RoutablePermutations is the exact count 2^{(N/2) log N} of
	// realizable permutations (out of N!).
	RoutablePermutations float64
	// SampledPassRate is the measured fraction of random permutations that
	// route without conflict.
	SampledPassRate float64
}

// OmegaStudy builds an omega network of order m and measures its blocking
// on `trials` random permutations.
func OmegaStudy(m, trials int, rng *rand.Rand) (OmegaReport, error) {
	n, err := omega.New(m)
	if err != nil {
		return OmegaReport{}, err
	}
	rate, err := n.PassRate(trials, rng)
	if err != nil {
		return OmegaReport{}, err
	}
	return OmegaReport{
		Inputs:               n.Inputs(),
		Switches:             n.Switches(),
		RoutablePermutations: n.RoutablePermutations(),
		SampledPassRate:      rate,
	}, nil
}

// FigBatcher renders the odd-even sorting network of order m as a
// Knuth-style comparator diagram.
func FigBatcher(m int) (string, error) {
	n, err := batcher.New(m, 0)
	if err != nil {
		return "", err
	}
	return render.BatcherDiagram(n), nil
}

// ---------------------------------------------------------------------------
// Waksman network
// ---------------------------------------------------------------------------

type waksmanNetwork struct{ n *waksman.Network }

func newWaksmanNetwork(m int) (Network, error) {
	n, err := waksman.New(m)
	if err != nil {
		return nil, err
	}
	return waksmanNetwork{n: n}, nil
}

func (w waksmanNetwork) Name() string { return "waksman" }

func (w waksmanNetwork) Inputs() int { return w.n.Inputs() }

func (w waksmanNetwork) Route(words []Word) ([]Word, error) {
	return routeArranged("waksman", w.n.Inputs(), words, func(p Perm) (Perm, error) {
		arrangement, _, err := w.n.Route(p)
		return arrangement, err
	})
}

func (w waksmanNetwork) RoutePerm(p Perm) ([]Word, error) { return w.Route(permWords(p)) }

func (w waksmanNetwork) Cost() Cost { return Cost{Switches: w.n.Switches()} }

func (w waksmanNetwork) Delay() Delay {
	// Same stage depth as the Beneš network: 2 logN - 1 switch columns.
	return Delay{SwitchUnits: 2*w.n.M() - 1}
}

// ---------------------------------------------------------------------------
// Bitonic network
// ---------------------------------------------------------------------------

type bitonicNetwork struct{ n *bitonic.Network }

func newBitonicNetwork(m int) (Network, error) {
	n, err := bitonic.New(m)
	if err != nil {
		return nil, err
	}
	return bitonicNetwork{n: n}, nil
}

func (b bitonicNetwork) Name() string { return "bitonic" }

func (b bitonicNetwork) Inputs() int { return b.n.Inputs() }

func (b bitonicNetwork) Route(words []Word) ([]Word, error) {
	return routeConverted(words, b.n.Route)
}

func (b bitonicNetwork) RoutePerm(p Perm) ([]Word, error) { return b.Route(permWords(p)) }

func (b bitonicNetwork) Cost() Cost {
	m := b.n.M()
	c := b.n.Comparators()
	// Same per-comparator slice model as the odd-even network: (logN + w)
	// switch slices and logN compare slices, with w = 0 here.
	return Cost{Switches: c * m, FunctionSlices: c * m}
}

func (b bitonicNetwork) Delay() Delay {
	return Delay{SwitchUnits: b.n.Stages(), FunctionUnits: b.n.Stages() * b.n.M()}
}

// BaselineStudy mirrors OmegaStudy for the plain baseline network — the
// bare GBN skeleton with destination-tag routing. Same 2^{(N/2)logN}
// routable count as omega over different wiring; notably it blocks even the
// identity permutation for m >= 2 (stage 0 consumes the MSB while adjacent
// inputs differ in the LSB).
func BaselineStudy(m, trials int, rng *rand.Rand) (OmegaReport, error) {
	n, err := baseline.New(m)
	if err != nil {
		return OmegaReport{}, err
	}
	rate, err := n.PassRate(trials, rng)
	if err != nil {
		return OmegaReport{}, err
	}
	return OmegaReport{
		Inputs:               n.Inputs(),
		Switches:             n.Switches(),
		RoutablePermutations: n.RoutablePermutations(),
		SampledPassRate:      rate,
	}, nil
}

// FigRouteInstance renders one routed permutation through a BNB network of
// order m as a stage-by-stage address table — the dynamic companion of the
// structural figures.
func FigRouteInstance(m int, p Perm) (string, error) {
	n, err := core.New(m, 0)
	if err != nil {
		return "", err
	}
	return render.RouteInstance(n, p)
}

// FigSplitterInstance renders one concrete splitter decision — the arbiter
// states, flags, switch settings and balanced output — for the given input
// bit vector on sp(p).
func FigSplitterInstance(p int, bits []uint8) (string, error) {
	return render.SplitterInstance(p, bits)
}
