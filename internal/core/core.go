// Package core implements the BNB (baseline-nesting-baseline) self-routing
// permutation network — the primary contribution of Lee & Lu (ICDCS 1991).
//
// Per Definition 5, an N = 2^m input BNB network is a two-level nesting of
// generalized baseline networks: the main GBN has m stages whose stage-i
// switching boxes are themselves q-bit-slice nested GBNs of 2^{m-i} inputs.
// Inside the nested network NB(i,l), the slice that carries bit i of the
// destination address is a bit-sorter network (splitters); every other slice
// is a column of simple switches slaved to the BSN's switch settings. The
// nested network therefore sorts its words by address bit i, and the main
// network's 2^{m-i}-unshuffle connection delivers the 0-half to NB(i+1,2l)
// and the 1-half to NB(i+1,2l+1) — an MSB-first binary radix sort that
// self-routes every one of the N! permutations (Theorem 2).
//
// The simulation carries the m address slices as bit planes, one N-bit
// bitset per address bit, through every switch column: the BSN slice of
// main stage i is simply plane m-1-i, and every other plane follows its
// switch controls, as the hardware's slaved sw(1)s do. The w data slices
// follow the same controls too, so instead of moving them column by column
// the kernel moves each word once, at the end: the word on output j is the
// one that offered the address the planes delivered there. Hardware and
// delay accounting are performed
// structurally (component counting over the constructed geometry) in the
// same C_SW/C_FN/D_SW/D_FN units as the paper's Section 5 and are reconciled
// against the closed forms in package cost.
package core

import (
	"fmt"
	"sync"

	"repro/internal/gbn"
	"repro/internal/neterr"
	"repro/internal/perm"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// MaxDataBits bounds the data-word width w; data rides in a uint64.
const MaxDataBits = 64

// Word is one network input: an m-bit destination address and a w-bit data
// payload. In the hardware each word occupies q = m + w one-bit slices; the
// simulator carries the address slices as bit planes and moves the word as
// a unit once its output is known.
type Word struct {
	// Addr is the destination output index in [0, N).
	Addr int
	// Data is the payload carried alongside the address (w bits).
	Data uint64
}

// Network is an N = 2^m input BNB self-routing permutation network carrying
// w data bits per word. Construct with New; a Network is immutable and safe
// for concurrent use by multiple goroutines.
type Network struct {
	m, w int
	// nested[i] is the topology of the stage-i nested networks (order m-i);
	// nested[0] has the main network's order.
	nested []gbn.Topology
	// sps[p] is the shared splitter instance sp(p), 1 <= p <= m.
	sps []*splitter.Splitter
	// pool recycles per-route scratch (see scratch.go); it is the only
	// mutable field and is internally synchronized, preserving the
	// concurrent-use contract.
	pool sync.Pool
}

// New constructs a BNB network with 2^m inputs and w data bits per word.
func New(m, w int) (*Network, error) {
	if err := wiring.CheckOrder(m); err != nil {
		return nil, fmt.Errorf("bnb: %w", err)
	}
	if w < 0 || w > MaxDataBits {
		return nil, fmt.Errorf("bnb: data width w=%d out of range [0,%d]", w, MaxDataBits)
	}
	nested := make([]gbn.Topology, m)
	for i := 0; i < m; i++ {
		nt, err := gbn.New(m - i)
		if err != nil {
			return nil, fmt.Errorf("bnb: nested stage %d: %w", i, err)
		}
		nested[i] = nt
	}
	sps := make([]*splitter.Splitter, m+1)
	for p := 1; p <= m; p++ {
		sp, err := splitter.New(p)
		if err != nil {
			return nil, fmt.Errorf("bnb: %w", err)
		}
		sps[p] = sp
	}
	net := &Network{m: m, w: w, nested: nested, sps: sps}
	net.pool.New = func() any { return newScratch(net) }
	return net, nil
}

// M returns the network order (log2 of the input count).
func (n *Network) M() int { return n.m }

// W returns the data width in bits.
func (n *Network) W() int { return n.w }

// Inputs returns the number of network inputs N = 2^m.
func (n *Network) Inputs() int { return 1 << uint(n.m) }

// Route self-routes the words to the network outputs. The destination
// addresses must form a permutation of {0, ..., N-1}; output j of the result
// holds the word whose address is j. The input slice is not modified. Route
// runs on the pooled hot path, allocating only the result slice; callers who
// also own the output buffer can use RouteInto and allocate nothing.
func (n *Network) Route(words []Word) ([]Word, error) {
	out := make([]Word, n.Inputs())
	if err := n.RouteInto(out, words); err != nil {
		return nil, err
	}
	return out, nil
}

// RouteTraced behaves like Route and additionally returns the word vector as
// it appears at the input of every main stage plus the final output
// (Stages()+1 snapshots), for stage-by-stage inspection. The snapshots are
// taken by the kernel's Override hook: at column 0 of main stage i it
// unpacks the address planes, which then hold that stage's input, and
// gathers the word offering each address.
func (n *Network) RouteTraced(words []Word) ([]Word, [][]Word, error) {
	N := n.Inputs()
	trace := make([][]Word, n.m+1)
	for i := range trace {
		trace[i] = make([]Word, N)
	}
	out := make([]Word, N)
	if err := n.checkSizes(out, words); err != nil {
		return nil, nil, err
	}
	sc := n.pool.Get().(*scratch)
	defer n.release(sc)
	snapshot := func(mainStage, column int, _ []uint64) {
		if column == 0 {
			applyWire(trace[mainStage], words, sc.wire())
		}
	}
	if err := n.route(sc, out, words, snapshot); err != nil {
		return nil, nil, err
	}
	copy(trace[n.m], out)
	return out, trace, nil
}

// RoutePerm routes a bare permutation: input i carries destination p[i] and
// data equal to the source index, so the result doubles as a delivery
// receipt. It returns the inverse arrangement as words.
func (n *Network) RoutePerm(p perm.Perm) ([]Word, error) {
	if len(p) != n.Inputs() {
		return nil, fmt.Errorf("bnb: permutation length %d, want %d: %w", len(p), n.Inputs(), neterr.ErrBadSize)
	}
	words := make([]Word, len(p))
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	return n.Route(words)
}

// Delivered reports whether out satisfies the permutation-network contract:
// out[j].Addr == j for every output j.
func Delivered(out []Word) bool {
	for j, wd := range out {
		if wd.Addr != j {
			return false
		}
	}
	return true
}

// Hardware summarizes the structural component counts of the network in the
// paper's cost units. Counts are produced by walking the constructed
// geometry, not by evaluating the closed forms, so tests can reconcile the
// two independently.
type Hardware struct {
	// Switches is the number of 2x2 switches across all slices of all nested
	// networks, in C_SW units (the switch term of equation (6)).
	Switches int
	// FunctionNodes is the number of arbiter function nodes, in C_FN units
	// (the function-node term of equation (6)).
	FunctionNodes int
	// Splitters is the number of splitters across all bit-sorter slices.
	Splitters int
	// NestedNetworks is the number of nested GBNs (one per main-network box).
	NestedNetworks int
	// SlicesNaive is the total slice count when every nested network carries
	// the full q = m + w slices of Definition 5 (no dead-slice elimination).
	SlicesNaive int
	// SlicesOptimized is the slice count actually charged by the paper's
	// equation (2): log P + w per nested network of size P, because address
	// bits already consumed are constant within a nested network.
	SlicesOptimized int
	// SwitchesNaive is the switch count under the naive q-slice layout; the
	// difference to Switches is the dead-slice ablation of DESIGN.md §5.
	SwitchesNaive int
}

// CountHardware walks the network geometry and tallies every component.
func (n *Network) CountHardware() Hardware {
	var h Hardware
	for i := 0; i < n.m; i++ {
		nt := n.nested[i]
		boxes := 1 << uint(i) // nested networks in main stage i
		h.NestedNetworks += boxes
		p := nt.M() // log P for this stage's nested networks
		slicesOpt := p + n.w
		slicesNaive := n.m + n.w
		perSliceSwitches := nt.SwitchCount() // (P/2)·log P
		h.Switches += boxes * perSliceSwitches * slicesOpt
		h.SwitchesNaive += boxes * perSliceSwitches * slicesNaive
		h.SlicesOptimized += boxes * slicesOpt
		h.SlicesNaive += boxes * slicesNaive
		// The BSN slice adds splitters (arbiter nodes).
		for j := 0; j < nt.Stages(); j++ {
			splittersHere := nt.BoxesInStage(j)
			h.Splitters += boxes * splittersHere
			h.FunctionNodes += boxes * splittersHere * n.sps[nt.BoxOrder(j)].ArbiterNodes()
		}
	}
	return h
}

// Delay summarizes the critical-path delay of the network in the paper's
// D_SW/D_FN units, measured over the constructed geometry.
type Delay struct {
	// SwitchStages is the number of 2x2 switch columns on the path from any
	// input to any output (the D_SW coefficient of equation (7)).
	SwitchStages int
	// FunctionNodeLevels is the total arbiter up-and-down traversal along
	// the path (the D_FN coefficient of equation (8)).
	FunctionNodeLevels int
}

// Total returns the delay in common time units given the per-component
// delays dsw and dfn.
func (d Delay) Total(dsw, dfn float64) float64 {
	return float64(d.SwitchStages)*dsw + float64(d.FunctionNodeLevels)*dfn
}

// MeasureDelay walks the constructed geometry and accumulates the critical
// path: every nested stage contributes one switch column, and each splitter
// on the path contributes its arbiter's up-and-down traversal.
func (n *Network) MeasureDelay() Delay {
	var d Delay
	for i := 0; i < n.m; i++ {
		nt := n.nested[i]
		for j := 0; j < nt.Stages(); j++ {
			d.SwitchStages++
			d.FunctionNodeLevels += n.sps[nt.BoxOrder(j)].CriticalPath()
		}
	}
	return d
}
