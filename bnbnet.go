// Package bnbnet is a reproduction of "BNB Self-Routing Permutation
// Network" (Sungchang Lee and Mi Lu, ICDCS 1991): a self-routing network
// that realizes all N! permutations of its N = 2^m inputs by running an
// MSB-first binary radix sort over a generalized baseline network, using
// tree-structured one-bit arbiters ("splitters") instead of the log N-bit
// comparators of Batcher's sorting network.
//
// The package exposes:
//
//   - the BNB network itself (New("bnb", m) or NewBNB, with stage tracing
//     and compiled Compile/Replay route plans, all evaluated by one pooled
//     routing kernel) and the paper's comparison baselines — Batcher's
//     odd-even sorting network and bitonic sorter, a functional analogue of
//     the Koppelman-Oruç self-routing network, the Beneš and Waksman
//     networks under global looping routing, and a crossbar — all built
//     through the one constructor registry New(family, m, opts...) behind
//     the common Network interface, with a reusable conformance battery
//     (VerifyNetwork);
//   - the serving stack behind one Router contract: the worker-pool
//     Engine (NewEngine), the self-healing multi-plane Supervised
//     (NewSupervised), and the multi-shard Cluster fabric (NewCluster,
//     WithShards) with live shard membership — each discovered onto the
//     optional BulkRouter/TracedRouter/PlanRouter surfaces via
//     AsBulkRouter/AsTracedRouter/AsPlanRouter, observed via the unified
//     Stats and Publish accessors, and served over HTTP/TCP by
//     cmd/bnbserve;
//   - hardware/delay cost reports in the paper's C_SW/C_FN/D_SW/D_FN units,
//     and the closed-form rows of the paper's Tables 1 and 2 (Table1,
//     Table2, HeadlineRatios);
//   - a cell-switch fabric simulator (NewFabric; FIFO input-queued or
//     virtual-output-queued with WithVOQ) with uniform, permutation and
//     hotspot traffic for system-level workloads;
//   - permutation workload generators (RandomPerm, GeneratePerm and the
//     structured families), and the Beneš bit-controlled self-routing
//     experiment behind the paper's introduction (BenesSelfRouting);
//   - ASCII regenerations of the paper's structural figures (FigGBN,
//     FigBSN, FigBNBProfile, FigSplitter, FigFunctionNode, FigBatcher) and
//     dynamic instances (FigRouteInstance, FigSplitterInstance);
//   - the extension studies: switch lower bound (LowerBoundComparison),
//     pipelined operation (PipelineBNB and friends), gate-level compilation
//     (GateLevelBSN), banyan blocking (OmegaStudy, BaselineStudy), and a
//     machine-readable report of the whole evaluation (FullReport).
package bnbnet

import (
	"fmt"
	"math/rand"

	"repro/internal/batcher"
	"repro/internal/benes"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/crossbar"
	"repro/internal/fabric"
	"repro/internal/koppelman"
	"repro/internal/perm"
	"repro/internal/render"
)

// Word is one network input: an m-bit destination address plus a data
// payload of up to 64 bits.
type Word = core.Word

// Perm is a permutation of {0,...,n-1}; p[i] is the destination of input i.
type Perm = perm.Perm

// Cost reports hardware complexity in the paper's Section 5 units. Fields
// that do not apply to a network are zero.
type Cost struct {
	// Switches counts 2x2 switches (C_SW units).
	Switches int
	// FunctionSlices counts one-bit function-logic slices (C_FN units):
	// arbiter nodes for BNB, comparator slices for Batcher, routing slices
	// for Koppelman.
	FunctionSlices int
	// AdderSlices counts log N-bit adder bit-slices (Koppelman's ranking
	// circuit only).
	AdderSlices int
	// Crosspoints counts crossbar crosspoints (crossbar only).
	Crosspoints int
}

// Total returns the scalar cost under unit prices for every component kind.
func (c Cost) Total() int {
	return c.Switches + c.FunctionSlices + c.AdderSlices + c.Crosspoints
}

// Delay reports the propagation critical path in the paper's units.
type Delay struct {
	// SwitchUnits counts 2x2-switch traversals (D_SW units).
	SwitchUnits int
	// FunctionUnits counts function-node traversals (D_FN units).
	FunctionUnits int
}

// Units returns the total delay with the given per-device delays.
func (d Delay) Units(dsw, dfn float64) float64 {
	return float64(d.SwitchUnits)*dsw + float64(d.FunctionUnits)*dfn
}

// Network is the common interface of every permutation network in this
// repository. Implementations are immutable and safe for concurrent use.
type Network interface {
	// Name identifies the network family ("bnb", "batcher", ...).
	Name() string
	// Inputs returns the port count N.
	Inputs() int
	// Route self-routes the words; the destination addresses must form a
	// permutation of {0,...,N-1}. Output j of the result carries the word
	// addressed to j.
	Route(words []Word) ([]Word, error)
	// RoutePerm routes a bare permutation, carrying each source index as
	// the payload.
	RoutePerm(p Perm) ([]Word, error)
	// Cost reports the hardware complexity of the constructed instance.
	Cost() Cost
	// Delay reports the critical-path delay of the constructed instance.
	Delay() Delay
}

// ---------------------------------------------------------------------------
// BNB
// ---------------------------------------------------------------------------

// BNB is the paper's self-routing permutation network with its full
// extended API: besides the Network interface it offers stage tracing,
// allocation-free RouteInto, and the circuit-switched compute-once/
// replay-many mode (Compile/Replay). A *BNB is immutable and safe for
// concurrent use.
type BNB struct{ n *core.Network }

var _ Network = (*BNB)(nil)

// NewBNB constructs the paper's BNB self-routing permutation network with
// N = 2^m inputs and w data bits per word (0 <= w <= 64). It is the concrete
// constructor behind New("bnb", m, WithDataBits(w)); use it directly when
// the extended *BNB API (tracing, Compile/Replay, RouteInto) is needed.
func NewBNB(m, w int) (*BNB, error) {
	n, err := core.New(m, w)
	if err != nil {
		return nil, err
	}
	return &BNB{n: n}, nil
}

// Name implements Network.
func (b *BNB) Name() string { return "bnb" }

// Inputs implements Network.
func (b *BNB) Inputs() int { return b.n.Inputs() }

// Route implements Network.
func (b *BNB) Route(words []Word) ([]Word, error) { return b.n.Route(words) }

// RoutePerm implements Network.
func (b *BNB) RoutePerm(p Perm) ([]Word, error) { return b.n.RoutePerm(p) }

// Cost implements Network.
func (b *BNB) Cost() Cost {
	h := b.n.CountHardware()
	return Cost{Switches: h.Switches, FunctionSlices: h.FunctionNodes}
}

// Delay implements Network.
func (b *BNB) Delay() Delay {
	d := b.n.MeasureDelay()
	return Delay{SwitchUnits: d.SwitchStages, FunctionUnits: d.FunctionNodeLevels}
}

// RouteTraced routes the words and additionally returns the word vector at
// the input of every main stage plus the final output (m+1 snapshots) — the
// MSB-first radix sort made visible.
func (b *BNB) RouteTraced(words []Word) ([]Word, [][]Word, error) {
	return b.n.RouteTraced(words)
}

// RouteInto routes src into dst over the pooled hot path: after the routing
// scratch pool has warmed up, a RouteInto performs zero heap allocations.
// dst and src must both have length N; dst may be src itself but must not
// otherwise overlap it. Safe for concurrent use.
func (b *BNB) RouteInto(dst, src []Word) error { return b.n.RouteInto(dst, src) }

// ---------------------------------------------------------------------------
// Batcher
// ---------------------------------------------------------------------------

type batcherNetwork struct{ n *batcher.Network }

func newBatcherNetwork(m, w int) (Network, error) {
	n, err := batcher.New(m, w)
	if err != nil {
		return nil, err
	}
	return batcherNetwork{n: n}, nil
}

func (b batcherNetwork) Name() string { return "batcher" }

func (b batcherNetwork) Inputs() int { return b.n.Inputs() }

func (b batcherNetwork) Route(words []Word) ([]Word, error) {
	return routeConverted(words, b.n.Route)
}

func (b batcherNetwork) RoutePerm(p Perm) ([]Word, error) { return b.Route(permWords(p)) }

func (b batcherNetwork) Cost() Cost {
	h := b.n.CountHardware()
	return Cost{Switches: h.Switches, FunctionSlices: h.CompareSlices}
}

func (b batcherNetwork) Delay() Delay {
	d := b.n.MeasureDelay()
	return Delay{SwitchUnits: d.SwitchStages, FunctionUnits: d.FunctionNodeLevels}
}

// ---------------------------------------------------------------------------
// Koppelman analogue
// ---------------------------------------------------------------------------

type koppelmanNetwork struct{ n *koppelman.Network }

func newKoppelmanNetwork(m, w int) (Network, error) {
	n, err := koppelman.New(m, w)
	if err != nil {
		return nil, err
	}
	return koppelmanNetwork{n: n}, nil
}

func (k koppelmanNetwork) Name() string { return "koppelman" }

func (k koppelmanNetwork) Inputs() int { return k.n.Inputs() }

func (k koppelmanNetwork) Route(words []Word) ([]Word, error) {
	return routeConverted(words, k.n.Route)
}

func (k koppelmanNetwork) RoutePerm(p Perm) ([]Word, error) { return k.Route(permWords(p)) }

func (k koppelmanNetwork) Cost() Cost {
	h := k.n.CountHardware()
	return Cost{
		Switches:       h.Switches,
		FunctionSlices: h.FunctionSlices,
		AdderSlices:    h.AdderSlices,
	}
}

// Delay reports the data-path stages of the analogue; the full Table 2
// formula (which includes the ranking-tree traversals) is available via
// Table2.
func (k koppelmanNetwork) Delay() Delay {
	// The analogue's data path mirrors the naive-slice GBN: one switch
	// column per nested stage, plus two tree traversals of the ranking
	// circuit per block (up and down), analogous to the arbiter's 2l levels
	// but with log N-bit adders.
	m := 0
	for n := k.n.Inputs(); n > 1; n >>= 1 {
		m++
	}
	sw := m * (m + 1) / 2
	fn := 0
	for kk := 1; kk <= m; kk++ {
		fn += 2 * kk * m // ranking tree of depth kk, each node a log N-bit adder
	}
	return Delay{SwitchUnits: sw, FunctionUnits: fn}
}

// ---------------------------------------------------------------------------
// Beneš (global looping routing)
// ---------------------------------------------------------------------------

type benesNetwork struct{ n *benes.Network }

func newBenesNetwork(m int) (Network, error) {
	n, err := benes.New(m)
	if err != nil {
		return nil, err
	}
	return benesNetwork{n: n}, nil
}

func (b benesNetwork) Name() string { return "benes" }

func (b benesNetwork) Inputs() int { return b.n.Inputs() }

func (b benesNetwork) Route(words []Word) ([]Word, error) {
	return routeArranged("benes", b.n.Inputs(), words, func(p Perm) (Perm, error) {
		settings, err := b.n.RouteGlobal(p)
		if err != nil {
			return nil, err
		}
		return b.n.Apply(settings)
	})
}

func (b benesNetwork) RoutePerm(p Perm) ([]Word, error) { return b.Route(permWords(p)) }

func (b benesNetwork) Cost() Cost { return Cost{Switches: b.n.Switches()} }

func (b benesNetwork) Delay() Delay { return Delay{SwitchUnits: b.n.Stages()} }

// ---------------------------------------------------------------------------
// Crossbar
// ---------------------------------------------------------------------------

type crossbarNetwork struct{ n *crossbar.Network }

// NewCrossbar constructs an N x N crossbar. It remains the concrete
// constructor because N need not be a power of two; New("crossbar", m)
// covers the power-of-two case N = 2^m.
func NewCrossbar(n int) (Network, error) {
	c, err := crossbar.New(n)
	if err != nil {
		return nil, err
	}
	return crossbarNetwork{n: c}, nil
}

func newCrossbarNetwork(m int) (Network, error) {
	if m < 1 || m > 20 {
		return nil, fmt.Errorf("bnbnet: crossbar order m = %d out of range [1, 20]", m)
	}
	return NewCrossbar(1 << uint(m))
}

func (c crossbarNetwork) Name() string { return "crossbar" }

func (c crossbarNetwork) Inputs() int { return c.n.Inputs() }

func (c crossbarNetwork) Route(words []Word) ([]Word, error) {
	return routeConverted(words, c.n.Route)
}

func (c crossbarNetwork) RoutePerm(p Perm) ([]Word, error) { return c.Route(permWords(p)) }

func (c crossbarNetwork) Cost() Cost { return Cost{Crosspoints: c.n.Crosspoints()} }

func (c crossbarNetwork) Delay() Delay { return Delay{SwitchUnits: c.n.Delay()} }

// ---------------------------------------------------------------------------
// Fabric, workloads, tables, figures
// ---------------------------------------------------------------------------

// Traffic aliases the fabric traffic-generator interface.
type Traffic = fabric.Traffic

// UniformTraffic is Bernoulli-uniform traffic at the given per-port load.
type UniformTraffic = fabric.Uniform

// PermutationTraffic delivers a fresh random full permutation per cycle at
// the given batch probability.
type PermutationTraffic = fabric.Permutation

// HotspotTraffic overlays uniform traffic with a hot output.
type HotspotTraffic = fabric.Hotspot

// FabricStats aggregates a fabric simulation run.
type FabricStats = fabric.Stats

// FabricSwitch is a FIFO input-queued cell switch around a Network.
type FabricSwitch = fabric.Switch

// VOQFabricSwitch is a virtual-output-queued cell switch with an
// iSLIP-style matcher around a Network; it removes head-of-line blocking.
type VOQFabricSwitch = fabric.VOQSwitch

// Fabric is the common surface of the cell-switch simulators NewFabric
// builds: FIFO input-queued by default, virtual-output-queued with WithVOQ.
type Fabric interface {
	// Ports returns the port count N.
	Ports() int
	// QueueDepth returns input i's backlog (summed over VOQs when present).
	QueueDepth(i int) int
	// AttachMetrics observes every routed cycle into the sink.
	AttachMetrics(m *Metrics)
	// Run drives the switch for the given cycles of traffic.
	Run(t Traffic, cycles int, rng *rand.Rand) (FabricStats, error)
}

// NewFabric wraps a Network as the routing core of a cell-switch simulator.
// The default is the FIFO input-queued switch under the strict failure
// policy; WithVOQ selects the virtual-output-queued switch with the
// iSLIP-style matcher (removing head-of-line blocking), WithDegraded the
// FIFO switch's graceful requeue-on-failure policy (the mode a fabric over a
// faulty network runs in — it does not compose with WithVOQ), and
// WithMetrics attaches the observability sink. The concrete *FabricSwitch
// and *VOQFabricSwitch types remain reachable by type assertion.
func NewFabric(n Network, opts ...Option) (Fabric, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.anySet(^(optFabric | optMetrics)) {
		return nil, fmt.Errorf("bnbnet: NewFabric accepts only WithVOQ, WithDegraded and WithMetrics")
	}
	if o.voq && o.degraded {
		return nil, fmt.Errorf("bnbnet: WithDegraded is the FIFO switch's failure policy; it does not compose with WithVOQ")
	}
	r, err := fabricRouter(n)
	if err != nil {
		return nil, err
	}
	var f Fabric
	if o.voq {
		s, err := fabric.NewVOQSwitch(r)
		if err != nil {
			return nil, err
		}
		f = s
	} else {
		s, err := fabric.NewSwitch(r)
		if err != nil {
			return nil, err
		}
		s.SetDegraded(o.degraded)
		f = s
	}
	if o.metrics != nil {
		f.AttachMetrics(o.metrics)
	}
	return f, nil
}

func fabricRouter(n Network) (fabric.Router, error) {
	if n == nil {
		return nil, fmt.Errorf("bnbnet: nil network")
	}
	return fabric.RouterFunc{N: n.Inputs(), Fn: func(p Perm) (Perm, error) {
		out, err := n.RoutePerm(p)
		if err != nil {
			return nil, err
		}
		arrangement := make(Perm, len(out))
		for j, wd := range out {
			if wd.Addr < 0 {
				// A faulty network's dead link reads Addr = -1; report the
				// output as empty so a degraded switch requeues the cell.
				arrangement[j] = -1
				continue
			}
			arrangement[j] = int(wd.Data)
		}
		return arrangement, nil
	}}, nil
}

// RandomPerm draws a uniform random permutation of n elements from rng.
func RandomPerm(n int, rng *rand.Rand) Perm { return perm.Random(n, rng) }

// PermFamily names a structured permutation family.
type PermFamily = perm.Family

// Structured permutation families for workload sweeps.
const (
	FamilyIdentity       = perm.FamilyIdentity
	FamilyReversal       = perm.FamilyReversal
	FamilyBitReversal    = perm.FamilyBitReversal
	FamilyPerfectShuffle = perm.FamilyPerfectShuffle
	FamilyBitComplement  = perm.FamilyBitComplement
	FamilyTranspose      = perm.FamilyTranspose
	FamilyButterfly      = perm.FamilyButterfly
	FamilyRandom         = perm.FamilyRandom
)

// PermFamilies lists every built-in family.
func PermFamilies() []PermFamily { return perm.Families() }

// GeneratePerm produces a member of the family on 2^m elements; rng is used
// only by FamilyRandom.
func GeneratePerm(f PermFamily, m int, rng *rand.Rand) (Perm, error) {
	return perm.Generate(f, m, rng)
}

// Table1Row is one row of the paper's Table 1 evaluated at a concrete order.
type Table1Row = cost.Table1Row

// Table2Row is one row of the paper's Table 2 evaluated at a concrete order.
type Table2Row = cost.Table2Row

// Table1 evaluates the hardware-complexity leading terms of the paper's
// Table 1 at order m.
func Table1(m int) ([]Table1Row, error) { return cost.Table1(m) }

// Table2 evaluates the propagation-delay rows of the paper's Table 2 at
// order m.
func Table2(m int) ([]Table2Row, error) { return cost.Table2(m) }

// HeadlineRatios returns BNB/Batcher hardware and delay ratios from the
// exact formulas; they approach 1/3 and 2/3 as m grows (the abstract's
// claims).
func HeadlineRatios(m, w int) (hardware, delay float64, err error) {
	return cost.HeadlineRatios(m, w)
}

// BenesSelfRouting measures the intro's dichotomy on a Beneš network of
// order m: the success rate of bit-controlled destination-tag self-routing
// over `trials` uniform random permutations (well below 1), alongside
// confirmation that structured classes route (all shifts are tried; ok is
// false if any fails).
func BenesSelfRouting(m, trials int, rng *rand.Rand) (randomRate float64, shiftsOK bool, err error) {
	n, err := benes.New(m)
	if err != nil {
		return 0, false, err
	}
	d := benes.DefaultSelfRouting(m)
	rate, err := n.SelfRouteRate(d, trials, rng)
	if err != nil {
		return 0, false, err
	}
	shiftsOK = true
	for a := 0; a < n.Inputs(); a++ {
		ok, _, err := n.RouteSelf(perm.VectorShift(n.Inputs(), a), d)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			shiftsOK = false
			break
		}
	}
	return rate, shiftsOK, nil
}

// FigGBN renders the generalized baseline network of order m (Fig. 1 shape).
func FigGBN(m int) (string, error) { return render.GBN(m) }

// FigBSN renders the bit-sorter network of order k.
func FigBSN(k int) (string, error) { return render.BSNFigure(k) }

// FigBNBProfile renders the nested structure of a BNB network of order m
// with w data bits (Figs. 2-3 shape).
func FigBNBProfile(m, w int) (string, error) {
	n, err := core.New(m, w)
	if err != nil {
		return "", err
	}
	return render.BNBProfile(n), nil
}

// FigSplitter renders splitter sp(p) with its arbiter tree (Fig. 4 shape).
func FigSplitter(p int) (string, error) { return render.Splitter(p) }

// FigFunctionNode renders the arbiter function node and its generated truth
// table (Fig. 5 shape).
func FigFunctionNode() string { return render.FunctionNode() }
