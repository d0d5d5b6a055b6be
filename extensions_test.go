package bnbnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestLowerBoundComparisonFacade(t *testing.T) {
	rows, err := LowerBoundComparison(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 || rows[0].Network != "lower-bound" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Factor != 1 {
		t.Errorf("bound factor = %v, want 1", rows[0].Factor)
	}
	if rows[1].Network != "waksman" || rows[1].Factor >= rows[2].Factor {
		t.Errorf("waksman should be the tightest real design: %+v", rows[1])
	}
	for _, r := range rows[1:] {
		if r.Factor < 1 {
			t.Errorf("%s factor %v below 1", r.Network, r.Factor)
		}
	}
	if _, err := LowerBoundComparison(0); err == nil {
		t.Error("LowerBoundComparison(0) accepted")
	}
}

func TestPipelineFacade(t *testing.T) {
	bnb, err := PipelineBNB(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := PipelineBatcher(6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bnb.Stages != bat.Stages {
		t.Errorf("stage counts differ: %d vs %d (both are (1/2)m(m+1))", bnb.Stages, bat.Stages)
	}
	if bnb.Throughput(1, 1) >= bat.Throughput(1, 1) {
		t.Error("pipelined BNB should not out-run Batcher at equal unit delays (see EXPERIMENTS.md)")
	}
	if _, err := PipelineBNB(0, 0); err == nil {
		t.Error("PipelineBNB(0) accepted")
	}
	if _, err := PipelineBatcher(0, 0); err == nil {
		t.Error("PipelineBatcher(0) accepted")
	}
}

func TestCompletePermFacadeAndRouting(t *testing.T) {
	// A realistic partial batch routed through the BNB network after
	// padding — the fabric's per-cycle discipline in miniature.
	partial := []int{5, -1, 0, -1, 7, -1, 2, -1}
	p, err := CompletePerm(partial)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewBNB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.RoutePerm(p)
	if err != nil {
		t.Fatal(err)
	}
	for j, wd := range out {
		if wd.Addr != j {
			t.Fatalf("misrouted padded batch at output %d", j)
		}
	}
	// Real cells kept their destinations.
	for i, d := range partial {
		if d != -1 && p[i] != d {
			t.Errorf("padding changed defined destination %d", i)
		}
	}
	if _, err := CompletePerm([]int{0, 0, -1}); err == nil {
		t.Error("CompletePerm accepted duplicates")
	}
}

func TestGateLevelBSNFacade(t *testing.T) {
	r, err := GateLevelBSN(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inputs != 8 {
		t.Errorf("Inputs = %d, want 8", r.Inputs)
	}
	// From the gatesim inventory: 13 arbiter nodes -> 13 AND/OR/NOT each;
	// XORs = 13 + (12-4) switch controls = 21; muxes = 24.
	if r.Ands != 13 || r.Ors != 13 || r.Nots != 13 {
		t.Errorf("AND/OR/NOT = %d/%d/%d, want 13 each", r.Ands, r.Ors, r.Nots)
	}
	if r.Xors != 21 {
		t.Errorf("XORs = %d, want 21", r.Xors)
	}
	if r.Muxes != 24 {
		t.Errorf("muxes = %d, want 24", r.Muxes)
	}
	if r.LogicGates != 13*3+21+24 {
		t.Errorf("LogicGates = %d, want %d", r.LogicGates, 13*3+21+24)
	}
	if r.CriticalPathGates != ExpectedBSNGateDepth(3) {
		t.Errorf("critical path %d != closed form %d", r.CriticalPathGates, ExpectedBSNGateDepth(3))
	}
	if r.SpareGates == 0 {
		t.Error("expected spare (unused odd-flag) gates in the arbiter")
	}
	if _, err := GateLevelBSN(0); err == nil {
		t.Error("GateLevelBSN(0) accepted")
	}
}

func TestExpectedBSNGateDepthValues(t *testing.T) {
	if ExpectedBSNGateDepth(1) != 1 {
		t.Error("k=1 depth should be 1 (one mux)")
	}
	if ExpectedBSNGateDepth(4) != 16+16-4 {
		t.Errorf("k=4 depth = %d, want 28", ExpectedBSNGateDepth(4))
	}
}

func TestOmegaStudyFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, err := OmegaStudy(3, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Inputs != 8 || r.Switches != 12 {
		t.Errorf("geometry = (%d,%d)", r.Inputs, r.Switches)
	}
	if r.RoutablePermutations != 4096 {
		t.Errorf("RoutablePermutations = %v, want 4096", r.RoutablePermutations)
	}
	exact := 4096.0 / 40320.0
	if math.Abs(r.SampledPassRate-exact) > 0.025 {
		t.Errorf("pass rate %v far from exact %v", r.SampledPassRate, exact)
	}
	if _, err := OmegaStudy(0, 10, rng); err == nil {
		t.Error("OmegaStudy(0) accepted")
	}
}

func TestOmegaPassableFacade(t *testing.T) {
	ok, err := OmegaPassable(RandomPerm(8, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	_ = ok // any verdict is fine; the point is no error on a valid size
	id := Perm{0, 1, 2, 3}
	ok, err = OmegaPassable(id)
	if err != nil || !ok {
		t.Errorf("identity should pass: %v %v", ok, err)
	}
	if _, err := OmegaPassable(Perm{0}); err == nil {
		t.Error("size-1 accepted")
	}
	if _, err := OmegaPassable(Perm{0, 1, 2}); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

// TestOmegaVsBNBContrast pins the repository's core contrast: the omega
// network blocks most random permutations while the BNB network routes all
// of them, at a log^2 N factor more switches.
func TestOmegaVsBNBContrast(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	study, err := OmegaStudy(6, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if study.SampledPassRate > 0.01 {
		t.Errorf("omega pass rate %v unexpectedly high at N=64", study.SampledPassRate)
	}
	n, err := NewBNB(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		out, err := n.RoutePerm(RandomPerm(64, rng))
		if err != nil {
			t.Fatal(err)
		}
		for j, wd := range out {
			if wd.Addr != j {
				t.Fatal("BNB misrouted")
			}
		}
	}
}

func TestFigBatcherFacade(t *testing.T) {
	out, err := FigBatcher(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "19 comparators") {
		t.Error("diagram missing comparator count")
	}
	if _, err := FigBatcher(0); err == nil {
		t.Error("FigBatcher(0) accepted")
	}
}

// TestCircuitMode exercises the compute-once/replay-many circuit-switched
// mode end to end: one Compile carries several data batches.
func TestCircuitMode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net, err := NewBNB(5, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPerm(net.Inputs(), rng)
	circuit, err := net.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.Inputs() / 2 * 5 * 6 / 2; circuit.Switches() != want {
		t.Errorf("circuit switches = %d, want %d", circuit.Switches(), want)
	}
	out := make([]Word, net.Inputs())
	for batch := 0; batch < 5; batch++ {
		words := make([]Word, net.Inputs())
		for i, d := range p {
			words[i] = Word{Addr: d, Data: rng.Uint64()}
		}
		if err := net.Replay(circuit, out, words); err != nil {
			t.Fatal(err)
		}
		for i, d := range p {
			if out[d] != words[i] {
				t.Fatalf("batch %d: input %d missed output %d", batch, i, d)
			}
		}
	}
	if _, err := net.Compile(Perm{0, 1}); err == nil {
		t.Error("Compile accepted wrong-length permutation")
	}
	if err := net.Replay(circuit, out, make([]Word, 3)); err == nil {
		t.Error("Replay accepted wrong-length batch")
	}
}

// TestBNBExtendedMethods covers the traced entry point of the concrete
// facade type against its plain Route.
func TestBNBExtendedMethods(t *testing.T) {
	net, err := NewBNB(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPerm(16, rand.New(rand.NewSource(2)))
	words := make([]Word, 16)
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	out, trace, err := net.RouteTraced(words)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 5 {
		t.Errorf("trace has %d snapshots, want 5", len(trace))
	}
	plain, err := net.Route(words)
	if err != nil {
		t.Fatal(err)
	}
	for j := range out {
		if out[j] != plain[j] || trace[4][j] != out[j] {
			t.Fatalf("plain and traced routes disagree at %d", j)
		}
	}
}

// TestVOQFabricFacade contrasts the two queueing disciplines through the
// public API: VOQ lifts the saturated uniform throughput far above the FIFO
// head-of-line limit on the same BNB fabric.
func TestVOQFabricFacade(t *testing.T) {
	net, err := NewBNB(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	voq, err := NewFabric(net, WithVOQ())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := voq.Run(UniformTraffic{Load: 1.0}, 1500, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := NewFabric(net)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fifo.Run(UniformTraffic{Load: 1.0}, 1500, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if vs.Throughput(32) <= fs.Throughput(32)+0.15 {
		t.Errorf("VOQ %v does not clearly beat FIFO %v", vs.Throughput(32), fs.Throughput(32))
	}
	if _, err := NewFabric(nil, WithVOQ()); err == nil {
		t.Error("NewFabric(nil, WithVOQ()) accepted")
	}
}

// TestBaselineStudyFacade checks the bare-skeleton blocking quantification.
func TestBaselineStudyFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r, err := BaselineStudy(3, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.RoutablePermutations != 4096 {
		t.Errorf("RoutablePermutations = %v, want 4096", r.RoutablePermutations)
	}
	exact := 4096.0 / 40320.0
	if math.Abs(r.SampledPassRate-exact) > 0.025 {
		t.Errorf("pass rate %v far from exact %v", r.SampledPassRate, exact)
	}
	if _, err := BaselineStudy(0, 10, rng); err == nil {
		t.Error("BaselineStudy(0) accepted")
	}
}

func TestFigSplitterInstanceFacade(t *testing.T) {
	out, err := FigSplitterInstance(3, []uint8{1, 0, 1, 1, 0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Theorem 3") {
		t.Error("missing balance line")
	}
	if _, err := FigSplitterInstance(0, nil); err == nil {
		t.Error("FigSplitterInstance(0) accepted")
	}
}
