package bnbnet

import (
	"fmt"
	"math/rand"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/cost"
)

// Report is a machine-readable summary of the full reproduction: the
// paper's tables, the equation reconciliations, the headline ratios, and
// the extension studies, evaluated over a sweep of network orders. It
// marshals cleanly to JSON (see cmd/bnbtables -json), giving downstream
// tooling the same numbers EXPERIMENTS.md records in prose.
type Report struct {
	// Paper identifies the reproduced publication.
	Paper string `json:"paper"`
	// Orders lists the network orders m (N = 2^m) the sweep covered.
	Orders []int `json:"orders"`
	// DataWidth is the word width w used where applicable.
	DataWidth int `json:"data_width"`

	// Table1 holds the paper's hardware-complexity rows per order.
	Table1 []Table1Sweep `json:"table1"`
	// Table2 holds the delay rows per order.
	Table2 []Table2Sweep `json:"table2"`
	// Equations records the exact reconciliation of eqs. (6)-(12).
	Equations []EquationCheck `json:"equations"`
	// Headline records the abstract's hardware and delay ratios per order.
	Headline []HeadlineRatio `json:"headline"`
	// LowerBound records the switch counts against ceil(log2(N!)).
	LowerBound []LowerBoundSweep `json:"lower_bound"`
	// Benes records the self-routing dichotomy measurements.
	Benes []BenesStudy `json:"benes"`
	// Banyan records omega and baseline blocking rates.
	Banyan []BanyanStudy `json:"banyan"`
	// Gates records the gate-level bit-sorter compilations.
	Gates []GateReport `json:"gates"`
	// Conformance records the verification-battery outcome per network at
	// the smallest swept order.
	Conformance []ConformanceResult `json:"conformance"`
	// Serving records the engine serving study per order: a batch of random
	// permutations fanned across the worker pool, with delivery verified and
	// the request counts cross-checked against the metrics sink.
	Serving []ServingStudy `json:"serving"`
	// Availability records the fault-tolerance study: degraded fabric runs
	// under seeded transient chaos faults at a sweep of rates, with
	// eventual-delivery accounting (DESIGN.md §8).
	Availability []AvailabilityStudy `json:"availability"`
	// Diagnosis records the probe-set fault-diagnoser coverage.
	Diagnosis []DiagnosisStudy `json:"diagnosis"`
}

// Table1Sweep is the Table 1 evaluation at one order.
type Table1Sweep struct {
	M    int         `json:"m"`
	Rows []Table1Row `json:"rows"`
}

// Table2Sweep is the Table 2 evaluation at one order.
type Table2Sweep struct {
	M    int         `json:"m"`
	Rows []Table2Row `json:"rows"`
}

// EquationCheck records one exact counted-vs-formula reconciliation.
type EquationCheck struct {
	Equation string `json:"equation"`
	M        int    `json:"m"`
	Counted  int    `json:"counted"`
	Formula  int    `json:"formula"`
	Match    bool   `json:"match"`
}

// HeadlineRatio is the C1 claim at one order.
type HeadlineRatio struct {
	M        int     `json:"m"`
	Hardware float64 `json:"hardware_ratio"`
	Delay    float64 `json:"delay_ratio"`
}

// LowerBoundSweep is the X1 study at one order.
type LowerBoundSweep struct {
	M    int             `json:"m"`
	Rows []LowerBoundRow `json:"rows"`
}

// BenesStudy is the C2 measurement at one order.
type BenesStudy struct {
	M          int     `json:"m"`
	RandomRate float64 `json:"random_rate"`
	ShiftsOK   bool    `json:"shifts_ok"`
}

// BanyanStudy is the X4 measurement at one order.
type BanyanStudy struct {
	M            int     `json:"m"`
	OmegaRate    float64 `json:"omega_rate"`
	BaselineRate float64 `json:"baseline_rate"`
	Routable     float64 `json:"routable_permutations"`
}

// ServingStudy is the engine serving measurement at one order. Only
// deterministic quantities are reported — request counts, error counts and
// the metrics sink's counters — so the report stays reproducible; latency
// percentiles are host-dependent and live in the benchmarks instead.
type ServingStudy struct {
	M             int   `json:"m"`
	Workers       int   `json:"workers"`
	Requests      int   `json:"requests"`
	Errors        int   `json:"errors"`
	Routes        int64 `json:"routes"`
	WordsSwitched int64 `json:"words_switched"`
	// Delivered is true when every routed output j carried address j.
	Delivered bool `json:"delivered"`
	// MetricsConsistent is true when the sink's counters match the batch.
	MetricsConsistent bool `json:"metrics_consistent"`
}

// AvailabilityStudy is one degraded-fabric run under seeded chaos faults: a
// BNB fabric at order M routes permutation traffic for Cycles cycles while
// transient faults strike whole passes at ChaosRate per cycle, requeueing
// every failed or misdelivered cell; a drain phase then empties the backlog.
// EventualDelivery is delivered/offered after the drain — 1.0 means the
// requeue path lost nothing.
type AvailabilityStudy struct {
	M              int     `json:"m"`
	ChaosRate      float64 `json:"chaos_rate"`
	Cycles         int     `json:"cycles"`
	Offered        int     `json:"offered"`
	Delivered      int     `json:"delivered"`
	Requeued       int     `json:"requeued"`
	FailedPasses   int     `json:"failed_passes"`
	InjectedPasses int64   `json:"injected_passes"`
	// EventualDelivery is the delivered fraction of offered cells after the
	// drain phase.
	EventualDelivery float64 `json:"eventual_delivery"`
}

// DiagnosisStudy is the fault-diagnoser coverage at one order: the size of
// the single-stuck-at fault universe, the probe count, the number of fault
// groups the probe set cannot separate (0 = exact localization), and — when
// feasible — the outcome of injecting and diagnosing every fault.
type DiagnosisStudy struct {
	M               int  `json:"m"`
	Probes          int  `json:"probes"`
	FaultUniverse   int  `json:"fault_universe"`
	AmbiguousGroups int  `json:"ambiguous_groups"`
	ExhaustiveRun   bool `json:"exhaustive_run"`
	ExhaustiveOK    bool `json:"exhaustive_ok"`
}

// ConformanceResult is one network's verification-battery outcome.
type ConformanceResult struct {
	Network    string `json:"network"`
	Checked    int    `json:"checked"`
	Exhaustive bool   `json:"exhaustive"`
	OK         bool   `json:"ok"`
	Failures   int    `json:"failures"`
}

// FullReport runs the reproduction sweep over minM..maxM (inclusive,
// clamped to feasible ranges per study) and returns the structured report.
// Sampled studies use `trials` permutations from the given seed and are
// deterministic.
func FullReport(minM, maxM, w, trials int, seed int64) (*Report, error) {
	if minM < 1 || maxM < minM {
		return nil, fmt.Errorf("bnbnet: need 1 <= minM <= maxM, got %d..%d", minM, maxM)
	}
	if maxM > 14 {
		return nil, fmt.Errorf("bnbnet: report sweep capped at m = 14, got %d", maxM)
	}
	if trials <= 0 {
		trials = 200
	}
	r := &Report{
		Paper:     "Lee & Lu, BNB Self-Routing Permutation Network, ICDCS 1991",
		DataWidth: w,
	}
	rng := rand.New(rand.NewSource(seed))
	for m := minM; m <= maxM; m++ {
		r.Orders = append(r.Orders, m)

		t1, err := Table1(m)
		if err != nil {
			return nil, err
		}
		r.Table1 = append(r.Table1, Table1Sweep{M: m, Rows: t1})
		t2, err := Table2(m)
		if err != nil {
			return nil, err
		}
		r.Table2 = append(r.Table2, Table2Sweep{M: m, Rows: t2})

		// Equation reconciliations against constructed networks.
		bnb, err := core.New(m, w)
		if err != nil {
			return nil, err
		}
		h := bnb.CountHardware()
		d := bnb.MeasureDelay()
		bat, err := batcher.New(m, w)
		if err != nil {
			return nil, err
		}
		bh := bat.CountHardware()
		r.Equations = append(r.Equations,
			EquationCheck{"eq6-switches", m, h.Switches, cost.BNBSwitches(m, w), h.Switches == cost.BNBSwitches(m, w)},
			EquationCheck{"eq6-function-nodes", m, h.FunctionNodes, cost.BNBFunctionNodes(m), h.FunctionNodes == cost.BNBFunctionNodes(m)},
			EquationCheck{"eq7-switch-delay", m, d.SwitchStages, cost.BNBDelaySW(m), d.SwitchStages == cost.BNBDelaySW(m)},
			EquationCheck{"eq8-arbiter-delay", m, d.FunctionNodeLevels, cost.BNBDelayFN(m), d.FunctionNodeLevels == cost.BNBDelayFN(m)},
			EquationCheck{"eq10-comparators", m, bh.Comparators, cost.BatcherComparators(m), bh.Comparators == cost.BatcherComparators(m)},
			EquationCheck{"eq11-switch-slices", m, bh.Switches, cost.BatcherSwitches(m, w), bh.Switches == cost.BatcherSwitches(m, w)},
		)

		hw, dl, err := HeadlineRatios(m, w)
		if err != nil {
			return nil, err
		}
		r.Headline = append(r.Headline, HeadlineRatio{M: m, Hardware: hw, Delay: dl})

		lb, err := LowerBoundComparison(m)
		if err != nil {
			return nil, err
		}
		r.LowerBound = append(r.LowerBound, LowerBoundSweep{M: m, Rows: lb})

		if m <= 9 {
			rate, shiftsOK, err := BenesSelfRouting(m, trials, rng)
			if err != nil {
				return nil, err
			}
			r.Benes = append(r.Benes, BenesStudy{M: m, RandomRate: rate, ShiftsOK: shiftsOK})

			om, err := OmegaStudy(m, trials, rng)
			if err != nil {
				return nil, err
			}
			ba, err := BaselineStudy(m, trials, rng)
			if err != nil {
				return nil, err
			}
			r.Banyan = append(r.Banyan, BanyanStudy{
				M: m, OmegaRate: om.SampledPassRate,
				BaselineRate: ba.SampledPassRate,
				Routable:     om.RoutablePermutations,
			})
		}
		if m <= 8 {
			g, err := GateLevelBSN(m)
			if err != nil {
				return nil, err
			}
			r.Gates = append(r.Gates, g)

			sv, err := servingStudy(m, w, trials, seed)
			if err != nil {
				return nil, err
			}
			r.Serving = append(r.Serving, sv)
		}
	}

	// Availability under chaos at a representative order, swept over rates.
	am := 4
	if am > maxM {
		am = maxM
	}
	for _, rate := range []float64{0.005, 0.01, 0.02} {
		a, err := availabilityStudy(am, 1000, rate, seed)
		if err != nil {
			return nil, err
		}
		r.Availability = append(r.Availability, a)
	}

	// Diagnoser coverage at a small order (the dictionary grows with the
	// fault universe); the exhaustive inject-and-diagnose pass runs where it
	// stays cheap.
	dm := 3
	if dm > maxM {
		dm = maxM
	}
	ds, err := diagnosisStudy(dm, dm <= 4)
	if err != nil {
		return nil, err
	}
	r.Diagnosis = append(r.Diagnosis, ds)

	// Conformance battery at the smallest order (exhaustive when N <= 8).
	for _, n := range reportNetworks(minM, w) {
		if n == nil {
			continue
		}
		rep, err := VerifyNetwork(n, CheckOptions{RandomTrials: 20, BPCTrials: 10, AdversarialClimbs: -1, Seed: seed})
		if err != nil {
			return nil, err
		}
		r.Conformance = append(r.Conformance, ConformanceResult{
			Network:    n.Name(),
			Checked:    rep.Checked,
			Exhaustive: rep.ExhaustiveDone,
			OK:         rep.OK(),
			Failures:   len(rep.Failures),
		})
	}
	return r, nil
}

// servingStudy runs the serving engine over a deterministic batch of random
// permutations at order m and cross-checks delivery and the metrics sink.
func servingStudy(m, w, requests int, seed int64) (ServingStudy, error) {
	const workers = 4
	b, err := NewBNB(m, w)
	if err != nil {
		return ServingStudy{}, err
	}
	sink := NewMetrics()
	e, err := NewEngine(b, WithWorkers(workers), WithMetrics(sink))
	if err != nil {
		return ServingStudy{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	ps := make([]Perm, requests)
	for i := range ps {
		ps[i] = RandomPerm(b.Inputs(), rng)
	}
	outs, errs := e.RoutePermBatch(ps)
	if err := e.Close(); err != nil {
		return ServingStudy{}, err
	}
	sv := ServingStudy{M: m, Workers: e.Workers(), Requests: requests, Delivered: true}
	for i := range ps {
		if errs[i] != nil {
			sv.Errors++
			sv.Delivered = false
			continue
		}
		for j, wd := range outs[i] {
			if wd.Addr != j {
				sv.Delivered = false
			}
		}
	}
	s := sink.Snapshot()
	sv.Routes = s.Routes
	sv.WordsSwitched = s.WordsSwitched
	sv.MetricsConsistent = s.Routes == int64(requests-sv.Errors) &&
		s.Errors == int64(sv.Errors) &&
		s.WordsSwitched == int64(requests-sv.Errors)*int64(b.Inputs())
	return sv, nil
}

// availabilityStudy runs one degraded fabric under chaos faults at the given
// per-cycle rate and measures eventual delivery through the requeue path.
// Load 0.5 keeps the offered traffic under the FIFO fabric's head-of-line
// saturation (~0.586), so the post-fault backlog provably drains.
func availabilityStudy(m, cycles int, rate float64, seed int64) (AvailabilityStudy, error) {
	n, err := New("bnb", m, WithFaults(&FaultPlan{ChaosRate: rate, ChaosHeal: 1, Seed: seed}))
	if err != nil {
		return AvailabilityStudy{}, err
	}
	s, err := NewFabric(n, WithDegraded())
	if err != nil {
		return AvailabilityStudy{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	stats, err := s.Run(PermutationTraffic{Load: 0.5}, cycles, rng)
	if err != nil {
		return AvailabilityStudy{}, err
	}
	drain, err := s.Run(PermutationTraffic{Load: 0}, cycles/2, rng)
	if err != nil {
		return AvailabilityStudy{}, err
	}
	a := AvailabilityStudy{
		M:              m,
		ChaosRate:      rate,
		Cycles:         cycles,
		Offered:        stats.Offered,
		Delivered:      stats.Delivered + drain.Delivered,
		Requeued:       stats.Requeued + drain.Requeued,
		FailedPasses:   stats.FailedPasses + drain.FailedPasses,
		InjectedPasses: n.(*FaultyNetwork).InjectedPasses(),
	}
	if a.Offered > 0 {
		a.EventualDelivery = float64(a.Delivered) / float64(a.Offered)
	}
	return a, nil
}

// diagnosisStudy builds the fault diagnoser at order m and, when exhaustive
// is set, verifies it against the whole stuck-at universe.
func diagnosisStudy(m int, exhaustive bool) (DiagnosisStudy, error) {
	d, err := NewFaultDiagnoser(m)
	if err != nil {
		return DiagnosisStudy{}, err
	}
	ds := DiagnosisStudy{
		M:               m,
		Probes:          d.Probes(),
		FaultUniverse:   2 * len(FaultElements(m)),
		AmbiguousGroups: d.AmbiguousGroups(),
	}
	if exhaustive {
		checked, err := ExhaustiveFaultCheck(m)
		if err != nil {
			return ds, err
		}
		ds.ExhaustiveRun = true
		ds.ExhaustiveOK = checked == ds.FaultUniverse
	}
	return ds, nil
}

// reportNetworks builds one instance of every network at order m via the
// constructor registry, skipping any family that rejects the order.
func reportNetworks(m, w int) []Network {
	var nets []Network
	for _, build := range []func() (Network, error){
		func() (Network, error) { return New("bnb", m, WithDataBits(w)) },
		func() (Network, error) { return New("batcher", m, WithDataBits(w)) },
		func() (Network, error) { return New("koppelman", m, WithDataBits(w)) },
		func() (Network, error) { return New("benes", m) },
		func() (Network, error) { return New("waksman", m) },
		func() (Network, error) { return New("bitonic", m) },
		func() (Network, error) { return New("crossbar", m) },
	} {
		n, err := build()
		if err != nil {
			continue
		}
		nets = append(nets, n)
	}
	return nets
}
