package bnbnet

// This file exposes the fault-injection and self-diagnosis layer: seeded
// deterministic fault plans over the switching-element universe, the
// FaultyNetwork decorator that perturbs any Network according to a plan, and
// the probe-based Diagnoser that localizes single stuck-at faults from
// misdelivery patterns alone (DESIGN.md §8).

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
)

// FaultKind classifies an injected fault.
type FaultKind = fault.Kind

// The fault taxonomy. Stuck-at faults pin a 2x2 switching element's control;
// DeadLink drops every word crossing an output port; TagFlip corrupts one
// routing-tag bit at an input port. The delay kinds — Slow, Stall, Jitter —
// cost time instead of correctness: they stall a route pass by the fault's
// Delay (exactly, as a head-of-line block, or as a seeded uniform draw) so
// tail-latency degradation is injectable and reproducible like every other
// fault.
const (
	FaultStuckStraight = fault.StuckStraight
	FaultStuckCross    = fault.StuckCross
	FaultDeadLink      = fault.DeadLink
	FaultTagFlip       = fault.TagFlip
	FaultSlow          = fault.Slow
	FaultStall         = fault.Stall
	FaultJitter        = fault.Jitter
)

// FaultElement addresses one 2x2 switching element: main stage, nested
// column, and switch index within the column.
type FaultElement = fault.Element

// Fault is one injected fault with its chaos window [From, Until) in cycles;
// Until <= 0 means permanent.
type Fault = fault.Fault

// FaultPlan is a reproducible fault schedule: explicit faults plus an
// optional seeded chaos process injecting transient faults at ChaosRate per
// cycle, each healing after ChaosHeal cycles.
type FaultPlan = fault.Plan

// FaultElements enumerates the switching-element universe of order m —
// every (stage, column, switch) address a stuck-at fault can hit.
func FaultElements(m int) []FaultElement { return fault.Elements(m) }

// StuckAt is a convenience plan holding a single permanent stuck-at fault.
func StuckAt(e FaultElement, cross bool) *FaultPlan { return fault.StuckAt(e, cross) }

// FaultyNetwork decorates a Network with a fault injector: every route is
// perturbed according to the plan and verified, so faults surface as errors
// (transient ones marked ErrTransient) instead of silent misdeliveries.
// Construct with New(family, m, WithFaults(plan)) or NewFaultyNetwork.
// A FaultyNetwork implements BulkRouter, so NewEngine serves it on the
// pooled path; WithPlaneFaults puts one behind a supervised plane.
type FaultyNetwork struct {
	base Network
	m    *metrics.Metrics
	inj  *fault.Injector
}

var _ Network = (*FaultyNetwork)(nil)

// NewFaultyNetwork wraps an existing network with a fault plan. Stuck-at and
// chaos plans require the switch-level override capability, which only the
// BNB network offers (directly or under decorators); dead-link and tag-flip
// plans work on any family.
func NewFaultyNetwork(n Network, plan *FaultPlan, opts ...Option) (*FaultyNetwork, error) {
	if n == nil {
		return nil, fmt.Errorf("bnbnet: nil network")
	}
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.anySet(^optMetrics) {
		return nil, fmt.Errorf("bnbnet: NewFaultyNetwork accepts only WithMetrics")
	}
	return newFaulty(n, plan, o.metrics)
}

// newFaulty is the shared constructor behind NewFaultyNetwork and New's
// WithFaults option.
func newFaulty(n Network, plan *FaultPlan, m *metrics.Metrics) (*FaultyNetwork, error) {
	inj, err := fault.New(faultRouter(n), plan, fault.Options{Verify: true, Metrics: m})
	if err != nil {
		return nil, err
	}
	return &FaultyNetwork{base: n, m: m, inj: inj}, nil
}

// faultRouter picks the most capable routing surface under the decorators:
// the BNB core (which supports switch-level overrides for stuck-at faults)
// when present, else the pooled or copying adapter used by the engine.
func faultRouter(n Network) fault.Router {
	if b, ok := asSurface[*BNB](n); ok {
		return b.n
	}
	if br, ok := AsBulkRouter(n); ok {
		return bulkRouter{n: n, br: br}
	}
	return copyRouter{n: n}
}

// Unwrap returns the decorated network.
func (f *FaultyNetwork) Unwrap() Network { return f.base }

// Name implements Network.
func (f *FaultyNetwork) Name() string { return f.base.Name() }

// Inputs implements Network.
func (f *FaultyNetwork) Inputs() int { return f.base.Inputs() }

// Cost implements Network.
func (f *FaultyNetwork) Cost() Cost { return f.base.Cost() }

// Delay implements Network.
func (f *FaultyNetwork) Delay() Delay { return f.base.Delay() }

// Route implements Network: one perturbed, verified pass.
func (f *FaultyNetwork) Route(words []Word) ([]Word, error) {
	start := time.Now()
	dst := make([]Word, f.base.Inputs())
	err := f.inj.RouteInto(dst, words)
	f.m.ObserveRoute(len(words), time.Since(start), err)
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// RoutePerm implements Network.
func (f *FaultyNetwork) RoutePerm(p Perm) ([]Word, error) { return f.Route(permWords(p)) }

// RouteInto implements BulkRouter: the perturbed pooled path. The injector's
// cycle clock advances once per call.
func (f *FaultyNetwork) RouteInto(dst, src []Word) error { return f.inj.RouteInto(dst, src) }

// Cycle returns the injector's cycle clock — the number of completed passes.
func (f *FaultyNetwork) Cycle() int64 { return f.inj.Cycle() }

// InjectedPasses returns the number of passes at least one fault perturbed.
func (f *FaultyNetwork) InjectedPasses() int64 { return f.inj.InjectedPasses() }

// ActiveFaultsAt returns the faults (explicit and chaos) active at the given
// cycle; the chaos schedule is a pure function of the plan's seed, so the
// answer is reproducible without routing anything.
func (f *FaultyNetwork) ActiveFaultsAt(cycle int64) []Fault { return f.inj.ActiveAt(cycle) }

// FaultDiagnosis is the outcome of a diagnostic probe run.
type FaultDiagnosis = fault.Diagnosis

// FaultDiagnoser localizes single stuck-at faults in a BNB network of order
// m by routing a fixed probe set and decoding the misdelivery pattern
// against a precomputed fault dictionary. For m <= 5 the dictionary is
// exhaustively separating: every one of the m(m+1)/2 · 2^(m-1) stuck-at
// faults maps to a unique signature (verified by ExhaustiveFaultCheck).
type FaultDiagnoser struct{ d *fault.Diagnoser }

// NewFaultDiagnoser builds the probe set and fault dictionary for order m.
// Construction routes every probe under every candidate fault, so it grows
// with the universe; it is intended for the paper's small fabric orders.
func NewFaultDiagnoser(m int) (*FaultDiagnoser, error) {
	d, err := fault.NewDiagnoser(m)
	if err != nil {
		return nil, err
	}
	return &FaultDiagnoser{d: d}, nil
}

// M returns the order the diagnoser was built for.
func (fd *FaultDiagnoser) M() int { return fd.d.M() }

// Probes returns the number of probe permutations a Diagnose run routes.
func (fd *FaultDiagnoser) Probes() int { return len(fd.d.Probes()) }

// AmbiguousGroups returns the number of fault groups the probe set cannot
// split; zero means exact localization of every single stuck-at fault.
func (fd *FaultDiagnoser) AmbiguousGroups() int { return fd.d.AmbiguousGroups() }

// Diagnose routes the probe set through the network and decodes the result:
// Healthy when every probe delivers, otherwise the dictionary lookup of the
// observed signature.
func (fd *FaultDiagnoser) Diagnose(n Network) (FaultDiagnosis, error) {
	if n == nil {
		return FaultDiagnosis{}, fmt.Errorf("bnbnet: nil network")
	}
	// Unlike faultRouter, do not unwrap: the oracle must be the network as
	// presented — unwrapping a FaultyNetwork would diagnose the healthy core
	// under its own injector.
	if br, ok := n.(BulkRouter); ok {
		return fd.d.Diagnose(bulkRouter{n: n, br: br})
	}
	return fd.d.Diagnose(copyRouter{n: n})
}

// ExhaustiveFaultCheck verifies the diagnoser of order m against its whole
// fault universe — every stuck-at fault injected, diagnosed, and compared to
// the ground truth — and returns the number of faults checked.
func ExhaustiveFaultCheck(m int) (int, error) { return fault.ExhaustiveCheck(m) }
