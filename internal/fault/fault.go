// Package fault is the fault-injection and fault-tolerance subsystem of the
// reproduction. Lee & Lu position the BNB network as the switching fabric of
// "switching systems and parallel processing systems" — systems that must
// survive stuck switch elements, dead links, and transient control-bit
// errors. This package supplies the three pieces that make that survivable
// and testable in simulation:
//
//   - a deterministic, seeded Injector that wraps any word-level Router and
//     models stuck-at-straight / stuck-at-cross switching elements
//     (addressable per main stage / nested column / switch), dead output
//     links, and transient routing-tag bit-flips, under a chaos schedule
//     (a fault activates at cycle t and heals at cycle t');
//   - a Diagnoser that localizes a single stuck-at element fault from the
//     outside by routing a small probe set (identity, bit-complement, the
//     shuffle family) and matching the misdelivery signature against a
//     fault dictionary — self-routing is exactly what makes this possible,
//     because a misrouted probe's output pattern encodes the faulty element;
//   - error classification over the shared neterr sentinels (ErrTransient,
//     ErrMisrouted) so the serving layer can retry what will heal and fail
//     over on what will not.
package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
)

// sleepFn is how delay faults stall a route pass; tests stub it to observe
// injected delays without wall-clock cost.
var sleepFn = time.Sleep

// Kind names a fault model.
type Kind int

const (
	// StuckStraight forces a switching element's exchange bit to 0: the
	// element passes its pair straight regardless of the arbiter decision.
	StuckStraight Kind = iota + 1
	// StuckCross forces a switching element's exchange bit to 1.
	StuckCross
	// DeadLink kills one output link: whatever word the network delivers to
	// that output is lost (the output reads Addr = -1).
	DeadLink
	// TagFlip flips one bit of the routing tag (destination address) of one
	// input word on entry — a transient control-bit error in flight.
	TagFlip
	// Slow adds exactly Delay of latency to every route pass in its window —
	// the degraded-but-correct plane that defeats functional health probes.
	// Delay faults never corrupt data; they only cost time.
	Slow
	// Stall blocks a route pass for Delay before any words move — the
	// adversarial hang a hedged request must race around. Mechanically it
	// sleeps like Slow; semantically it models a head-of-line stall rather
	// than uniform slowdown, and the distinction is kept for reports.
	Stall
	// Jitter adds a seeded uniform draw in [0, Delay] per pass: the same
	// (Seed, cycle) replays the same delay, so jittery tails are exactly
	// reproducible.
	Jitter
)

// delayKind reports whether the kind costs time instead of correctness.
func (k Kind) delayKind() bool { return k == Slow || k == Stall || k == Jitter }

// String names the kind for logs and reports.
func (k Kind) String() string {
	switch k {
	case StuckStraight:
		return "stuck-straight"
	case StuckCross:
		return "stuck-cross"
	case DeadLink:
		return "dead-link"
	case TagFlip:
		return "tag-flip"
	case Slow:
		return "slow"
	case Stall:
		return "stall"
	case Jitter:
		return "jitter"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Element addresses one 2x2 switching element of a BNB network in the
// coordinate system of core.Override and Plan.Control: MainStage is the main-GBN stage i, Column the
// nested-stage index j within it (0 <= j < m-i), and Switch the global
// switch index k within that column (0 <= k < N/2).
type Element struct {
	MainStage int
	Column    int
	Switch    int
}

// String formats the element address.
func (e Element) String() string {
	return fmt.Sprintf("(stage %d, column %d, switch %d)", e.MainStage, e.Column, e.Switch)
}

// Fault is one injected defect with its activity window.
type Fault struct {
	// Kind selects the fault model.
	Kind Kind
	// Elem addresses the switching element (StuckStraight / StuckCross).
	Elem Element
	// Port is the output port of a DeadLink or the input port of a TagFlip.
	Port int
	// Bit is the address bit a TagFlip inverts.
	Bit int
	// Delay is the latency a Slow/Stall pass costs, or the upper bound of a
	// Jitter pass's seeded uniform draw. Ignored by the functional kinds.
	Delay time.Duration
	// From is the first cycle the fault is active (inclusive).
	From int64
	// Until is the first cycle the fault is healed; Until <= 0 means the
	// fault is permanent.
	Until int64
}

// Transient reports whether the fault is scheduled to heal.
func (f Fault) Transient() bool { return f.Until > 0 }

// activeAt reports whether the fault is live at the given cycle.
func (f Fault) activeAt(cycle int64) bool {
	if cycle < f.From {
		return false
	}
	return f.Until <= 0 || cycle < f.Until
}

// String formats the fault for logs and diagnostics.
func (f Fault) String() string {
	window := "permanent"
	if f.Transient() {
		window = fmt.Sprintf("cycles [%d,%d)", f.From, f.Until)
	}
	switch f.Kind {
	case StuckStraight, StuckCross:
		return fmt.Sprintf("%v at %v, %s", f.Kind, f.Elem, window)
	case DeadLink:
		return fmt.Sprintf("%v at output %d, %s", f.Kind, f.Port, window)
	case TagFlip:
		return fmt.Sprintf("%v at input %d bit %d, %s", f.Kind, f.Port, f.Bit, window)
	case Slow, Stall:
		return fmt.Sprintf("%v +%v per pass, %s", f.Kind, f.Delay, window)
	case Jitter:
		return fmt.Sprintf("%v up to +%v per pass, %s", f.Kind, f.Delay, window)
	default:
		return fmt.Sprintf("%v, %s", f.Kind, window)
	}
}

// Plan is a fault schedule: explicit faults plus an optional seeded chaos
// process that injects random transient faults. A Plan is immutable once
// handed to an Injector and may be shared.
type Plan struct {
	// Faults are the explicitly scheduled defects.
	Faults []Fault
	// ChaosRate is the per-cycle probability (0..1) that the chaos process
	// starts a fresh transient fault at that cycle.
	ChaosRate float64
	// ChaosHeal is the lifetime in cycles of each chaos fault; <= 0 selects 1
	// (heals after a single cycle).
	ChaosHeal int
	// Seed drives the chaos process; the same seed replays the same faults.
	Seed int64
	// SlowRate is the per-cycle probability (0..1) that the slow-chaos
	// process starts a fresh transient Slow fault at that cycle. The process
	// draws from its own sub-stream of Seed, so enabling it never perturbs
	// the functional chaos schedule above.
	SlowRate float64
	// SlowDelay is the latency each slow-chaos fault adds per pass; it must
	// be positive when SlowRate > 0.
	SlowDelay time.Duration
	// SlowHeal is the lifetime in cycles of each slow-chaos fault; <= 0
	// selects 1.
	SlowHeal int
}

// Validate checks the plan against a network of order m (N = 2^m ports).
func (p *Plan) Validate(m int) error {
	n := 1 << uint(m)
	for _, f := range p.Faults {
		switch f.Kind {
		case StuckStraight, StuckCross:
			e := f.Elem
			if e.MainStage < 0 || e.MainStage >= m {
				return fmt.Errorf("fault: %v: main stage out of range [0,%d)", f, m)
			}
			if e.Column < 0 || e.Column >= m-e.MainStage {
				return fmt.Errorf("fault: %v: column out of range [0,%d)", f, m-e.MainStage)
			}
			if e.Switch < 0 || e.Switch >= n/2 {
				return fmt.Errorf("fault: %v: switch out of range [0,%d)", f, n/2)
			}
		case DeadLink:
			if f.Port < 0 || f.Port >= n {
				return fmt.Errorf("fault: %v: output out of range [0,%d)", f, n)
			}
		case TagFlip:
			if f.Port < 0 || f.Port >= n {
				return fmt.Errorf("fault: %v: input out of range [0,%d)", f, n)
			}
			if f.Bit < 0 || f.Bit >= m {
				return fmt.Errorf("fault: %v: bit out of range [0,%d)", f, m)
			}
		case Slow, Stall, Jitter:
			if f.Delay <= 0 {
				return fmt.Errorf("fault: %v: delay must be positive", f)
			}
		default:
			return fmt.Errorf("fault: unknown kind %v", f.Kind)
		}
	}
	if p.ChaosRate < 0 || p.ChaosRate > 1 {
		return fmt.Errorf("fault: chaos rate %g out of range [0,1]", p.ChaosRate)
	}
	if p.SlowRate < 0 || p.SlowRate > 1 {
		return fmt.Errorf("fault: slow rate %g out of range [0,1]", p.SlowRate)
	}
	if p.SlowRate > 0 && p.SlowDelay <= 0 {
		return fmt.Errorf("fault: slow rate %g needs a positive slow delay", p.SlowRate)
	}
	return nil
}

// Elements enumerates every switching-element address of a BNB network of
// order m, in dictionary order — the single-fault universe of the diagnoser.
func Elements(m int) []Element {
	n := 1 << uint(m)
	var elems []Element
	for i := 0; i < m; i++ {
		for j := 0; j < m-i; j++ {
			for k := 0; k < n/2; k++ {
				elems = append(elems, Element{MainStage: i, Column: j, Switch: k})
			}
		}
	}
	return elems
}

// Router is the word-level routing surface the injector wraps; it is the
// engine's router shape, implemented natively by *core.Network.
type Router interface {
	// Inputs returns the port count N.
	Inputs() int
	// RouteInto routes src into dst; both must have length N.
	RouteInto(dst, src []core.Word) error
}

// OverrideRouter is the additional capability stuck-at element faults
// require of the wrapped router: routing with a per-element control
// override. *core.Network implements it; so does any decorator that
// forwards the hook.
type OverrideRouter interface {
	Router
	RouteIntoOverride(dst, src []core.Word, ov core.Override) error
}

// Injector wraps a Router and perturbs its routes according to a Plan. The
// injector keeps a cycle clock that advances by one per RouteInto call, so a
// fault window [From, Until) spans route passes; the fabric's one pass per
// cycle makes the two clocks coincide. All methods are safe for concurrent
// use, and the chaos process is a pure function of (Seed, cycle), so a run
// is deterministic even under concurrent submitters — though the
// interleaving of cycle numbers across goroutines is scheduler-dependent.
type Injector struct {
	r      Router
	or     OverrideRouter // nil when r lacks the override capability
	plan   *Plan
	m      int // network order, log2(Inputs)
	cycle  atomic.Int64
	verify bool
	sink   *metrics.Metrics
	// injected counts route passes that had at least one active fault.
	injected atomic.Int64
	// delayed counts route passes a delay fault stalled; delayNs is the
	// total injected delay across them.
	delayed atomic.Int64
	delayNs atomic.Int64
}

// Options tunes an Injector.
type Options struct {
	// Verify makes RouteInto check the delivery contract after every pass
	// and return an error classifying the failure (ErrTransient wrapped when
	// an active transient fault explains it, ErrMisrouted always). The
	// serving engine wants this on so its retry and breaker policies see
	// classified failures; the fabric wants it off so it can requeue
	// selectively from the corrupted arrangement.
	Verify bool
	// Metrics, when non-nil, receives one AddFault observation per route
	// pass that had at least one active fault.
	Metrics *metrics.Metrics
}

// New builds an injector around the router. Plans containing stuck-at
// element faults (explicit or chaos-generated) require the router to
// implement OverrideRouter; plans limited to DeadLink and TagFlip work on
// any Router.
func New(r Router, plan *Plan, opts Options) (*Injector, error) {
	if r == nil {
		return nil, fmt.Errorf("fault: nil router")
	}
	if plan == nil {
		return nil, fmt.Errorf("fault: nil plan")
	}
	n := r.Inputs()
	m := 0
	for 1<<uint(m) < n {
		m++
	}
	if 1<<uint(m) != n {
		return nil, fmt.Errorf("fault: router has %d ports, need a power of two: %w", n, neterr.ErrBadSize)
	}
	if err := plan.Validate(m); err != nil {
		return nil, err
	}
	inj := &Injector{r: r, plan: plan, m: m, verify: opts.Verify, sink: opts.Metrics}
	inj.or, _ = r.(OverrideRouter)
	if inj.or == nil && plan.needsOverride() {
		return nil, fmt.Errorf("fault: plan contains stuck-at element faults but the router cannot override switch elements")
	}
	return inj, nil
}

// needsOverride reports whether the plan can ever require the element hook.
func (p *Plan) needsOverride() bool {
	for _, f := range p.Faults {
		if f.Kind == StuckStraight || f.Kind == StuckCross {
			return true
		}
	}
	return p.ChaosRate > 0 // chaos draws from all kinds
}

// Inputs implements Router.
func (inj *Injector) Inputs() int { return inj.r.Inputs() }

// Cycle returns the number of route passes the injector has clocked.
func (inj *Injector) Cycle() int64 { return inj.cycle.Load() }

// InjectedPasses returns the number of route passes perturbed by at least
// one active fault.
func (inj *Injector) InjectedPasses() int64 { return inj.injected.Load() }

// DelayedPasses returns the number of route passes a delay fault stalled.
func (inj *Injector) DelayedPasses() int64 { return inj.delayed.Load() }

// InjectedDelay returns the total latency delay faults have injected.
func (inj *Injector) InjectedDelay() time.Duration {
	return time.Duration(inj.delayNs.Load())
}

// delayFor sums the latency the live delay faults charge this pass. Jitter
// draws are a pure function of (Seed, fault identity, cycle), so a replayed
// run charges identical delays.
func (inj *Injector) delayFor(live []Fault, cycle int64) time.Duration {
	var total time.Duration
	for i, f := range live {
		switch f.Kind {
		case Slow, Stall:
			total += f.Delay
		case Jitter:
			h := splitmix64(uint64(inj.plan.Seed) ^ splitmix64(uint64(cycle)+uint64(i)<<17) ^ slowSalt)
			total += time.Duration(h % uint64(f.Delay+1))
		}
	}
	return total
}

// splitmix64 is the stateless per-cycle PRNG of the chaos process: a pure
// function of the plan seed and the cycle, so concurrent route passes draw
// deterministically without shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b85b
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// chaosAt returns the chaos fault born at the given cycle, if the seeded
// draw fired there. Every chaos fault is transient with lifetime ChaosHeal.
func (inj *Injector) chaosAt(cycle int64) (Fault, bool) {
	p := inj.plan
	if p.ChaosRate <= 0 {
		return Fault{}, false
	}
	h := splitmix64(uint64(p.Seed) ^ splitmix64(uint64(cycle)))
	if float64(h>>11)/float64(1<<53) >= p.ChaosRate {
		return Fault{}, false
	}
	heal := p.ChaosHeal
	if heal <= 0 {
		heal = 1
	}
	n := inj.Inputs()
	// Independent sub-draws pick the fault shape.
	d1, d2, d3 := splitmix64(h), splitmix64(h+1), splitmix64(h+2)
	f := Fault{From: cycle, Until: cycle + int64(heal)}
	switch d1 % 4 {
	case 0:
		f.Kind = StuckStraight
	case 1:
		f.Kind = StuckCross
	case 2:
		f.Kind = DeadLink
	default:
		f.Kind = TagFlip
	}
	switch f.Kind {
	case StuckStraight, StuckCross:
		i := int(d2) & 0x7fffffff % inj.m
		j := int(d3) & 0x7fffffff % (inj.m - i)
		k := int(d2>>32) & 0x7fffffff % (n / 2)
		f.Elem = Element{MainStage: i, Column: j, Switch: k}
	case DeadLink:
		f.Port = int(d2) & 0x7fffffff % n
	case TagFlip:
		f.Port = int(d2) & 0x7fffffff % n
		f.Bit = int(d3) & 0x7fffffff % inj.m
	}
	return f, true
}

// slowSalt decorrelates the slow-chaos sub-stream from the functional chaos
// draws: both processes are pure functions of (Seed, cycle), but a slow
// draw firing never changes which functional fault (if any) fires there.
const slowSalt = 0x736c6f776368616f // "slowchao"

// slowAt returns the slow-chaos fault born at the given cycle, if the
// seeded draw fired there. Every slow-chaos fault is a transient Slow with
// the plan's delay and lifetime SlowHeal.
func (inj *Injector) slowAt(cycle int64) (Fault, bool) {
	p := inj.plan
	if p.SlowRate <= 0 {
		return Fault{}, false
	}
	h := splitmix64(uint64(p.Seed) ^ slowSalt ^ splitmix64(uint64(cycle)))
	if float64(h>>11)/float64(1<<53) >= p.SlowRate {
		return Fault{}, false
	}
	heal := p.SlowHeal
	if heal <= 0 {
		heal = 1
	}
	return Fault{Kind: Slow, Delay: p.SlowDelay, From: cycle, Until: cycle + int64(heal)}, true
}

// active collects the faults live at the given cycle: explicit plan entries
// plus chaos and slow-chaos faults born within their heal windows.
func (inj *Injector) active(cycle int64) []Fault {
	var live []Fault
	for _, f := range inj.plan.Faults {
		if f.activeAt(cycle) {
			live = append(live, f)
		}
	}
	heal := inj.plan.ChaosHeal
	if heal <= 0 {
		heal = 1
	}
	for back := int64(0); back < int64(heal); back++ {
		birth := cycle - back
		if birth < 0 {
			break
		}
		if f, ok := inj.chaosAt(birth); ok && f.activeAt(cycle) {
			live = append(live, f)
		}
	}
	slowHeal := inj.plan.SlowHeal
	if slowHeal <= 0 {
		slowHeal = 1
	}
	for back := int64(0); back < int64(slowHeal); back++ {
		birth := cycle - back
		if birth < 0 {
			break
		}
		if f, ok := inj.slowAt(birth); ok && f.activeAt(cycle) {
			live = append(live, f)
		}
	}
	return live
}

// ActiveAt exposes the fault set live at a cycle — the ground truth a chaos
// experiment's report compares observed failures against.
func (inj *Injector) ActiveAt(cycle int64) []Fault { return inj.active(cycle) }

// RouteInto implements Router: it advances the cycle clock, perturbs the
// pass according to the faults active at that cycle, and — with Verify on —
// checks the delivery contract, classifying any violation as transient
// (errors.Is ErrTransient: every contributing fault heals) or hard. dst and
// src must have length N and must not partially overlap; unlike the clean
// hot path, a faulty pass may leave dst corrupted, which is the point.
func (inj *Injector) RouteInto(dst, src []core.Word) error {
	cycle := inj.cycle.Add(1) - 1
	live := inj.active(cycle)
	if len(live) == 0 {
		return inj.r.RouteInto(dst, src)
	}
	inj.injected.Add(1)
	if inj.sink != nil {
		inj.sink.AddFaults(int64(len(live)))
	}

	// Delay faults cost time up front; they never corrupt the pass, so they
	// do not participate in error classification below.
	if d := inj.delayFor(live, cycle); d > 0 {
		inj.delayed.Add(1)
		inj.delayNs.Add(int64(d))
		sleepFn(d)
	}

	// Tag flips corrupt the offered addresses before entry.
	routeSrc := src
	var flipped []core.Word
	transientOnly := true
	for _, f := range live {
		if !f.Transient() && !f.Kind.delayKind() {
			transientOnly = false
		}
		if f.Kind != TagFlip {
			continue
		}
		if flipped == nil {
			flipped = make([]core.Word, len(src))
			copy(flipped, src)
			routeSrc = flipped
		}
		flipped[f.Port].Addr ^= 1 << uint(f.Bit)
	}

	// Stuck elements corrupt switch states through the override hook.
	var ov core.Override
	for _, f := range live {
		if f.Kind == StuckStraight || f.Kind == StuckCross {
			ov = inj.overrideFor(live)
			break
		}
	}

	var err error
	if ov != nil {
		err = inj.or.RouteIntoOverride(dst, routeSrc, ov)
	} else {
		err = inj.r.RouteInto(dst, routeSrc)
	}
	if err != nil {
		// The corrupted tags no longer formed a permutation (or the inner
		// router rejected the pass): classify before reporting.
		return inj.classify(err, transientOnly, cycle)
	}

	// Dead links lose whatever arrived on them.
	for _, f := range live {
		if f.Kind == DeadLink {
			dst[f.Port] = core.Word{Addr: -1, Data: 0}
		}
	}

	if inj.verify {
		for j := range dst {
			if dst[j].Addr != j {
				return inj.classify(
					fmt.Errorf("output %d carries address %d: %w", j, dst[j].Addr, neterr.ErrMisrouted),
					transientOnly, cycle)
			}
		}
	}
	return nil
}

// classify wraps a faulty-pass error with the recovery class the serving
// layer keys on: transient failures additionally satisfy
// errors.Is(err, neterr.ErrTransient).
func (inj *Injector) classify(err error, transientOnly bool, cycle int64) error {
	if transientOnly {
		return fmt.Errorf("fault: cycle %d: %w: %w", cycle, neterr.ErrTransient, err)
	}
	return fmt.Errorf("fault: cycle %d: %w", cycle, err)
}

// overrideFor builds the core.Override applying every live stuck element.
func (inj *Injector) overrideFor(live []Fault) core.Override {
	return func(mainStage, column, switchBase int, controls []bool, _ []core.Word) {
		for _, f := range live {
			if f.Kind != StuckStraight && f.Kind != StuckCross {
				continue
			}
			e := f.Elem
			if e.MainStage != mainStage || e.Column != column {
				continue
			}
			if x := e.Switch - switchBase; x >= 0 && x < len(controls) {
				controls[x] = f.Kind == StuckCross
			}
		}
	}
}

// StuckAt builds the permanent single-element fault plan the diagnoser's
// exhaustive check injects.
func StuckAt(e Element, cross bool) *Plan {
	k := StuckStraight
	if cross {
		k = StuckCross
	}
	return &Plan{Faults: []Fault{{Kind: k, Elem: e}}}
}
