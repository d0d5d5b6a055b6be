// Package plane is the self-healing redundancy layer of the serving stack:
// a Supervisor runs K >= 2 identical router planes behind one routing
// front, detects a failing plane on its first misroute or probe failure,
// fails over from it, repairs the plane (constructor rebuild, or heal-window
// expiry under transient chaos), and readmits it only after a clean full
// probe pass. One probe battery, fault.CanonicalProbes of the plane order,
// serves every order; a fault the battery misses is found by the verified
// live traffic, and a plane whose hard failures keep taking it out of
// service is rebuilt.
//
// The paper's network has exactly one path per (input, output) pair, so a
// single stuck element breaks permutations until it is found and bypassed.
// The fault injector classifies such failures; this package closes the loop
// into a control plane: the redundancy literature's detect → isolate →
// repair → readmit cycle, the piece rearrangeable deployments assume around
// a fabric.
//
// Concurrency contract: the hot path (RouteInto) takes no locks — plane
// states, in-flight counts and the rotor are atomics — so a routing call
// never serializes against another or against the health checker. The
// health checker is one background goroutine; it owns the Suspect →
// Quarantined → Healthy transitions, while the hot path owns Healthy →
// Suspect.
package plane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/perm"
	"repro/internal/trace"
)

// Router is the routing surface a plane serves — the engine's router shape.
type Router interface {
	// Inputs returns the port count N.
	Inputs() int
	// RouteInto routes src into dst; both must have length N.
	RouteInto(dst, src []core.Word) error
}

// State is the health score of one plane.
type State int32

const (
	// Healthy planes serve live traffic.
	Healthy State = iota
	// Suspect planes failed a route or a probe and are draining; the hot
	// path stops picking them the moment the state flips.
	Suspect
	// Quarantined planes are under repair; they rejoin only after a clean
	// full probe pass.
	Quarantined
	// Admitting planes were added at runtime and are probing their way into
	// service; they carry no live traffic until a clean full probe pass
	// promotes them to Healthy.
	Admitting
	// Draining planes are leaving the serving set (RemovePlane) or having
	// their router swapped (SwapPlane): admission stopped, in-flight
	// requests running to completion.
	Draining
	// Detached planes have left the serving set entirely; the state is
	// terminal and the plane no longer appears in the supervisor's census.
	Detached
)

// MarshalText renders the state by name, so JSON views (expvar) show
// "healthy" rather than 0.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name, so JSON stats surfaces round-trip for
// API clients.
func (s *State) UnmarshalText(text []byte) error {
	for c := Healthy; c <= Detached; c++ {
		if c.String() == string(text) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("plane: unknown state %q", text)
}

// String names the state for logs and expvar.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Admitting:
		return "admitting"
	case Draining:
		return "draining"
	case Detached:
		return "detached"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Config tunes a Supervisor.
type Config struct {
	// Planes are the redundant routers; at least 2, all with equal Inputs.
	Planes []Router
	// Rebuild, when non-nil, constructs a fresh plane — the repair action
	// for faults that do not heal on their own. The supervisor invokes it
	// on a quarantined plane after rebuildAfter consecutive failed readmit
	// probe passes, or after rebuildAfter hard failures took the plane out
	// of service since its router was installed.
	Rebuild func() (Router, error)
	// HealthInterval is the period of the background health sweep; <= 0
	// selects 10ms. Failures additionally kick the sweep immediately.
	HealthInterval time.Duration
	// HedgeAuto enables hedged routing: a request still in flight after
	// the hedge delay — a multiple of the fastest healthy plane's latency
	// EWMA — is re-issued on the next healthy plane and the first response
	// wins. Until the fleet has latency history, requests serve
	// sequentially.
	HedgeAuto bool
	// SlowFactor tunes slow-plane detection: a successful pass slower than
	// SlowFactor times the fastest other healthy plane's latency EWMA (and
	// slower than SlowFloor) is a slow strike; SlowAfter consecutive
	// strikes drain the plane into quarantine like a misroute would.
	// <= 0 disables detection unless hedging is enabled, which defaults it
	// to 8.
	SlowFactor float64
	// SlowFloor is the absolute latency below which a pass is never a slow
	// strike, so microsecond-scale jitter cannot quarantine anything;
	// <= 0 selects 100µs.
	SlowFloor time.Duration
	// SlowAfter is the consecutive-strike hysteresis before a slow plane is
	// drained; <= 0 selects 4.
	SlowAfter int
	// PoisonThreshold is the number of distinct planes one request
	// fingerprint must hard-fail on before it is rejected with ErrPoisoned;
	// 0 selects 2, negative disables the poison quarantine.
	PoisonThreshold int
	// Metrics, when non-nil, receives failover/repair/readmit counters and
	// the plane-state gauges. Routing observations stay with the engine.
	Metrics *metrics.Metrics
	// Tracer, when non-nil, receives one span per health-checker probe pass
	// (request spans arrive from the engine via RouteIntoTraced). Nil
	// disables probe tracing at zero cost.
	Tracer *trace.Tracer
}

// planeState is the per-plane control block. All fields the hot path reads
// are atomics; the health checker is the only writer of router swaps and of
// the Suspect -> Quarantined -> Healthy transitions.
type planeState struct {
	id       int
	router   atomic.Pointer[routerBox]
	state    atomic.Int32
	inflight atomic.Int64
	served   atomic.Int64
	failures atomic.Int64
	repairs  atomic.Int64
	readmits atomic.Int64

	// latEwma is the plane's per-pass service latency EWMA in nanoseconds
	// (alpha = 1/8), updated lock-free on every successful route. It feeds
	// the auto hedge delay and slow-plane detection; readmission resets it
	// so a healed plane is not judged by its degraded history.
	latEwma atomic.Int64
	// slowStrikes counts consecutive slow passes (hysteresis); any fast
	// pass resets it.
	slowStrikes atomic.Int64
	// slow marks a plane quarantined for chronic slowness rather than
	// misrouting; readmission additionally requires a fast probe pass.
	slow atomic.Bool

	// failedProbes counts consecutive failed readmission attempts; reset on
	// readmit, on rebuild and when SwapPlane installs a new router. The
	// health checker and SwapPlane both write it, so it is atomic.
	failedProbes atomic.Int32
	// hardQuars counts the quarantines a hard (not ErrTransient) failure
	// started since the plane's router was installed. It survives
	// readmission, so a fault the probes miss, which live traffic trips
	// again after every readmit, still earns a rebuild; a rebuild or
	// SwapPlane resets it. The hot path's fail and the health checker
	// both write it.
	hardQuars atomic.Int32
	// lastErr records the failure that triggered the current quarantine.
	lastErr atomic.Pointer[error]
}

// routerBox wraps the router so swaps are one atomic pointer store.
type routerBox struct{ r Router }

func (p *planeState) get() Router { return p.router.Load().r }

// Supervisor serves permutation routes over K redundant planes. Construct
// with New; RouteInto is safe for concurrent use and lock-free. The plane
// set itself is dynamic: AddPlane, RemovePlane and SwapPlane mutate the
// membership at runtime behind an atomic snapshot pointer, so the hot path
// reads one consistent plane slice per request without ever locking.
type Supervisor struct {
	// planes is the membership snapshot the hot path reads; membership
	// writers copy the slice, mutate the copy, and publish it atomically.
	planes atomic.Pointer[[]*planeState]
	// memberMu serializes membership mutations (add, remove, swap). It is
	// never taken on the routing path.
	memberMu sync.Mutex
	// nextID hands out monotonically increasing plane ids; ids are never
	// reused, so a detached plane's id stays meaningful in traces and logs.
	nextID int // guarded by memberMu

	n      int // port count
	rotor  atomic.Uint64
	m      *metrics.Metrics
	tracer *trace.Tracer

	probes   []perm.Perm
	rebuild  func() (Router, error)
	interval time.Duration

	// Tail-tolerance knobs, resolved from Config in New. hedgeAuto derives
	// the hedge delay from the latency EWMAs; slowFactor <= 0 disables
	// slow-plane detection.
	hedgeAuto   bool
	slowFactor  float64
	slowFloorNs int64
	slowAfter   int64
	// bufPool holds the hedge scratch buffers ([]core.Word of length n).
	bufPool sync.Pool
	// poison is the poison-request quarantine; nil when disabled.
	poison *poisonTable

	failovers atomic.Int64
	hedges    atomic.Int64

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once
	closed    atomic.Bool
}

// snapshot returns the current membership; the slice is immutable once
// published, so callers may index it freely.
func (s *Supervisor) snapshot() []*planeState { return *s.planes.Load() }

// plane returns the i-th member of the current snapshot (test helper and
// internal accessor; position, not id).
func (s *Supervisor) plane(i int) *planeState { return s.snapshot()[i] }

// byID returns the member with the given plane id, or nil.
func (s *Supervisor) byID(id int) *planeState {
	for _, p := range s.snapshot() {
		if p.id == id {
			return p
		}
	}
	return nil
}

// New builds a supervisor over the configured planes and starts its health
// checker.
func New(cfg Config) (*Supervisor, error) {
	if len(cfg.Planes) < 2 {
		return nil, fmt.Errorf("plane: need at least 2 planes, got %d", len(cfg.Planes))
	}
	n := cfg.Planes[0].Inputs()
	for i, p := range cfg.Planes {
		if p == nil {
			return nil, fmt.Errorf("plane: plane %d is nil", i)
		}
		if p.Inputs() != n {
			return nil, fmt.Errorf("plane: plane %d has %d ports, plane 0 has %d: %w", i, p.Inputs(), n, neterr.ErrBadSize)
		}
	}
	m := 0
	for 1<<uint(m) < n {
		m++
	}
	if 1<<uint(m) != n {
		return nil, fmt.Errorf("plane: %d ports is not a power of two: %w", n, neterr.ErrBadSize)
	}
	interval := cfg.HealthInterval
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	slowFactor := cfg.SlowFactor
	if slowFactor <= 0 && cfg.HedgeAuto {
		slowFactor = 8
	}
	slowFloor := cfg.SlowFloor
	if slowFloor <= 0 {
		slowFloor = 100 * time.Microsecond
	}
	slowAfter := cfg.SlowAfter
	if slowAfter <= 0 {
		slowAfter = 4
	}
	var poison *poisonTable
	if cfg.PoisonThreshold >= 0 {
		poison = newPoisonTable(cfg.PoisonThreshold, poisonTTL)
	}
	s := &Supervisor{
		n:           n,
		m:           cfg.Metrics,
		tracer:      cfg.Tracer,
		probes:      fault.CanonicalProbes(m),
		rebuild:     cfg.Rebuild,
		interval:    interval,
		hedgeAuto:   cfg.HedgeAuto,
		slowFactor:  slowFactor,
		slowFloorNs: int64(slowFloor),
		slowAfter:   int64(slowAfter),
		poison:      poison,
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	members := make([]*planeState, len(cfg.Planes))
	for i, r := range cfg.Planes {
		p := &planeState{id: i}
		p.router.Store(&routerBox{r: r})
		members[i] = p
	}
	s.planes.Store(&members)
	s.nextID = len(members)
	s.publishGauges()
	s.wg.Add(1)
	go s.healthLoop()
	return s, nil
}

// Inputs implements Router.
func (s *Supervisor) Inputs() int { return s.n }

// Planes returns the number of supervised planes.
func (s *Supervisor) Planes() int { return len(s.snapshot()) }

// PlaneIDs returns the ids of the current members, in membership order.
func (s *Supervisor) PlaneIDs() []int {
	ps := s.snapshot()
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.id
	}
	return out
}

// Router returns the router the plane with the given id routes through
// now, or nil when no current member has that id.
func (s *Supervisor) Router(id int) Router {
	if p := s.byID(id); p != nil {
		return p.get()
	}
	return nil
}

// Failovers returns the number of planes drained and failed away from.
func (s *Supervisor) Failovers() int64 { return s.failovers.Load() }

// Hedges returns the number of hedge attempts the timer fired.
func (s *Supervisor) Hedges() int64 { return s.hedges.Load() }

// States returns the current state of every plane, in membership order.
func (s *Supervisor) States() []State {
	ps := s.snapshot()
	out := make([]State, len(ps))
	for i, p := range ps {
		out[i] = State(p.state.Load())
	}
	return out
}

// Stats is a point-in-time view of one plane.
type Stats struct {
	// ID is the plane's stable id; membership positions shift as planes are
	// added and removed, ids never do.
	ID int
	// State is the plane's current health score.
	State State
	// Served counts requests the plane routed and delivered correctly.
	Served int64
	// InFlight is the number of requests currently routing on the plane.
	InFlight int64
	// Failures counts route and probe failures attributed to the plane.
	Failures int64
	// Repairs counts rebuilds of this plane.
	Repairs int64
	// Readmits counts this plane's readmissions after quarantine.
	Readmits int64
	// LatencyEWMA is the plane's per-pass service latency EWMA; zero until
	// the plane serves (and again right after a readmission resets it).
	LatencyEWMA time.Duration
	// Slow reports a plane currently quarantined for chronic slowness.
	Slow bool
	// LastError is the failure that triggered the most recent quarantine,
	// empty if the plane never failed.
	LastError string
}

// PlaneStats returns the per-plane view, in membership order.
func (s *Supervisor) PlaneStats() []Stats {
	ps := s.snapshot()
	out := make([]Stats, len(ps))
	for i, p := range ps {
		st := Stats{
			ID:          p.id,
			State:       State(p.state.Load()),
			Served:      p.served.Load(),
			InFlight:    p.inflight.Load(),
			Failures:    p.failures.Load(),
			Repairs:     p.repairs.Load(),
			Readmits:    p.readmits.Load(),
			LatencyEWMA: time.Duration(p.latEwma.Load()),
			Slow:        p.slow.Load(),
		}
		if e := p.lastErr.Load(); e != nil {
			st.LastError = (*e).Error()
		}
		out[i] = st
	}
	return out
}

// RouteInto implements Router: it routes src into dst on a healthy plane,
// verifies the delivery, and on any plane failure marks the plane suspect
// and retries on the next one, so a single faulty plane surfaces no error
// to the caller. Request-shaped errors (ErrNotPermutation, ErrBadSize) are
// the caller's fault and are returned without blaming the plane. When no
// plane is healthy, suspect and quarantined planes serve as a verified last
// resort; when no plane is in service at all, the request is shed with
// ErrOverloaded.
func (s *Supervisor) RouteInto(dst, src []core.Word) error {
	return s.routeInto(dst, src, nil)
}

// RouteIntoTraced is RouteInto annotating the request's span with each plane
// attempt, failover, shed decision, and the plane that finally served. A nil
// span routes identically to RouteInto — the disabled-tracing hot path.
func (s *Supervisor) RouteIntoTraced(dst, src []core.Word, sp *trace.Span) error {
	return s.routeInto(dst, src, sp)
}

// routeYield, when non-nil, is invoked after a request is admitted (the
// closed check passed) and before a plane is selected — the preemption
// point the deterministic mid-swap schedule tests use to park a request
// while a concurrent SwapPlane completes. Production leaves it nil.
var routeYield func()

func (s *Supervisor) routeInto(dst, src []core.Word, sp *trace.Span) error {
	if s.closed.Load() {
		return fmt.Errorf("plane: %w", neterr.ErrClosed)
	}
	if routeYield != nil {
		routeYield()
	}
	// Poison admission: when the strike table is non-empty, a quarantined
	// fingerprint is rejected before it touches any plane. The empty-table
	// fast path is a single atomic load, keeping the clean hot path at
	// zero allocations.
	var fp uint64
	var hasFP bool
	if s.poison != nil && s.poison.size.Load() > 0 {
		fp, hasFP = core.AddrHash(src), true
		if s.poison.isPoisoned(fp) {
			s.m.AddPoisonedReject()
			sp.MarkPoisoned()
			return fmt.Errorf("plane: request fingerprint %016x quarantined: %w", fp, neterr.ErrPoisoned)
		}
	}
	// One consistent membership snapshot per request: a concurrent
	// add/remove publishes a fresh slice, never mutates this one.
	planes := s.snapshot()
	k := len(planes)
	// Reduce the rotor modulo the plane count in uint64 space before the
	// int conversion: converting the raw counter truncates once it passes
	// MaxInt on 32-bit platforms (and MaxInt64 anywhere), yielding a
	// negative start and a panic on the plane index.
	start := int((s.rotor.Add(1) - 1) % uint64(k))
	var lastErr error
	from := Healthy
	if s.hedgeAuto {
		settled, err := s.routeHedged(planes, start, dst, src, sp, &fp, &hasFP)
		if settled {
			return err
		}
		if err != nil {
			// Every healthy plane failed under the hedge: degrade.
			lastErr, from = err, Suspect
		}
	}
	// The serving cascade walks Healthy, Suspect and Quarantined (three
	// consecutive states) in order: when no healthy plane delivers, serve
	// degraded rather than going dark. Every route is still verified, so a
	// wrong answer cannot leak. Admitting planes stay out (unproven) and
	// draining planes stay out (leaving).
	for want := from; want <= Quarantined; want++ {
		for off := 0; off < k; off++ {
			p := planes[(start+off)%k]
			if State(p.state.Load()) != want {
				continue
			}
			err := s.routeOn(p, dst, src, sp)
			sp.AddAttempt()
			if err == nil {
				sp.SetPlane(p.id)
				return nil
			}
			if isRequestError(err) {
				return err
			}
			sp.AddFailover()
			lastErr = err
			if perr := s.poisonStrike(src, &fp, &hasFP, p.id, err); perr != nil {
				sp.MarkPoisoned()
				return perr
			}
		}
	}
	if lastErr == nil {
		sp.MarkShed()
		s.m.AddShed()
		return fmt.Errorf("plane: none of %d planes is in service: %w", k, neterr.ErrOverloaded)
	}
	return fmt.Errorf("plane: all %d planes failed: %w", k, lastErr)
}

// poisonStrike records a plane-blamed hard failure of the request against
// its fingerprint; transient failures (the fault will heal) never strike.
// When the strike set crosses the distinct-plane threshold the returned
// error quarantines the request with ErrPoisoned — wrapping the triggering
// failure, so existing classification (errors.Is ErrMisrouted) still holds
// on the request that crossed the line.
func (s *Supervisor) poisonStrike(src []core.Word, fp *uint64, hasFP *bool, planeID int, err error) error {
	if s.poison == nil || errors.Is(err, neterr.ErrTransient) {
		return nil
	}
	if !*hasFP {
		*fp, *hasFP = core.AddrHash(src), true
	}
	poisoned, became := s.poison.strike(*fp, planeID)
	if became {
		s.m.AddPoisonMark()
	}
	if !poisoned {
		return nil
	}
	return fmt.Errorf("plane: request fingerprint %016x hard-failed on %d distinct planes: %w: %w",
		*fp, s.poison.threshold, neterr.ErrPoisoned, err)
}

// spanRouter is the optional span-carrying surface of a plane router (the
// engine's TracedRouter shape); planes wrapping a compiled-plan fast path
// implement it so compile and replay time land on the request's span.
type spanRouter interface {
	RouteIntoTraced(dst, src []core.Word, sp *trace.Span) error
}

// routeOn routes one request on the plane and returns the verified routing
// outcome.
func (s *Supervisor) routeOn(p *planeState, dst, src []core.Word, sp *trace.Span) error {
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	box := p.router.Load()
	begin := time.Now()
	var err error
	if tr, ok := box.r.(spanRouter); ok {
		err = tr.RouteIntoTraced(dst, src, sp)
	} else {
		err = box.r.RouteInto(dst, src)
	}
	if err == nil {
		// Opportunistic live-traffic verification: output j must carry the
		// word addressed to j. Planes that verify internally (the fault
		// injector) already guarantee this; raw planes get it here.
		for j := range dst {
			if dst[j].Addr != j {
				err = fmt.Errorf("plane %d: output %d carries address %d: %w", p.id, j, dst[j].Addr, neterr.ErrMisrouted)
				break
			}
		}
	}
	if err != nil {
		if !isRequestError(err) {
			s.fail(p, box, err)
		}
		return err
	}
	p.served.Add(1)
	s.observeLatency(p, time.Since(begin).Nanoseconds())
	return nil
}

// observeLatency folds one successful pass into the plane's latency EWMA
// (alpha = 1/8, lock-free) and runs slow-plane detection: the strike test
// compares the raw pass latency — not the EWMA, which decays too slowly to
// separate a chronic stall from transient jitter — against the fastest
// *other* healthy plane's EWMA, so "slow" is always relative to a live
// fleet reference. SlowAfter consecutive strikes drain the plane.
func (s *Supervisor) observeLatency(p *planeState, ns int64) {
	if ns < 0 {
		ns = 0
	}
	for {
		old := p.latEwma.Load()
		next := ns
		if old != 0 {
			next = old - old/8 + ns/8
		}
		if p.latEwma.CompareAndSwap(old, next) {
			break
		}
	}
	if s.slowFactor <= 0 || State(p.state.Load()) != Healthy {
		return
	}
	ref := s.fastestOtherEwma(p)
	if ref <= 0 {
		return // no live reference: a cold fleet judges nobody
	}
	threshold := int64(s.slowFactor * float64(ref))
	if threshold < s.slowFloorNs {
		threshold = s.slowFloorNs
	}
	if ns <= threshold {
		p.slowStrikes.Store(0)
		return
	}
	if p.slowStrikes.Add(1) >= s.slowAfter {
		s.failSlow(p, ns, ref)
	}
}

// fastestOtherEwma returns the smallest nonzero latency EWMA among the
// healthy planes other than p, or 0 when no reference exists.
func (s *Supervisor) fastestOtherEwma(p *planeState) int64 {
	var best int64
	for _, q := range s.snapshot() {
		if q == p || State(q.state.Load()) != Healthy {
			continue
		}
		if v := q.latEwma.Load(); v > 0 && (best == 0 || v < best) {
			best = v
		}
	}
	return best
}

// failSlow drains a chronically slow plane exactly like a misroute would —
// Healthy -> Suspect, health checker kicked — but marks it slow, so
// readmission additionally requires a fast probe pass and the counters
// separate latency quarantines from correctness ones.
func (s *Supervisor) failSlow(p *planeState, ns, ref int64) {
	err := fmt.Errorf("plane %d: chronically slow: %v per pass against fleet-best EWMA %v",
		p.id, time.Duration(ns), time.Duration(ref))
	e := err
	p.lastErr.Store(&e)
	p.failures.Add(1)
	p.slowStrikes.Store(0)
	if p.state.CompareAndSwap(int32(Healthy), int32(Suspect)) {
		p.slow.Store(true)
		s.m.AddSlowQuarantine()
		s.publishGauges()
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// isRequestError reports whether the error blames the request, not the
// plane: malformed input fails identically on every plane, so failing over
// would only repeat the rejection. A fault sentinel overrides the shape
// check — a faulty plane that corrupts addresses mid-route makes the
// underlying network report ErrNotPermutation on a perfectly good request,
// and that is the plane's fault.
func isRequestError(err error) bool {
	if errors.Is(err, neterr.ErrTransient) || errors.Is(err, neterr.ErrMisrouted) {
		return false
	}
	return errors.Is(err, neterr.ErrNotPermutation) || errors.Is(err, neterr.ErrBadSize)
}

// fail records a plane failure on the router box it happened on: the first
// failure flips Healthy -> Suspect, which instantly drains the plane (the
// hot path stops picking it), counts one failover, and kicks the health
// checker to repair it. Only the failure that wins the flip counts toward
// the plane's hard-failure rebuild, so requests failing together count as
// one quarantine. A straggler that fails on a router a rebuild or SwapPlane
// has since replaced cannot take the replacement out of service.
func (s *Supervisor) fail(p *planeState, box *routerBox, err error) {
	p.failures.Add(1)
	e := err
	p.lastErr.Store(&e)
	if p.router.Load() == box && p.state.CompareAndSwap(int32(Healthy), int32(Suspect)) {
		if !errors.Is(err, neterr.ErrTransient) {
			p.hardQuars.Add(1)
		}
		s.failovers.Add(1)
		s.m.AddFailover()
		s.publishGauges()
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// publishGauges pushes the plane-state census into the metrics sink.
func (s *Supervisor) publishGauges() {
	if s.m == nil {
		return
	}
	var h, su, q, adm, dr int64
	for _, p := range s.snapshot() {
		switch State(p.state.Load()) {
		case Healthy:
			h++
		case Suspect:
			su++
		case Quarantined:
			q++
		case Admitting:
			adm++
		case Draining:
			dr++
		}
	}
	s.m.SetPlaneStates(h, su, q, adm, dr)
}

// Close stops the health checker. It does not close the planes — the
// supervisor does not own them — and is idempotent. In-flight routes finish;
// later RouteInto calls fail with ErrClosed. Any probe span still open when
// the checker stops is flushed into the trace ring rather than dropped.
func (s *Supervisor) Close() error {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.stop)
	})
	s.wg.Wait()
	s.tracer.Flush()
	return nil
}
