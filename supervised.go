package bnbnet

// This file exposes the self-healing redundancy layer: NewSupervised runs
// K >= 2 identical router planes behind one serving engine, with a
// background health checker that takes a plane out of service on its first
// misroute or probe failure, repairs it, and readmits it after a clean full
// probe pass (DESIGN.md §9).

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/plancache"
	"repro/internal/plane"
)

// PlaneState is the health score of one supervised plane.
type PlaneState = plane.State

// The plane-state taxonomy: healthy planes serve, suspect planes are
// draining after a failure, quarantined planes are under repair. The
// membership states cover runtime reconfiguration: admitting planes are
// probing their way into service, draining planes are leaving under a
// RemovePlane or a Reconfigure swap, detached planes have left entirely.
const (
	PlaneHealthy     = plane.Healthy
	PlaneSuspect     = plane.Suspect
	PlaneQuarantined = plane.Quarantined
	PlaneAdmitting   = plane.Admitting
	PlaneDraining    = plane.Draining
	PlaneDetached    = plane.Detached
)

// PlaneStats is a point-in-time view of one supervised plane.
type PlaneStats = plane.Stats

// defaultPlanCacheEntries is the per-plane plan-cache capacity NewSupervised
// selects when WithPlanCache is absent and the planes offer the
// compiled-plan surface. Pass WithPlanCache(0) to opt out.
const defaultPlanCacheEntries = 128

// planeSet is the redundant-planes half of a supervised stack: the plane
// supervisor with its health checker and the builder every runtime plane
// comes from. Supervised runs an engine in front of one; a cluster shard
// routes through one directly, on the caller's goroutine.
type planeSet struct {
	sup *plane.Supervisor

	// build constructs one fresh, fault-free plane of the configured family.
	// AddPlane, Reconfigure and the supervisor's repair action all rebuild
	// through it, so every plane that enters service at runtime is built
	// exactly like the originals, with its own fresh plan cache: a cache is
	// never shared across planes (a plan compiled on a faulty plane must
	// not serve a healthy one) nor handed to a successor (DESIGN.md §12).
	build func() (plane.Router, error)

	// cached reports whether plan caching is on, so Stats lists one cache
	// per plane; faulted and plan-incapable planes report zero stats.
	cached bool

	m      *Metrics // nil unless WithMetrics was set
	tracer *Tracer  // nil unless WithTracer was set
}

// Supervised is a self-healing serving front over K redundant router
// planes: requests are admitted by the engine (worker pool, deadlines,
// optional shedding), routed on a healthy plane with every delivery
// verified, and failed over transparently when a plane misbehaves, while
// the supervisor's health checker quarantines, repairs and readmits the
// faulty plane in the background. Construct with NewSupervised; all methods
// are safe for concurrent use.
type Supervised struct {
	*planeSet
	e   *engine.Engine
	dbg *DebugServer // nil unless WithDebugAddr was set

	// reconfigMu serializes AddPlane, RemovePlane and Reconfigure. It is
	// never taken on the routing path.
	reconfigMu sync.Mutex
}

// NewSupervised builds K identical planes of the family (default 2, set
// WithPlanes) and starts the supervised serving front. Engine options
// (WithWorkers, WithQueue, WithMetrics, WithTimeout, WithShedding,
// WithTracer, WithDebugAddr) tune the front; WithHealthInterval sets the
// probe cadence, and WithPlaneFaults injects a chaos plan into one plane
// for resilience experiments. A request that fails on one plane fails
// over to the next within the same call. The health checker probes every
// plane with one battery at every order (fault.CanonicalProbes) and builds
// no fault dictionary; a fault the battery misses is caught by the
// verified live traffic, and a plane that keeps failing it is rebuilt.
func NewSupervised(family string, m int, opts ...Option) (*Supervised, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.anySet(optShards) {
		return nil, fmt.Errorf("bnbnet: WithShards applies to NewCluster, not NewSupervised")
	}
	if o.anySet(optTrace) {
		return nil, fmt.Errorf("bnbnet: WithTrace applies to New, not NewSupervised")
	}
	if o.anySet(optFaults) {
		return nil, fmt.Errorf("bnbnet: WithFaults applies to New; use WithPlaneFaults(plane, plan) to fault one supervised plane")
	}
	if o.anySet(optFabric) {
		return nil, fmt.Errorf("bnbnet: WithVOQ and WithDegraded apply to NewFabric, not NewSupervised")
	}
	ps, err := newPlaneSet(family, m, o)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(ps.sup, engine.Config{
		Workers: o.workers,
		Queue:   o.queue,
		Metrics: o.metrics,
		Timeout: o.timeout,
		Shed:    o.shed,
		Tracer:  o.tracer,
	})
	if err != nil {
		ps.sup.Close()
		return nil, err
	}
	var dbg *DebugServer
	if o.debugAddr != "" {
		if dbg, err = Serve(o.debugAddr, o.metrics, o.tracer); err != nil {
			e.Close()
			ps.sup.Close()
			return nil, err
		}
	}
	return &Supervised{planeSet: ps, e: e, dbg: dbg}, nil
}

// newPlaneSet builds the planes of a supervised stack and starts their
// supervisor: NewSupervised puts an engine in front of it, NewCluster
// routes each shard through one. Option validation is the caller's; only
// the plane options (WithPlanes, WithPlaneFaults, WithHealthInterval,
// WithHedgeAuto, WithPlanCache, WithDataBits) and the sinks are read here.
func newPlaneSet(family string, m int, o options) (*planeSet, error) {
	builders.RLock()
	b := builders.m[family]
	builders.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("bnbnet: unknown network family %q (have %v)", family, Families())
	}
	k := o.planes
	if k == 0 {
		k = 2
	}
	for idx := range o.planeFaults {
		if idx >= k {
			return nil, fmt.Errorf("bnbnet: WithPlaneFaults(%d, ...): only %d planes (WithPlanes)", idx, k)
		}
	}
	// Plan caching defaults on (per plane) when the family offers the
	// compiled-plan surface; WithPlanCache(0) opts out and an explicit
	// capacity is mandatory — it errors on plan-incapable families.
	cacheEntries := o.planCache
	if !o.anySet(optPlanCache) {
		cacheEntries = defaultPlanCacheEntries
	}
	build := func() (plane.Router, error) {
		n, err := b(m, o.dataBits)
		if err != nil {
			return nil, err
		}
		if cacheEntries > 0 {
			if cached, ok := newCachedPlanRouter(n, cacheEntries, o.metrics); ok {
				return cached, nil
			}
			if o.anySet(optPlanCache) {
				return nil, fmt.Errorf("bnbnet: WithPlanCache requires a network with the compiled-plan surface (family %q offers none; see AsPlanRouter)", family)
			}
		}
		return engineRouter(n), nil
	}
	planes := make([]plane.Router, k)
	for i := 0; i < k; i++ {
		if p, ok := o.planeFaults[i]; ok {
			// Faulted planes route live and uncached: a plan compiled on a
			// faulty plane must never be replayed, and the injector's
			// per-route perturbation would defeat caching anyway.
			n, err := b(m, o.dataBits)
			if err != nil {
				return nil, err
			}
			fn, err := newFaulty(n, p, nil)
			if err != nil {
				return nil, err
			}
			planes[i] = engineRouter(fn)
			continue
		}
		r, err := build()
		if err != nil {
			return nil, err
		}
		planes[i] = r
	}
	sup, err := plane.New(plane.Config{
		Planes:         planes,
		Rebuild:        build,
		HealthInterval: o.healthInterval,
		HedgeAuto:      o.hedgeAuto,
		Metrics:        o.metrics,
		Tracer:         o.tracer,
	})
	if err != nil {
		return nil, err
	}
	return &planeSet{sup: sup, build: build, cached: cacheEntries > 0, m: o.metrics, tracer: o.tracer}, nil
}

// planCache returns the plan cache the identified plane routes through now:
// nil for an uncached plane or an id no longer in the membership.
func (ps *planeSet) planCache(id int) *plancache.Cache {
	if c, ok := ps.sup.Router(id).(*cachedPlanRouter); ok {
		return c.cache
	}
	return nil
}

// planeStats snapshots the set's per-plane serving and plan-cache counters;
// PlanCaches[i] belongs to Planes[i].
func (ps *planeSet) planeStats() ([]PlaneStats, []PlanCacheStats) {
	planes := ps.sup.PlaneStats()
	if !ps.cached {
		return planes, nil
	}
	caches := make([]PlanCacheStats, len(planes))
	for i, p := range planes {
		caches[i] = ps.planCache(p.ID).Stats()
	}
	return planes, caches
}

// Submit enqueues one routing request; see Engine.Submit.
func (s *Supervised) Submit(dst, src []Word) (*Ticket, error) { return s.e.Submit(dst, src) }

// SubmitCtx is Submit with a context; see Engine.SubmitCtx.
func (s *Supervised) SubmitCtx(ctx context.Context, dst, src []Word) (*Ticket, error) {
	return s.e.SubmitCtx(ctx, dst, src)
}

// SubmitClass is SubmitCtx with an explicit QoS admission class; see the
// Class constants for the shedding and serving order.
func (s *Supervised) SubmitClass(ctx context.Context, class Class, dst, src []Word) (*Ticket, error) {
	return s.e.SubmitClass(ctx, class, dst, src)
}

// RouteBatch routes the batch across the worker pool with per-request
// errors; see Engine.RouteBatch.
func (s *Supervised) RouteBatch(batch [][]Word) (outs [][]Word, errs []error) {
	return s.e.RouteBatch(batch)
}

// RouteBatchCtx is RouteBatch with a shared context; see
// Engine.RouteBatchCtx for the partial-cancellation contract.
func (s *Supervised) RouteBatchCtx(ctx context.Context, batch [][]Word) (outs [][]Word, errs []error) {
	return s.e.RouteBatchCtx(ctx, batch)
}

// RoutePermBatch routes a batch of bare permutations, carrying each source
// index as the payload (the RoutePerm convention), and reports per-request
// results like RouteBatch.
func (s *Supervised) RoutePermBatch(ps []Perm) (outs [][]Word, errs []error) {
	batch := make([][]Word, len(ps))
	for i, p := range ps {
		batch[i] = permWords(p)
	}
	return s.e.RouteBatch(batch)
}

// Inputs returns the port count of the supervised planes.
func (s *Supervised) Inputs() int { return s.e.Inputs() }

// Workers returns the number of serving goroutines.
func (s *Supervised) Workers() int { return s.e.Workers() }

// Planes returns the number of supervised planes.
func (s *Supervised) Planes() int { return s.sup.Planes() }

// PlaneIDs returns the stable ids of the current planes, in membership
// order. Ids are assigned at construction (0..K-1) and by AddPlane, and are
// never reused, so a detached plane's id stays meaningful in traces.
func (s *Supervised) PlaneIDs() []int { return s.sup.PlaneIDs() }

// InFlight returns the number of admitted requests not yet completed.
func (s *Supervised) InFlight() int64 { return s.e.InFlight() }

// Metrics returns the attached sink, or nil if none was configured.
func (s *Supervised) Metrics() *Metrics { return s.e.Metrics() }

// PlaneStates returns the current state of every plane.
func (s *Supervised) PlaneStates() []PlaneState { return s.sup.States() }

// PlaneStats returns the per-plane serving and repair counters.
func (s *Supervised) PlaneStats() []PlaneStats { return s.sup.PlaneStats() }

// Failovers returns the number of planes drained and failed away from.
func (s *Supervised) Failovers() int64 { return s.sup.Failovers() }

// Hedges returns the number of hedge attempts fired (WithHedgeAuto).
func (s *Supervised) Hedges() int64 { return s.sup.Hedges() }

// Publish implements Router, registering the supervised front's live
// Stats — plane states and counters, per-plane plan caches, in-flight
// depth — under the given expvar name on /debug/vars. It returns an error
// if the name is taken (expvar itself would panic).
func (s *Supervised) Publish(name string) error {
	return publishExpvar(name, func() any { return s.Stats() })
}

// Tracer returns the span recorder, or nil without WithTracer.
func (s *Supervised) Tracer() *Tracer { return s.e.Tracer() }

// DebugAddr returns the debug HTTP endpoint's listen address, or "" without
// WithDebugAddr.
func (s *Supervised) DebugAddr() string {
	if s.dbg == nil {
		return ""
	}
	return s.dbg.Addr()
}

// Drain gracefully stops admission and waits for every in-flight ticket to
// complete: new Submits fail fast with ErrDraining, queued requests are
// served normally on the planes, and Drain returns once the workers are
// idle. A route cannot be cut short, so an expired ctx does not end the
// wait: Drain reports the context's error after the workers finish. The
// health checker and the WithDebugAddr server keep
// running through the drain — an operator watching /debug/bnb/metrics sees
// the drain happen — and stop only in Close, which after a completed Drain
// is an idempotent no-op.
func (s *Supervised) Drain(ctx context.Context) error { return s.e.Drain(ctx) }

// Close drains the serving engine (every submitted ticket still completes),
// then — strictly after the drain — stops the health checker, flushes any
// still-open trace spans, and shuts down the WithDebugAddr server with no
// goroutine left behind, so the debug surface stays live while tickets
// settle. After a completed Drain, Close is an idempotent no-op returning
// nil; without one, a second Close reports ErrClosed.
func (s *Supervised) Close() error {
	err := s.e.Close()
	s.sup.Close()
	if s.dbg != nil {
		s.dbg.Close()
	}
	return err
}
