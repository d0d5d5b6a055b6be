package bnbnet

// This file exposes the multi-shard cluster fabric: NewCluster aggregates
// S shards of BNB planes of order m into one router serving N = S·2^m
// ports, routing every global permutation as inter-shard exchange →
// per-shard planes → inter-shard exchange via the Baumslag–Annexstein
// product decomposition (internal/cluster, DESIGN.md §16). Every shard
// routes on the caller's goroutine: a route is one pass through each
// shard's planes, with no queue or worker hand-off between them. The
// Cluster satisfies the same Network / BulkRouter / TracedRouter /
// PlanRouter surfaces as the monolithic networks and the same Router
// serving contract as Engine and Supervised, and supports hitless shard
// add/drain over the same snapshot-swap machinery the plane supervisor
// uses.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/trace"
)

// clusterShard adapts one shard's plane set to the coordinator's Shard
// interface. Each route is observed like one engine request: one
// ObserveRoute into the shared sink and one request span, whose queue wait
// is zero because nothing queues. Without sinks the span is nil, which
// routes identically to RouteInto, and the observe and finish are no-ops.
type clusterShard struct{ *planeSet }

func (s clusterShard) Inputs() int { return s.sup.Inputs() }

func (s clusterShard) RouteInto(dst, src []core.Word) error {
	start := time.Now()
	sp := s.tracer.Start(trace.KindRequest, start, len(src))
	err := s.sup.RouteIntoTraced(dst, src, sp)
	s.m.ObserveRoute(len(src), time.Since(start), err)
	s.tracer.Finish(sp, err)
	return err
}

// clusterFabric is one immutable membership snapshot: the shard set, the
// coordinator scattering over it, and the count of routes still using it.
// Membership changes swap whole snapshots; a snapshot is retired once its
// reference count drains, so a removed shard is never closed while a route
// that acquired the old membership might still route through it.
type clusterFabric struct {
	shards []*planeSet
	co     *cluster.Coordinator
	refs   atomic.Int64
}

func newClusterFabric(shards []*planeSet) (*clusterFabric, error) {
	backends := make([]cluster.Shard, len(shards))
	for i, s := range shards {
		backends[i] = clusterShard{s}
	}
	co, err := cluster.New(backends)
	if err != nil {
		return nil, err
	}
	return &clusterFabric{shards: shards, co: co}, nil
}

// Cluster is a multi-shard routing fabric serving N = S·2^m aggregate
// ports from S independent shards. Every shard is a set of K redundant
// supervised planes — plan caches, hedging, failover and self-healing — so
// shard-internal faults never surface as cluster misroutes. There are no
// shard engines: a route decomposes, exchanges and routes every shard on
// the caller's goroutine. Construct with NewCluster; all methods are safe
// for concurrent use.
type Cluster struct {
	family     string
	shardOrder int
	proto      Network // one bare instance of the shard family, for Cost/Delay

	// buildShard constructs one fresh shard exactly like the originals;
	// AddShard grows the fleet through it.
	buildShard func() (*planeSet, error)

	fab atomic.Pointer[clusterFabric]

	dbg    *DebugServer // nil unless WithDebugAddr was set
	m      *Metrics     // nil unless WithMetrics was set
	tracer *Tracer      // nil unless WithTracer was set

	// reconfigMu serializes membership operations and the lifecycle; it is
	// never taken on the routing path.
	reconfigMu sync.Mutex
	draining   atomic.Bool
	closed     atomic.Bool
	drained    bool // a Drain completed; guarded by reconfigMu

	inflight       atomic.Int64
	added, removed atomic.Int64
}

var _ Network = (*Cluster)(nil)

// NewCluster builds a cluster fabric of WithShards(s) shards (default 2),
// each an independent set of supervised planes of the family at order m,
// and wires the inter-shard stages between them:
//
//	c, err := bnbnet.NewCluster("bnb", 10, bnbnet.WithShards(16)) // 16384 ports
//
// The plane options NewSupervised accepts configure each shard
// identically (WithPlanes redundancy, WithPlanCache, WithHedgeAuto,
// WithHealthInterval, WithPlaneFaults, WithDataBits). A route runs every
// shard on the caller's goroutine, so the engine options WithWorkers,
// WithQueue, WithTimeout and WithShedding are rejected; bound a route with
// RouteIntoCtx instead.
// WithDebugAddr starts one debug endpoint owned by the cluster. WithMetrics
// attaches one shared sink and WithTracer one span recorder: every shard
// route is counted as one route and recorded as one request span with
// zero queue wait, so a cluster route adds S to the sink's route count.
// Each shard's health checker probes with the canonical battery and builds
// no fault dictionary. Shards can be added and drained at runtime with
// AddShard and RemoveShard; Close shuts the whole fleet down.
func NewCluster(family string, m int, opts ...Option) (*Cluster, error) {
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.anySet(optWorkers | optQueue | optTimeout | optShedding) {
		return nil, fmt.Errorf("bnbnet: WithWorkers, WithQueue, WithTimeout and WithShedding apply to NewEngine and NewSupervised, not NewCluster; cluster shards route on the caller's goroutine")
	}
	if o.anySet(optTrace) {
		return nil, fmt.Errorf("bnbnet: WithTrace applies to New, not NewCluster")
	}
	if o.anySet(optFaults) {
		return nil, fmt.Errorf("bnbnet: WithFaults applies to New; use WithPlaneFaults(plane, plan) to fault one plane of every shard")
	}
	if o.anySet(optFabric) {
		return nil, fmt.Errorf("bnbnet: WithVOQ and WithDegraded apply to NewFabric, not NewCluster")
	}
	s := o.shards
	if s == 0 {
		s = 2
	}
	proto, err := New(family, m)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		family:     family,
		shardOrder: m,
		proto:      proto,
		m:          o.metrics,
		tracer:     o.tracer,
	}
	c.buildShard = func() (*planeSet, error) { return newPlaneSet(family, m, o) }
	shards := make([]*planeSet, 0, s)
	fail := func(err error) (*Cluster, error) {
		for _, sh := range shards {
			sh.sup.Close()
		}
		return nil, err
	}
	for i := 0; i < s; i++ {
		sh, err := c.buildShard()
		if err != nil {
			return fail(err)
		}
		shards = append(shards, sh)
	}
	fab, err := newClusterFabric(shards)
	if err != nil {
		return fail(err)
	}
	c.fab.Store(fab)
	if o.debugAddr != "" {
		dbg, err := Serve(o.debugAddr, o.metrics, o.tracer)
		if err != nil {
			return fail(err)
		}
		c.dbg = dbg
	}
	return c, nil
}

// acquire pins the current membership snapshot for one route. The route
// counts itself in flight before it checks the lifecycle, so a Drain or
// Close that flips the lifecycle and then waits for the in-flight count
// either sees the route or is seen by it. The re-check after taking a
// reference catches a concurrent swap: a reference taken on an
// already-retired snapshot is released and the load retried, so
// membership operations waiting for a snapshot to drain never race with
// late acquirers.
func (c *Cluster) acquire() (*clusterFabric, error) {
	c.inflight.Add(1)
	if c.closed.Load() {
		c.inflight.Add(-1)
		return nil, ErrClosed
	}
	if c.draining.Load() {
		c.inflight.Add(-1)
		return nil, ErrDraining
	}
	for {
		f := c.fab.Load()
		f.refs.Add(1)
		if c.fab.Load() == f {
			return f, nil
		}
		f.refs.Add(-1)
	}
}

func (c *Cluster) release(f *clusterFabric) {
	f.refs.Add(-1)
	c.inflight.Add(-1)
}

// waitFabric blocks until no route holds the retired snapshot. Routes run
// on their callers' goroutines and never block on a queue, so the wait is
// bounded by the in-flight routes' latency.
func waitFabric(f *clusterFabric) {
	for f.refs.Load() != 0 {
		runtime.Gosched()
	}
}

// waitRoutes blocks until no admitted route is in flight, or ctx expires.
func (c *Cluster) waitRoutes(ctx context.Context) error {
	for c.inflight.Load() != 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	return nil
}

// Name implements Network, identifying the fabric as e.g. "cluster(bnb)".
func (c *Cluster) Name() string { return fmt.Sprintf("cluster(%s)", c.family) }

// Inputs implements Network, returning the aggregate port count S·2^m of
// the current membership.
func (c *Cluster) Inputs() int { return c.fab.Load().co.Inputs() }

// Shards returns the current shard count.
func (c *Cluster) Shards() int { return c.fab.Load().co.Shards() }

// ShardOrder returns the order m of each shard (2^m local ports).
func (c *Cluster) ShardOrder() int { return c.shardOrder }

// ShardFamily returns the network family every shard runs, e.g. "bnb".
func (c *Cluster) ShardFamily() string { return c.family }

// ShardsAdded returns the number of shards admitted at runtime.
func (c *Cluster) ShardsAdded() int64 { return c.added.Load() }

// ShardsRemoved returns the number of shards drained and closed at runtime.
func (c *Cluster) ShardsRemoved() int64 { return c.removed.Load() }

// Route implements Network: the destination addresses must form a
// permutation of the aggregate ports, and output j of the result carries
// the word addressed to j.
func (c *Cluster) Route(words []Word) ([]Word, error) {
	out := make([]Word, len(words))
	if err := c.RouteInto(out, words); err != nil {
		return nil, err
	}
	return out, nil
}

// RoutePerm implements Network, routing a bare permutation with each
// source index as the payload.
func (c *Cluster) RoutePerm(p Perm) ([]Word, error) { return c.Route(permWords(p)) }

// RouteInto implements BulkRouter: it decomposes the permutation carried
// by the src addresses, exchanges it over the shards and routes every
// shard on the caller's goroutine. dst may alias src.
func (c *Cluster) RouteInto(dst, src []Word) error {
	return c.RouteIntoCtx(context.Background(), dst, src)
}

// RouteIntoCtx is RouteInto with a context checked before every shard: a
// route whose context is done stops before its next shard and reports the
// context's error.
func (c *Cluster) RouteIntoCtx(ctx context.Context, dst, src []Word) error {
	f, err := c.acquire()
	if err != nil {
		return err
	}
	defer c.release(f)
	return f.co.Route(ctx, dst, src)
}

// RouteBatch routes the batch's requests concurrently, one goroutine each,
// and reports per-request results: outs[i] is the routed output of
// batch[i] (nil on failure) and errs[i] its error. It blocks until the
// whole batch settles.
func (c *Cluster) RouteBatch(batch [][]Word) (outs [][]Word, errs []error) {
	outs = make([][]Word, len(batch))
	errs = make([]error, len(batch))
	var wg sync.WaitGroup
	for i, req := range batch {
		wg.Add(1)
		go func(i int, req []Word) {
			defer wg.Done()
			out := make([]Word, len(req))
			if err := c.RouteInto(out, req); err != nil {
				errs[i] = err
				return
			}
			outs[i] = out
		}(i, req)
	}
	wg.Wait()
	return outs, errs
}

// RoutePermBatch is RouteBatch over bare permutations, mirroring the
// engine's convenience surface: element i of each permutation becomes a
// word with Addr p[i] and Data i.
func (c *Cluster) RoutePermBatch(ps []Perm) (outs [][]Word, errs []error) {
	batch := make([][]Word, len(ps))
	for i, p := range ps {
		batch[i] = permWords(p)
	}
	return c.RouteBatch(batch)
}

// RouteTraced implements TracedRouter with the product decomposition's
// stage granularity: snapshot 0 is the input, snapshot 1 the word vector
// after the first inter-shard exchange (global slot s·2^m + h is shard s's
// local port h), snapshot 2 the vector after the per-shard routing, and
// snapshot 3 the delivered output.
func (c *Cluster) RouteTraced(words []Word) ([]Word, [][]Word, error) {
	f, err := c.acquire()
	if err != nil {
		return nil, nil, err
	}
	defer c.release(f)
	p := make([]int, len(words))
	for i, w := range words {
		p[i] = w.Addr
	}
	a, err := f.co.Decompose(p)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Word, len(words))
	if err := f.co.RouteAssigned(context.Background(), out, words, a); err != nil {
		return nil, nil, err
	}
	l := 1 << uint(c.shardOrder)
	stageA := make([]Word, len(words))
	stageB := make([]Word, len(words))
	for i, w := range words {
		mid := int(a.Mid[i])
		h0 := i % l
		h1 := int(a.Local[mid][h0])
		stageA[mid*l+h0] = Word{Addr: w.Addr, Data: w.Data}
		stageB[mid*l+h1] = Word{Addr: w.Addr, Data: w.Data}
	}
	in := append([]Word(nil), words...)
	return out, [][]Word{in, stageA, stageB, out}, nil
}

// Compile implements PlanRouter: it computes the product decomposition of
// the permutation — the inter-shard matching via bipartite edge coloring
// plus every shard's local permutation — without routing anything. The
// returned plan is bound to the current shard count; replaying it after a
// membership change fails with ErrPlanMismatch.
func (c *Cluster) Compile(p Perm) (*Plan, error) {
	f, err := c.acquire()
	if err != nil {
		return nil, err
	}
	defer c.release(f)
	a, err := f.co.Decompose(p)
	if err != nil {
		return nil, err
	}
	return &Plan{ca: a}, nil
}

// Replay implements PlanRouter: it routes src into dst along a compiled
// decomposition, skipping the edge-coloring pass. The source addresses
// must match the plan's permutation and the plan's shard count must match
// the current membership (ErrPlanMismatch otherwise).
func (c *Cluster) Replay(pl *Plan, dst, src []Word) error {
	if pl == nil {
		return fmt.Errorf("bnbnet: nil plan")
	}
	if pl.ca == nil {
		return fmt.Errorf("bnbnet: %w: plan was compiled on a monolithic network, not a cluster", ErrPlanMismatch)
	}
	f, err := c.acquire()
	if err != nil {
		return err
	}
	defer c.release(f)
	return f.co.RouteAssigned(context.Background(), dst, src, pl.ca)
}

// Cost implements Network: S shard fabrics plus the two inter-shard
// exchange stages, modeled as one S×S crossbar per local port per stage
// (2·2^m·S² crosspoints).
func (c *Cluster) Cost() Cost {
	s := c.Shards()
	l := 1 << uint(c.shardOrder)
	pc := c.proto.Cost()
	return Cost{
		Switches:       s * pc.Switches,
		FunctionSlices: s * pc.FunctionSlices,
		AdderSlices:    s * pc.AdderSlices,
		Crosspoints:    s*pc.Crosspoints + 2*l*s*s,
	}
}

// Delay implements Network: the shard's critical path plus one crossbar
// traversal per inter-shard stage.
func (c *Cluster) Delay() Delay {
	d := c.proto.Delay()
	return Delay{SwitchUnits: d.SwitchUnits + 2, FunctionUnits: d.FunctionUnits}
}

// InFlight returns the number of cluster routes admitted and not yet
// settled.
func (c *Cluster) InFlight() int64 { return c.inflight.Load() }

// Metrics returns the shared sink, or nil if none was configured.
func (c *Cluster) Metrics() *Metrics { return c.m }

// Tracer returns the span recorder, or nil without WithTracer.
func (c *Cluster) Tracer() *Tracer { return c.tracer }

// DebugAddr returns the debug HTTP endpoint's listen address, or "" without
// WithDebugAddr.
func (c *Cluster) DebugAddr() string {
	if c.dbg == nil {
		return ""
	}
	return c.dbg.Addr()
}

// AddShard grows the fleet by one shard, built exactly like the
// originals, and atomically publishes the new membership: routes admitted
// after AddShard returns serve S+1 shards (and S+1·2^m aggregate ports),
// while routes already in flight complete on the old membership. It
// returns the new shard count.
func (c *Cluster) AddShard(ctx context.Context) (int, error) {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	if c.closed.Load() {
		return 0, ErrClosed
	}
	if c.draining.Load() {
		return 0, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sh, err := c.buildShard()
	if err != nil {
		return 0, err
	}
	old := c.fab.Load()
	shards := append(append([]*planeSet(nil), old.shards...), sh)
	nf, err := newClusterFabric(shards)
	if err != nil {
		sh.sup.Close()
		return 0, err
	}
	c.fab.Store(nf)
	// Quiesce the retired snapshot before returning so at most one
	// membership is ever live — the invariant RemoveShard's teardown
	// relies on.
	waitFabric(old)
	c.added.Add(1)
	return len(shards), nil
}

// RemoveShard takes the newest shard out of the fleet with zero loss: the
// shrunk membership is published first, then every route still using the
// old membership settles, and only then is the removed shard's health
// checker stopped. It returns the new shard count; the last shard cannot
// be removed.
func (c *Cluster) RemoveShard(ctx context.Context) (int, error) {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	if c.closed.Load() {
		return 0, ErrClosed
	}
	if c.draining.Load() {
		return 0, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	old := c.fab.Load()
	if len(old.shards) <= 1 {
		return 0, fmt.Errorf("bnbnet: cannot remove the cluster's last shard")
	}
	shards := append([]*planeSet(nil), old.shards[:len(old.shards)-1]...)
	nf, err := newClusterFabric(shards)
	if err != nil {
		return 0, err
	}
	c.fab.Store(nf)
	waitFabric(old)
	old.shards[len(shards)].sup.Close()
	c.removed.Add(1)
	return len(shards), nil
}

// Drain gracefully stops admission and waits for every in-flight route to
// settle: new routes fail fast with ErrDraining and admitted ones complete
// on their shards. If ctx expires first, Drain reports the context's
// error; the shards' health checkers and the debug endpoint keep running
// until Close.
func (c *Cluster) Drain(ctx context.Context) error {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	c.draining.Store(true)
	if err := c.waitRoutes(ctx); err != nil {
		return err
	}
	c.drained = true
	return nil
}

// Close shuts the whole fleet down: admission stops, the routes already
// in flight settle, then every shard's health checker and the debug
// endpoint stop. After a completed Drain, Close is an idempotent no-op
// returning nil; without one, a second Close reports ErrClosed.
func (c *Cluster) Close() error {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	if c.closed.Swap(true) {
		if c.drained {
			return nil
		}
		return ErrClosed
	}
	_ = c.waitRoutes(context.Background()) // a background context never expires
	for _, sh := range c.fab.Load().shards {
		sh.sup.Close()
	}
	if c.dbg != nil {
		c.dbg.Close()
	}
	return nil
}
