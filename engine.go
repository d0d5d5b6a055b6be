package bnbnet

// This file exposes the serving layer: a bounded worker-pool Engine that
// turns any Network into a concurrent, instrumented routing service, plus
// the Metrics sink that New, NewEngine and the fabric switches share.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
)

// Metrics is a lock-free observability sink: atomic counters of routes,
// errors and words switched, plus a latency histogram with percentile
// snapshots. One sink may be shared by any number of networks, engines and
// fabric switches; Snapshot may be called concurrently with observation.
type Metrics = metrics.Metrics

// MetricsSnapshot is one consistent-enough view of a Metrics sink.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns a fresh metrics sink ready to attach with WithMetrics
// or FabricSwitch.AttachMetrics.
func NewMetrics() *Metrics { return new(Metrics) }

// BulkRouter is the optional pooled routing surface of a Network: RouteInto
// routes src into dst in place, with zero steady-state allocation for
// networks implementing it natively (*BNB). NewEngine and the supervised
// planes serve BulkRouter networks over this hot path; everything else goes
// through a route-and-copy adapter. Discover the surface with AsBulkRouter,
// which sees through New's decorators.
type BulkRouter interface {
	// RouteInto routes src into dst; both must have length Inputs().
	RouteInto(dst, src []Word) error
}

// TracedRouter is the optional stage-tracing surface of a Network:
// RouteTraced routes the words and additionally returns the word vector at
// the input of every main stage plus the final output. *BNB implements it
// natively; New's WithTrace option requires it. Discover the surface with
// AsTracedRouter.
type TracedRouter interface {
	RouteTraced(words []Word) ([]Word, [][]Word, error)
}

// asSurface walks n's decorator chain (interface{ Unwrap() Network }) until
// one link implements the optional surface T.
func asSurface[T any](n Network) (T, bool) {
	for base := n; base != nil; {
		if s, ok := base.(T); ok {
			return s, true
		}
		u, ok := base.(interface{ Unwrap() Network })
		if !ok {
			break
		}
		base = u.Unwrap()
	}
	var zero T
	return zero, false
}

// AsBulkRouter returns the pooled routing surface of n, or ok = false when
// neither the network nor anything under its decorators offers one.
func AsBulkRouter(n Network) (BulkRouter, bool) { return asSurface[BulkRouter](n) }

// AsTracedRouter returns the stage-tracing surface of n, or ok = false when
// neither the network nor anything under its decorators offers one.
func AsTracedRouter(n Network) (TracedRouter, bool) { return asSurface[TracedRouter](n) }

// Ticket is the handle to one request submitted to an Engine; Wait blocks
// for completion and returns the output buffer and the request's error. A
// request still queued when Wait is called, with no other class queued, is
// routed on the caller's goroutine instead of a worker's.
type Ticket = engine.Ticket

// Class is a request's QoS admission class for SubmitClass: under pressure
// the engine sheds Background first, Standard next and Critical last, while
// workers serve the classes in the opposite order.
type Class = engine.Class

// The admission classes, lowest priority first. Submit and SubmitCtx use
// ClassStandard.
const (
	// ClassBackground is best-effort: it never blocks the submitter — a full
	// queue sheds it immediately with ErrOverloaded.
	ClassBackground = engine.Background
	// ClassStandard is the default class.
	ClassStandard = engine.Standard
	// ClassCritical is served ahead of everything else and only shed when
	// its own class cannot meet a deadline.
	ClassCritical = engine.Critical
)

// Engine is a bounded worker pool serving permutation routes over a Network:
// Submit enqueues one request (blocking only when the queue is full),
// RouteBatch fans a batch across the workers and reports per-request errors.
// Construct with NewEngine; all methods are safe for concurrent use.
type Engine struct {
	e   *engine.Engine
	dbg *DebugServer      // nil unless WithDebugAddr was set
	pc  *cachedPlanRouter // nil unless WithPlanCache was set
}

// NewEngine builds a serving engine around the network. Options: WithWorkers
// sets the pool size (default 4), WithQueue the per-class queued-request
// bound (default 4x workers), WithMetrics the observability sink.
// WithTimeout bounds each request's life (see DESIGN.md §8); a route fails
// with its router's error, and routing around a failing router is
// NewSupervised's job. WithShedding rejects requests whose deadline cannot
// be met at the current queue depth with ErrOverloaded instead of letting
// them expire in the queue (§9). WithTracer
// records one TraceSpan per request and WithDebugAddr starts the debug HTTP
// bundle, owned by this engine and stopped by Close (§11). Networks implementing
// BulkRouter — *BNB, including behind New's decorator — are served over the
// pooled zero-allocation hot path.
func NewEngine(n Network, opts ...Option) (*Engine, error) {
	if n == nil {
		return nil, fmt.Errorf("bnbnet: nil network")
	}
	o, err := gatherOptions(opts)
	if err != nil {
		return nil, err
	}
	if o.anySet(optDataBits) {
		return nil, fmt.Errorf("bnbnet: WithDataBits applies to New, not NewEngine")
	}
	if o.anySet(optTrace) {
		return nil, fmt.Errorf("bnbnet: WithTrace applies to New, not NewEngine")
	}
	if o.anySet(optFaults) {
		return nil, fmt.Errorf("bnbnet: WithFaults applies to New; pass the faulty network to NewEngine instead")
	}
	if o.anySet(optSupervised) {
		return nil, fmt.Errorf("bnbnet: WithPlanes, WithPlaneFaults, WithHealthInterval and WithHedgeAuto apply to NewSupervised, not NewEngine")
	}
	if o.anySet(optFabric) {
		return nil, fmt.Errorf("bnbnet: WithVOQ and WithDegraded apply to NewFabric, not NewEngine")
	}
	if o.anySet(optShards) {
		return nil, fmt.Errorf("bnbnet: WithShards applies to NewCluster, not NewEngine")
	}
	primary := engineRouter(n)
	var pc *cachedPlanRouter
	if o.planCache > 0 {
		cached, ok := newCachedPlanRouter(n, o.planCache, o.metrics)
		if !ok {
			return nil, fmt.Errorf("bnbnet: WithPlanCache requires a network with the compiled-plan surface (family %q offers none; see AsPlanRouter)", n.Name())
		}
		primary = cached
		pc = cached
	}
	e, err := engine.New(primary, engine.Config{
		Workers: o.workers,
		Queue:   o.queue,
		Metrics: o.metrics,
		Timeout: o.timeout,
		Shed:    o.shed,
		Tracer:  o.tracer,
	})
	if err != nil {
		return nil, err
	}
	var dbg *DebugServer
	if o.debugAddr != "" {
		if dbg, err = Serve(o.debugAddr, o.metrics, o.tracer); err != nil {
			e.Close()
			return nil, err
		}
	}
	return &Engine{e: e, dbg: dbg, pc: pc}, nil
}

// engineRouter picks the fastest routing surface the network offers: its
// own RouteInto if it (or anything under its decorators) implements
// BulkRouter, else Route plus a copy.
func engineRouter(n Network) engine.Router {
	if br, ok := AsBulkRouter(n); ok {
		return bulkRouter{n: n, br: br}
	}
	return copyRouter{n: n}
}

type bulkRouter struct {
	n  Network
	br BulkRouter
}

func (r bulkRouter) Inputs() int { return r.n.Inputs() }

func (r bulkRouter) RouteInto(dst, src []core.Word) error { return r.br.RouteInto(dst, src) }

type copyRouter struct{ n Network }

func (r copyRouter) Inputs() int { return r.n.Inputs() }

func (r copyRouter) RouteInto(dst, src []core.Word) error {
	out, err := r.n.Route(src)
	if err != nil {
		return err
	}
	copy(dst, out)
	return nil
}

// Submit enqueues one routing request and returns its Ticket; the route
// lands in dst (engine-allocated when dst is nil). Submit blocks while the
// queue is full — that is the backpressure — and fails with ErrClosed after
// Close or ErrBadSize on a length mismatch. The caller must not touch src or
// dst until Wait returns.
func (e *Engine) Submit(dst, src []Word) (*Ticket, error) { return e.e.Submit(dst, src) }

// SubmitCtx is Submit with a context: a request whose context is cancelled
// or past its deadline before a worker picks it up completes with the
// context's error instead of being routed. WithTimeout, when set,
// applies on top of ctx.
func (e *Engine) SubmitCtx(ctx context.Context, dst, src []Word) (*Ticket, error) {
	return e.e.SubmitCtx(ctx, dst, src)
}

// SubmitClass is SubmitCtx with an explicit QoS admission class; see the
// Class constants for the shedding and serving order.
func (e *Engine) SubmitClass(ctx context.Context, class Class, dst, src []Word) (*Ticket, error) {
	return e.e.SubmitClass(ctx, class, dst, src)
}

// RouteBatch routes the batch across the worker pool and reports per-request
// results: outs[i] is the routed output of batch[i] (nil on failure) and
// errs[i] its error. It blocks until the whole batch has been served.
func (e *Engine) RouteBatch(batch [][]Word) (outs [][]Word, errs []error) {
	return e.e.RouteBatch(batch)
}

// RouteBatchCtx is RouteBatch with a context shared by every request of the
// batch. Cancellation splits the batch by completion: requests routed
// before the cancellation was observed keep their results, while requests
// still pending complete with the context's error — ErrTimeout-wrapped for
// an expired deadline, the bare context error for a cancel. Every errs[i]
// is either nil with a fully routed outs[i] or non-nil with outs[i] nil;
// there are no half-routed results.
func (e *Engine) RouteBatchCtx(ctx context.Context, batch [][]Word) (outs [][]Word, errs []error) {
	return e.e.RouteBatchCtx(ctx, batch)
}

// RoutePermBatch routes a batch of bare permutations, carrying each source
// index as the payload (the RoutePerm convention), and reports per-request
// results like RouteBatch.
func (e *Engine) RoutePermBatch(ps []Perm) (outs [][]Word, errs []error) {
	batch := make([][]Word, len(ps))
	for i, p := range ps {
		batch[i] = permWords(p)
	}
	return e.e.RouteBatch(batch)
}

// Workers returns the number of routing goroutines.
func (e *Engine) Workers() int { return e.e.Workers() }

// Inputs returns the port count of the served network.
func (e *Engine) Inputs() int { return e.e.Inputs() }

// Metrics returns the attached sink, or nil if none was configured.
func (e *Engine) Metrics() *Metrics { return e.e.Metrics() }

// Tracer returns the span recorder, or nil without WithTracer.
func (e *Engine) Tracer() *Tracer { return e.e.Tracer() }

// DebugAddr returns the debug HTTP endpoint's listen address, or "" without
// WithDebugAddr.
func (e *Engine) DebugAddr() string {
	if e.dbg == nil {
		return ""
	}
	return e.dbg.Addr()
}

// InFlight returns the number of admitted requests not yet completed.
func (e *Engine) InFlight() int64 { return e.e.InFlight() }

// Drain gracefully stops admission and waits for every in-flight ticket to
// complete: new Submits fail fast with ErrDraining, queued requests are
// served normally, and Drain returns once the workers are idle. A route
// cannot be cut short, so an expired ctx does not end the wait: Drain
// reports the context's error after the workers finish. The WithDebugAddr
// server keeps serving through the drain — an operator watching
// /debug/bnb/metrics sees the drain happen — and is shut down only by
// Close, which after a completed Drain is an idempotent no-op.
func (e *Engine) Drain(ctx context.Context) error { return e.e.Drain(ctx) }

// Close stops accepting requests, drains queued work, and stops the workers;
// every ticket submitted before Close still completes. Pending trace spans
// are flushed into the ring and the WithDebugAddr server, if any, is shut
// down with no goroutine left behind — strictly after the drain completes,
// so the debug surface stays live while tickets settle. After a completed
// Drain, Close is an idempotent no-op returning nil; without one, a second
// Close reports ErrClosed.
func (e *Engine) Close() error {
	err := e.e.Close()
	if e.dbg != nil {
		e.dbg.Close()
	}
	return err
}
