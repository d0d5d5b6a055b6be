// Package engine turns a one-shot permutation router into a high-throughput
// serving path: a bounded worker pool fans concurrent routing requests across
// goroutines, each request is routed into a caller- or engine-owned output
// buffer over the network's pooled zero-allocation hot path, and every
// request reports its own error. Backpressure is a per-class admission token
// pool — Submit blocks once Queue requests of its class are queued, so a
// fast producer cannot outrun the workers without bound.
//
// Internally the queue is sharded: each worker owns a shard of per-class
// rings, submitters land requests on a rotor-chosen shard, workers dequeue
// up to batchCap requests per wakeup (amortizing one park/wake cycle across
// the batch) and steal roughly half of a neighbor's backlog when their own
// shard runs dry. Strict class priority — Critical before Standard before
// Background — holds within a shard, across steals, and mid-batch: a worker
// re-checks its shard for higher-class arrivals between every two requests
// it serves.
//
// The engine is the system-level answer to the paper's positioning: Lee & Lu
// sell the BNB network as the switching fabric of "switching systems and
// parallel processing systems", and a fabric is only as useful as the rate
// at which its control path accepts work. The engine makes that rate a
// first-class, instrumented quantity.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/trace"
)

// Router is the routing surface the engine serves. core.Network implements
// it natively; any other network can be adapted by routing into a fresh
// slice and copying (see the bnbnet package's adapter).
type Router interface {
	// Inputs returns the port count N.
	Inputs() int
	// RouteInto routes src into dst; both must have length N.
	RouteInto(dst, src []core.Word) error
}

// TracedRouter is the optional tracing-aware routing surface. A router that
// implements it (the plane supervisor does) receives each request's span, so
// plane selection can annotate attempts, failovers, and the serving plane.
// The engine discovers the capability once, by type assertion at New; a nil
// span must be accepted and routed exactly like a plain RouteInto.
type TracedRouter interface {
	Router
	// RouteIntoTraced is RouteInto annotating sp along the way; sp may be nil.
	RouteIntoTraced(dst, src []core.Word, sp *trace.Span) error
}

// Class is a request's QoS admission class. Under pressure the engine sheds
// strictly by class — Background first, Standard next, Critical last — and
// workers drain the per-class queues in the opposite order, so critical work
// is both the last to be rejected and the first to be served.
type Class int

const (
	// Background is best-effort work: it is never allowed to block the
	// submitter on a full queue — a saturated engine sheds it immediately
	// with ErrOverloaded.
	Background Class = iota
	// Standard is the default class; Submit and SubmitCtx use it.
	Standard
	// Critical is served ahead of everything else and is only shed when its
	// own class cannot meet a deadline.
	Critical

	numClasses = int(Critical) + 1
)

// The engine's class count and the metrics package's per-class counters must
// agree; this fails to compile when they drift.
var _ [metrics.NumClasses]struct{} = [numClasses]struct{}{}

// String returns the class's canonical lowercase name.
func (c Class) String() string { return metrics.ClassName(int(c)) }

func (c Class) valid() bool { return c >= Background && c <= Critical }

// Config tunes an Engine. The zero value selects sensible defaults.
type Config struct {
	// Workers is the number of routing goroutines; <= 0 selects 4.
	Workers int
	// Queue is the number of requests of one class that may be queued
	// (admitted but not yet picked up by a worker) before Submit blocks;
	// <= 0 selects 4 * Workers.
	Queue int
	// Metrics, when non-nil, receives one observation per completed
	// request (latency measured from Submit to completion).
	Metrics *metrics.Metrics

	// Timeout bounds each request from Submit to completion; zero means no
	// deadline. A request whose deadline has passed when a worker picks it
	// up fails with ErrTimeout instead of being routed; a route already
	// under way runs to completion.
	Timeout time.Duration
	// Shed enables deadline-aware admission control: a request carrying a
	// deadline (Timeout or a context deadline) is rejected at Submit with
	// ErrOverloaded when the estimated queue drain time — in-flight depth
	// times the observed per-request service EWMA over the worker count —
	// already exceeds it. Requests without a deadline are always admitted.
	Shed bool
	// Tracer, when non-nil, records a span per request — queue wait, service
	// time, failovers, shed decisions — into its ring. A nil tracer disables
	// tracing at zero cost on the hot path.
	Tracer *trace.Tracer
}

// batchCap is the most requests a worker dequeues per wakeup. A larger
// batch amortizes the park/wake cycle across more requests; priority is
// still enforced inside the batch, and a higher-class arrival preempts the
// batch's remainder.
const batchCap = 8

// request is one unit of work. Requests are pooled: the worker publishes the
// result through the ticket, not the request, so a request can be recycled
// the moment its route completes.
type request struct {
	src, dst []core.Word
	start    time.Time
	deadline time.Time // zero when Config.Timeout is zero
	ctx      context.Context
	t        *Ticket
	sp       *trace.Span // nil when tracing is disabled
	class    Class
}

// Ticket is the handle to one submitted request. Wait blocks until the
// route completes and returns the output buffer and the request's error.
// Wait may be called at most once per ticket and from one goroutine.
type Ticket struct {
	done chan error
	dst  []core.Word
}

// Wait blocks until the request completes.
func (t *Ticket) Wait() ([]core.Word, error) {
	if err := <-t.done; err != nil {
		return nil, err
	}
	return t.dst, nil
}

// Engine is a bounded worker pool serving permutation routes. Construct
// with New; all methods are safe for concurrent use.
type Engine struct {
	r      Router
	tr     TracedRouter // r, when it supports span-carrying routes; else nil
	m      *metrics.Metrics
	tracer *trace.Tracer
	// shards holds one work-stealing queue group per worker (see shard.go);
	// rotor spreads submissions across them. space is the per-class
	// admission token pool: a submitter takes a token before landing on a
	// shard (blocking for Standard/Critical, shedding for Background) and a
	// worker returns it when it moves the request into its local batch, so
	// at most queue requests per class are ever queued.
	shards []*shard
	rotor  atomic.Uint64
	space  [numClasses]chan struct{}
	queue  int
	pool   sync.Pool // *request

	// pendingSubmits counts requests past the lifecycle gate but not yet on
	// a shard. Workers refuse to exit while it is non-zero, so a submission
	// in flight during Drain/Close is still picked up and its ticket
	// settles; the submitter decrements only after the shard push.
	pendingSubmits atomic.Int64
	// stopping flips once when Drain or Close begins; combined with empty
	// shards and no pending submits it is the workers' exit condition.
	stopping atomic.Bool

	// The idler stack parks workers with nothing to do. A worker registers
	// itself, re-scans the shards (catching a submission that raced the
	// registration), then blocks on its slot; a submitter that sees a
	// non-zero idleCount after pushing pops a slot and wakes it.
	idleMu    sync.Mutex
	idlers    []*parkSlot
	idleCount atomic.Int64

	timeout time.Duration

	// Admission control (Config.Shed): inflight tracks accepted requests not
	// yet completed, ewmaServe the smoothed per-request service time in
	// nanoseconds (zero until the first request completes).
	shed      bool
	inflight  atomic.Int64
	ewmaServe atomic.Int64
	// classInflight splits inflight by admission class, so the shedder can
	// count only the work that will be served ahead of (or alongside) a
	// request of a given class.
	classInflight [numClasses]atomic.Int64

	closeReqs sync.Once

	wg sync.WaitGroup

	// mu guards the lifecycle state and makes Submit-vs-Drain/Close safe:
	// submitters hold the read side while enqueueing, Drain and Close take
	// the write side to advance the state before closing the queue channel.
	mu    sync.RWMutex
	state lifecycle
	// drained latches once a Drain has run to completion; it makes every
	// later Close an idempotent no-op (the drain already did the work).
	drained bool

	workers int
}

// lifecycle is the engine's admission state machine. It only moves forward:
//
//	running → draining → drained → closed   (Drain, then Close)
//	running → closed                        (Close without a prior Drain)
//
// Submit classifies rejections by state: ErrDraining while draining or
// drained (shutdown announced, steer traffic away), ErrClosed once closed.
type lifecycle int32

const (
	stateRunning lifecycle = iota
	stateDraining
	stateDrained
	stateClosed
)

// New builds an engine around the router and starts its workers.
func New(r Router, cfg Config) (*Engine, error) {
	if r == nil {
		return nil, fmt.Errorf("engine: nil router")
	}
	if r.Inputs() < 2 {
		return nil, fmt.Errorf("engine: router has %d ports, need at least 2: %w", r.Inputs(), neterr.ErrBadSize)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	queue := cfg.Queue
	if queue <= 0 {
		queue = 4 * workers
	}
	e := &Engine{
		r:       r,
		m:       cfg.Metrics,
		tracer:  cfg.Tracer,
		timeout: cfg.Timeout,
		shed:    cfg.Shed,
		workers: workers,
		queue:   queue,
	}
	e.tr, _ = r.(TracedRouter)
	e.shards = make([]*shard, workers)
	for i := range e.shards {
		e.shards[i] = &shard{}
	}
	for c := range e.space {
		e.space[c] = make(chan struct{}, queue)
		for i := 0; i < queue; i++ {
			e.space[c] <- struct{}{}
		}
	}
	e.pool.New = func() any { return new(request) }
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go e.worker(w)
	}
	return e, nil
}

// Workers returns the number of routing goroutines.
func (e *Engine) Workers() int { return e.workers }

// Inputs returns the port count of the served network.
func (e *Engine) Inputs() int { return e.r.Inputs() }

// Metrics returns the metrics sink, or nil if none was configured.
func (e *Engine) Metrics() *metrics.Metrics { return e.m }

// Tracer returns the span sink, or nil when tracing is disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// parkSlot is one worker's wakeup mailbox. The buffer of one lets a
// signaller hand off a wakeup without blocking, and lets a worker that found
// work on its pre-park re-scan absorb a racing signal instead of losing it.
type parkSlot struct {
	ch chan struct{}
}

func (e *Engine) worker(id int) {
	defer e.wg.Done()
	slot := &parkSlot{ch: make(chan struct{}, 1)}
	var l local
	for {
		if !e.nextBatch(id, slot, &l) {
			return
		}
		e.serveLocal(id, &l)
	}
}

// serveLocal drains the worker's batch buffer strictly highest class first.
// Between requests it re-checks its own shard for higher-class arrivals, so
// a Critical request that lands mid-batch overtakes the batch's Standard and
// Background remainder instead of waiting a full batch behind it.
func (e *Engine) serveLocal(id int, l *local) {
	s := e.shards[id]
	for {
		c := l.top()
		if c < 0 {
			return
		}
		if s.pendingAbove(c) {
			if got, n := s.popAbove(l, c, batchCap); n > 0 {
				e.release(got)
				e.m.AddBatchDequeue(int64(n))
				continue
			}
		}
		e.serveOne(l.pop(c))
	}
}

// serveOne serves one dequeued request and settles its ticket.
func (e *Engine) serveOne(req *request) {
	served := time.Now()
	req.sp.Dequeued(served)
	err := e.serve(req)
	e.observeServe(time.Since(served))
	e.classInflight[req.class].Add(-1)
	e.inflight.Add(-1)
	e.m.ObserveRoute(len(req.src), time.Since(req.start), err)
	// Publish the span before the ticket unblocks Wait, so a caller that
	// snapshots the ring right after Wait sees its own request.
	e.tracer.Finish(req.sp, err)
	t := req.t
	*req = request{}
	e.pool.Put(req)
	t.done <- err
}

// nextBatch fills the worker's batch buffer, parking until work arrives. It
// returns false when the worker should exit: shutdown has begun, no
// submission is in limbo, and every shard is empty.
//
// The park protocol never loses a wakeup: the worker registers on the idler
// stack and then re-scans the shards before blocking. A submitter pushes and
// then reads idleCount; if its push predates the worker's scan, the scan
// finds it, and otherwise the registration predates the submitter's read
// (both orders are fixed by the sequentially consistent atomics), so the
// submitter observes the idler and signals it.
func (e *Engine) nextBatch(id int, slot *parkSlot, l *local) bool {
	for {
		if e.fill(id, l) {
			return true
		}
		if e.exitNow() {
			e.wakeAll()
			return false
		}
		e.pushIdler(slot)
		if parkHook != nil {
			parkHook()
		}
		if e.fill(id, l) {
			e.unpark(slot)
			return true
		}
		if e.exitNow() {
			e.unpark(slot)
			e.wakeAll()
			return false
		}
		e.m.AddPark()
		<-slot.ch
	}
}

// fill tries to load the batch buffer: up to batch requests from the
// worker's own shard, else roughly half of the first non-empty neighbor
// (scanning round-robin). It reports whether anything was taken.
func (e *Engine) fill(id int, l *local) bool {
	if got, n := e.shards[id].popBatch(l, batchCap); n > 0 {
		e.release(got)
		e.m.AddBatchDequeue(int64(n))
		return true
	}
	for off := 1; off < len(e.shards); off++ {
		v := e.shards[(id+off)%len(e.shards)]
		if v.total() == 0 {
			continue
		}
		if stealYield != nil {
			stealYield()
		}
		if got, n := v.stealInto(l, batchCap); n > 0 {
			e.release(got)
			e.m.AddSteal(int64(n))
			return true
		}
	}
	return false
}

// release returns admission tokens for requests moved off the shards, one
// per class slot, re-opening Submit for that many queued requests.
func (e *Engine) release(got [numClasses]int) {
	for c, k := range got {
		for i := 0; i < k; i++ {
			e.space[c] <- struct{}{}
		}
	}
}

// exitNow is the worker exit condition. pendingSubmits must be checked
// before the shard scan: a submitter past the lifecycle gate decrements it
// only after its push, so "no pending and all shards empty" proves no
// admitted ticket can still be unserved.
func (e *Engine) exitNow() bool {
	if !e.stopping.Load() {
		return false
	}
	if e.pendingSubmits.Load() != 0 {
		return false
	}
	for _, s := range e.shards {
		if s.total() != 0 {
			return false
		}
	}
	return true
}

func (e *Engine) pushIdler(slot *parkSlot) {
	e.idleMu.Lock()
	e.idlers = append(e.idlers, slot)
	e.idleMu.Unlock()
	e.idleCount.Add(1)
}

// unpark deregisters a worker that found work on its pre-park re-scan: pop
// the slot off the idler stack, or — when a signaller already popped it —
// absorb the in-flight wakeup so the slot is empty for the next park.
func (e *Engine) unpark(slot *parkSlot) {
	if !e.cancelIdle(slot) {
		<-slot.ch
	}
}

func (e *Engine) cancelIdle(slot *parkSlot) bool {
	e.idleMu.Lock()
	defer e.idleMu.Unlock()
	for i, s := range e.idlers {
		if s == slot {
			e.idlers = append(e.idlers[:i], e.idlers[i+1:]...)
			e.idleCount.Add(-1)
			return true
		}
	}
	return false
}

// signal wakes up to n parked workers; the fast path is one atomic load
// when nobody is parked. The buffered send never blocks: a registered
// slot's channel is empty by invariant.
func (e *Engine) signal(n int) {
	if n <= 0 || e.idleCount.Load() == 0 {
		return
	}
	e.idleMu.Lock()
	for n > 0 && len(e.idlers) > 0 {
		last := len(e.idlers) - 1
		slot := e.idlers[last]
		e.idlers[last] = nil
		e.idlers = e.idlers[:last]
		e.idleCount.Add(-1)
		slot.ch <- struct{}{}
		n--
	}
	e.idleMu.Unlock()
}

// wakeAll unparks every registered worker — shutdown and worker exit use it
// so peers re-evaluate the exit condition instead of sleeping through it.
func (e *Engine) wakeAll() {
	e.idleMu.Lock()
	for i, slot := range e.idlers {
		e.idlers[i] = nil
		e.idleCount.Add(-1)
		slot.ch <- struct{}{}
	}
	e.idlers = e.idlers[:0]
	e.idleMu.Unlock()
}

// ewmaYield, when non-nil, is invoked between reading the EWMA and
// publishing its update — the preemption point the deterministic-schedule
// concurrency tests use to interleave concurrent observers. Production
// leaves it nil.
var ewmaYield func()

// observeServe folds one request's service time (routing, not queue wait)
// into the EWMA the admission controller estimates with. The update is a
// CompareAndSwap loop: a concurrent sample that lands between
// the load and the swap makes the swap fail and the fold retry against the
// fresh value, so no sample is silently dropped — under a worker pool all
// observing at once, a lossy load/store here let the estimate stall on
// stale service times.
func (e *Engine) observeServe(d time.Duration) {
	if !e.shed {
		return
	}
	ns := int64(d)
	if ns <= 0 {
		ns = 1
	}
	for {
		old := e.ewmaServe.Load()
		next := ns
		if old != 0 {
			next = old - old/8 + ns/8
		}
		if ewmaYield != nil {
			ewmaYield()
		}
		if e.ewmaServe.CompareAndSwap(old, next) {
			return
		}
	}
}

// expired reports the request's deadline or cancellation error, or nil while
// the request may still run.
func (e *Engine) expired(req *request) error {
	if req.ctx != nil {
		if err := req.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				e.m.AddTimeout()
				return fmt.Errorf("engine: %w: %w", neterr.ErrTimeout, err)
			}
			return fmt.Errorf("engine: %w", err)
		}
	}
	if !req.deadline.IsZero() && !time.Now().Before(req.deadline) {
		e.m.AddTimeout()
		return fmt.Errorf("engine: request exceeded the %v deadline: %w", e.timeout, neterr.ErrTimeout)
	}
	return nil
}

// serve refuses a request whose deadline or context has expired, and
// otherwise routes it once. A transient failure reaches the caller as
// ErrTransient; routing around a failing router is the plane supervisor's
// job, within the same route call.
func (e *Engine) serve(req *request) error {
	if err := e.expired(req); err != nil {
		return err
	}
	if e.tr != nil {
		return e.tr.RouteIntoTraced(req.dst, req.src, req.sp)
	}
	return e.r.RouteInto(req.dst, req.src)
}

// stopIntake flips the workers' shutdown flag and wakes every parked worker
// so the shards drain and the pool winds down; guarded by closeReqs so it
// runs exactly once across Drain and Close.
func (e *Engine) stopIntake() {
	e.stopping.Store(true)
	e.wakeAll()
}

// Submit enqueues one routing request and returns immediately with a
// Ticket; the route lands in dst. If dst is nil the engine allocates the
// output buffer. Submit blocks while the queue is full (backpressure) and
// fails fast with ErrClosed after Close or ErrBadSize on a length mismatch.
// The caller must not touch src or dst until Wait returns.
func (e *Engine) Submit(dst, src []core.Word) (*Ticket, error) {
	return e.SubmitCtx(context.Background(), dst, src)
}

// SubmitCtx is Submit with a context: a request whose context is cancelled
// or past its deadline before a worker picks it up completes with the
// context's error instead of being routed.
// Config.Timeout, when set, applies on top of ctx.
func (e *Engine) SubmitCtx(ctx context.Context, dst, src []core.Word) (*Ticket, error) {
	return e.SubmitClass(ctx, Standard, dst, src)
}

// SubmitClass is SubmitCtx with an explicit QoS admission class. Workers
// serve Critical ahead of Standard ahead of Background; under pressure the
// classes shed in the opposite order. A Background request never blocks the
// submitter: when its queue is full it is rejected immediately with
// ErrOverloaded. Standard and Critical block for a free slot as Submit
// always has. The deadline-aware shedder (Config.Shed) counts only
// same-or-higher-class in-flight work against a request's deadline, so a
// backlog of background traffic cannot shed a critical request.
func (e *Engine) SubmitClass(ctx context.Context, class Class, dst, src []core.Word) (*Ticket, error) {
	req, err := e.prepare(ctx, class, dst, src)
	if err != nil {
		return nil, err
	}
	t := req.t
	if err := e.admitLifecycle(req); err != nil {
		return nil, err
	}
	if err := e.enqueue(req); err != nil {
		return nil, err
	}
	return t, nil
}

// prepare validates one submission, starts its span, and runs the
// deadline-aware admission gate, returning a pooled request ready to
// enqueue. It does not touch the lifecycle.
func (e *Engine) prepare(ctx context.Context, class Class, dst, src []core.Word) (*request, error) {
	if !class.valid() {
		return nil, fmt.Errorf("engine: admission class %d out of range [%d, %d]: %w",
			int(class), int(Background), int(Critical), neterr.ErrBadSize)
	}
	n := e.r.Inputs()
	if len(src) != n {
		return nil, fmt.Errorf("engine: got %d words, want %d: %w", len(src), n, neterr.ErrBadSize)
	}
	if dst == nil {
		dst = make([]core.Word, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("engine: got %d output slots, want %d: %w", len(dst), n, neterr.ErrBadSize)
	}
	start := time.Now()
	var deadline time.Time
	if e.timeout > 0 {
		deadline = start.Add(e.timeout)
	}
	sp := e.tracer.Start(trace.KindRequest, start, n)
	sp.SetClass(metrics.ClassName(int(class)))
	e.m.AddClassSubmitted(int(class))
	if e.shed {
		if err := e.admit(ctx, start, deadline, class); err != nil {
			sp.MarkShed()
			e.tracer.Finish(sp, err)
			return nil, err
		}
	}
	req := e.pool.Get().(*request)
	*req = request{
		src:      src,
		dst:      dst,
		start:    start,
		deadline: deadline,
		ctx:      ctx,
		t:        &Ticket{done: make(chan error, 1), dst: dst},
		sp:       sp,
		class:    class,
	}
	return req, nil
}

// admitLifecycle passes one prepared request through the lifecycle gate:
// under the read lock it checks the state and registers the request in the
// in-flight and pending-submit counters. The lock is held only for those
// counter updates — never across anything that can block — so Drain and
// Close acquire the write side promptly even when every queue is full.
func (e *Engine) admitLifecycle(req *request) error {
	e.mu.RLock()
	if e.state != stateRunning {
		st := e.state
		e.mu.RUnlock()
		sp := req.sp
		*req = request{}
		e.pool.Put(req)
		err := lifecycleErr(st)
		e.tracer.Finish(sp, err)
		return err
	}
	e.inflight.Add(1)
	e.classInflight[req.class].Add(1)
	e.pendingSubmits.Add(1)
	e.mu.RUnlock()
	return nil
}

func lifecycleErr(st lifecycle) error {
	if st == stateClosed {
		return fmt.Errorf("engine: %w", neterr.ErrClosed)
	}
	return fmt.Errorf("engine: %w", neterr.ErrDraining)
}

// enqueue lands one admitted request on a shard: take a class token
// (blocking for Standard/Critical, shedding for Background), pick a shard by
// rotor, push, then wake a parked worker. The push precedes the
// pendingSubmits decrement, so workers never conclude the engine is empty
// while an admitted request is still in limbo.
func (e *Engine) enqueue(req *request) error {
	class := req.class
	if class == Background {
		// Best-effort: a full background queue sheds instead of exerting
		// backpressure, so background producers can never stall the
		// submitter behind foreground traffic.
		select {
		case <-e.space[class]:
		default:
			sp := req.sp
			e.abandon(req)
			e.m.AddShed()
			e.m.AddClassShed(int(class))
			err := fmt.Errorf("engine: background queue full (%d requests): %w",
				e.queue, neterr.ErrOverloaded)
			sp.MarkShed()
			e.tracer.Finish(sp, err)
			return err
		}
	} else {
		// A free slot always admits, even under an already-expired context:
		// the worker refuses expired requests at dequeue, which keeps the
		// pre-sharding semantics where a buffered send succeeded whenever
		// the queue had room. Only a full queue blocks on the caller's
		// context.
		select {
		case <-e.space[class]:
		default:
			var done <-chan struct{}
			if req.ctx != nil {
				done = req.ctx.Done()
			}
			select {
			case <-e.space[class]:
			case <-done:
				sp := req.sp
				err := e.expired(req)
				e.abandon(req)
				e.tracer.Finish(sp, err)
				return err
			}
		}
	}
	i := int(e.rotor.Add(1) % uint64(len(e.shards)))
	req.sp.SetShard(i)
	e.shards[i].push(req)
	e.pendingSubmits.Add(-1)
	e.signal(1)
	return nil
}

// abandon rolls back a request that passed the lifecycle gate but never
// reached a shard (shed or expired while waiting for a token). If shutdown
// raced the rollback, the workers' exit condition may have been blocked only
// by this pending submit, so wake them to re-evaluate it.
func (e *Engine) abandon(req *request) {
	e.classInflight[req.class].Add(-1)
	e.inflight.Add(-1)
	*req = request{}
	e.pool.Put(req)
	if e.pendingSubmits.Add(-1) == 0 && e.stopping.Load() {
		e.wakeAll()
	}
}

// admit is the load-shedding gate (Config.Shed): it estimates when a
// request accepted now would complete — the in-flight depth times the
// service-time EWMA, divided over the workers, plus the request's own
// service — and rejects the request with ErrOverloaded when that exceeds
// its deadline. The depth counts only same-or-higher-class in-flight work:
// workers serve strictly by priority, so lower-class backlog does not stand
// between this request and a worker. A request with no deadline, or an
// engine that has not yet observed a service time, is always admitted.
func (e *Engine) admit(ctx context.Context, now, deadline time.Time, class Class) error {
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if deadline.IsZero() {
		return nil
	}
	ewma := e.ewmaServe.Load()
	if ewma == 0 {
		return nil
	}
	var depth int64
	for c := int(class); c < numClasses; c++ {
		depth += e.classInflight[c].Load()
	}
	slots := depth/int64(e.workers) + 1
	// Saturate instead of multiplying: a huge queue depth times the EWMA
	// overflows int64 into a negative estimate that admits everything —
	// the opposite of what an overloaded engine needs.
	if slots > math.MaxInt64/ewma {
		e.m.AddShed()
		e.m.AddClassShed(int(class))
		return fmt.Errorf("engine: %d requests in flight at ~%v each exceed any deadline: %w",
			depth, time.Duration(ewma), neterr.ErrOverloaded)
	}
	est := time.Duration(slots * ewma)
	if now.Add(est).After(deadline) {
		e.m.AddShed()
		e.m.AddClassShed(int(class))
		return fmt.Errorf("engine: %d requests in flight need ~%v, deadline in %v: %w",
			depth, est, deadline.Sub(now), neterr.ErrOverloaded)
	}
	return nil
}

// RouteBatch routes every request of the batch across the worker pool and
// reports per-request results: outs[i] is the routed output of batch[i] (nil
// on failure) and errs[i] its error. It blocks until the whole batch has
// been served.
func (e *Engine) RouteBatch(batch [][]core.Word) (outs [][]core.Word, errs []error) {
	return e.RouteBatchCtx(context.Background(), batch)
}

// RouteBatchCtx is RouteBatch with a context shared by every request of the
// batch. Cancellation splits the batch by completion, not submission:
// requests a worker finished routing before observing the cancellation keep
// their results (outs[i] set, errs[i] nil), while requests still queued
// complete with the context's error — wrapped in ErrTimeout for a
// deadline, the bare context error for a cancel. The split
// point is scheduler-dependent, but no request is ever half-routed: each
// errs[i] is either nil with a fully verified outs[i], or non-nil with
// outs[i] == nil.
// The submission side is bulk: the whole batch passes the lifecycle gate
// under one read-lock acquisition and lands on shards in chunks, each chunk
// a single shard operation, instead of one push and one wakeup per request.
func (e *Engine) RouteBatchCtx(ctx context.Context, batch [][]core.Word) (outs [][]core.Word, errs []error) {
	outs = make([][]core.Word, len(batch))
	tickets, errs := e.submitBatch(ctx, Standard, batch)
	for i, t := range tickets {
		if t == nil {
			continue
		}
		outs[i], errs[i] = t.Wait()
	}
	return outs, errs
}

// submitBatch admits and enqueues a batch of same-class requests. Requests
// that fail validation or shedding get their error in errs and a nil
// ticket; the rest share one lifecycle check and are pushed to shards in
// token-sized chunks, one pushMany per chunk.
func (e *Engine) submitBatch(ctx context.Context, class Class, batch [][]core.Word) ([]*Ticket, []error) {
	tickets := make([]*Ticket, len(batch))
	errs := make([]error, len(batch))
	pending := make([]*request, 0, len(batch))
	slots := make([]int, 0, len(batch)) // batch index of each pending request
	e.mu.RLock()
	if e.state != stateRunning {
		st := e.state
		e.mu.RUnlock()
		err := lifecycleErr(st)
		for i, src := range batch {
			req, perr := e.prepare(ctx, class, nil, src)
			if perr != nil {
				errs[i] = perr
				continue
			}
			sp := req.sp
			*req = request{}
			e.pool.Put(req)
			e.tracer.Finish(sp, err)
			errs[i] = err
		}
		return tickets, errs
	}
	// Prepare and register under one read-lock acquisition. prepare never
	// blocks, so holding the read side across the loop is safe for
	// Drain/Close; registering each request before preparing the next keeps
	// the shedder honest — its in-flight depth estimate sees every earlier
	// request of this same batch, exactly as sequential submission would.
	for i, src := range batch {
		req, err := e.prepare(ctx, class, nil, src)
		if err != nil {
			errs[i] = err
			continue
		}
		e.inflight.Add(1)
		e.classInflight[class].Add(1)
		e.pendingSubmits.Add(1)
		pending = append(pending, req)
		slots = append(slots, i)
	}
	e.mu.RUnlock()
	if len(pending) == 0 {
		return tickets, errs
	}
	for j, req := range pending {
		tickets[slots[j]] = req.t
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for len(pending) > 0 {
		take, expired := e.acquireTokens(class, done, len(pending))
		if expired || take == 0 {
			// Context expired (Standard/Critical) or no free slot at all
			// (Background): settle every still-unqueued request now.
			for j, req := range pending {
				sp := req.sp
				var err error
				if expired {
					err = e.ctxErr(ctx)
				} else {
					e.m.AddShed()
					e.m.AddClassShed(int(class))
					err = fmt.Errorf("engine: background queue full (%d requests): %w",
						e.queue, neterr.ErrOverloaded)
					sp.MarkShed()
				}
				e.abandon(req)
				e.tracer.Finish(sp, err)
				tickets[slots[j]] = nil
				errs[slots[j]] = err
			}
			return tickets, errs
		}
		chunk := pending[:take]
		i := int(e.rotor.Add(1) % uint64(len(e.shards)))
		for _, req := range chunk {
			req.sp.SetShard(i)
		}
		e.shards[i].pushMany(chunk)
		e.pendingSubmits.Add(-int64(take))
		e.signal(take)
		pending = pending[take:]
		slots = slots[take:]
	}
	return tickets, errs
}

// acquireTokens takes up to want class tokens: Standard and Critical block
// for the first token (or the context), then both sweep whatever more is
// free without blocking. expired reports a context cut; a Background return
// of (0, false) means shed.
func (e *Engine) acquireTokens(class Class, done <-chan struct{}, want int) (got int, expired bool) {
	if class != Background {
		// Free capacity admits immediately even under an expired context
		// (the workers refuse expired requests at dequeue); only a full
		// queue blocks on the caller's context.
		select {
		case <-e.space[class]:
			got = 1
		default:
			select {
			case <-e.space[class]:
				got = 1
			case <-done:
				return 0, true
			}
		}
	}
	for got < want {
		select {
		case <-e.space[class]:
			got++
		default:
			return got, false
		}
	}
	return got, false
}

// ctxErr mirrors expired's classification for a context the caller holds
// directly: ErrTimeout wrapping for a missed deadline, the bare context
// error for a cancel.
func (e *Engine) ctxErr(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		e.m.AddTimeout()
		return fmt.Errorf("engine: %w: %w", neterr.ErrTimeout, err)
	}
	return fmt.Errorf("engine: %w", err)
}

// InFlight returns the number of admitted requests not yet completed.
func (e *Engine) InFlight() int64 { return e.inflight.Load() }

// AdmissionErr reports the lifecycle error a new submission would receive:
// nil while the engine is running, ErrDraining once a drain has begun, and
// ErrClosed after Close. Operations that reshape serving capacity — plane
// membership, rollouts — consult it so they refuse to act on an engine
// that no longer admits traffic.
func (e *Engine) AdmissionErr() error {
	e.mu.RLock()
	st := e.state
	e.mu.RUnlock()
	switch st {
	case stateRunning:
		return nil
	case stateClosed:
		return fmt.Errorf("engine: %w", neterr.ErrClosed)
	default:
		return fmt.Errorf("engine: %w", neterr.ErrDraining)
	}
}

// Drain gracefully stops admission and waits for every in-flight ticket to
// complete: new Submits fail fast with ErrDraining, queued requests are
// served normally, and Drain returns once the workers are idle. A route
// cannot be cut short, so an expired ctx does not end the wait: Drain
// reports the context's error after the workers finish. After a completed
// Drain, Close is an idempotent no-op — the tracer has already been
// flushed and every ticket settled. Drain after Close reports ErrClosed;
// concurrent and repeated Drains all wait for the same drain and return
// nil.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if e.state == stateClosed {
		e.mu.Unlock()
		return fmt.Errorf("engine: %w", neterr.ErrClosed)
	}
	transitioned := e.state == stateRunning
	if transitioned {
		e.state = stateDraining
		e.closeReqs.Do(e.stopIntake)
	}
	e.mu.Unlock()
	if transitioned {
		e.m.AddDrain()
	}
	e.wg.Wait()
	var ctxErr error
	if err := ctx.Err(); err != nil {
		ctxErr = fmt.Errorf("engine: drain: %w", err)
	}
	e.mu.Lock()
	if e.state == stateDraining {
		e.state = stateDrained
	}
	e.drained = true
	e.mu.Unlock()
	// Workers are idle: any span still open belongs to work that never ran
	// to completion — publish it aborted rather than dropping it.
	e.tracer.Flush()
	return ctxErr
}

// Close stops accepting requests, drains queued work, and stops the
// workers. Close is drain-by-default: submitted tickets all complete, later
// Submits fail fast with ErrClosed, and no worker goroutine outlives the
// call. After a completed Drain, Close is
// an idempotent no-op returning nil (the drain already settled every
// ticket and flushed the tracer). Without a prior Drain, a second Close
// reports ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.drained {
		// Drain finished the lifecycle work; Close only seals admission.
		e.state = stateClosed
		e.mu.Unlock()
		return nil
	}
	if e.state == stateClosed {
		e.mu.Unlock()
		return fmt.Errorf("engine: %w", neterr.ErrClosed)
	}
	e.state = stateClosed
	e.closeReqs.Do(e.stopIntake)
	e.mu.Unlock()
	e.wg.Wait()
	// Workers have drained: any span still open belongs to work that never
	// ran to completion — publish it aborted rather than dropping it.
	e.tracer.Flush()
	return nil
}
