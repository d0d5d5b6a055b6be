// Package engine turns a one-shot permutation router into a high-throughput
// serving path: a bounded worker pool fans concurrent routing requests across
// goroutines, each request is routed into a caller- or engine-owned output
// buffer over the network's pooled zero-allocation hot path, and every
// request reports its own error. Backpressure is a per-class admission token
// pool — Submit blocks once Queue requests of its class are queued, so a
// fast producer cannot outrun the workers without bound.
//
// Internally there is one queue: a FIFO ring per class under a single mutex,
// with idle workers waiting on a condition variable. Every dequeue takes the
// oldest request of the highest non-empty class, so strict class priority —
// Critical before Standard before Background — holds at every dequeue. A
// caller that reaches Ticket.Wait while its request is still queued, and no
// other class is, takes it off the queue and routes it itself, so a
// closed-loop request skips the worker wake-up and hand-off.
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
	// Workers is the number of routing goroutines; <= 0 selects 4. A
	// caller blocked in Ticket.Wait may also route its own request.
	Workers int
	// Queue is the number of requests of one class that may be queued
	// (admitted but not yet picked up by a worker) before Submit blocks;
	// <= 0 selects 4 * Workers.
	Queue int
	// Metrics, when non-nil, receives one observation per completed
	// request (latency measured from Submit to completion).
	Metrics *metrics.Metrics

	// Timeout bounds each request from Submit to completion; zero means no
	// deadline. A request whose deadline has passed when a worker or its
	// waiter picks it up fails with ErrTimeout instead of being routed; a
	// route already under way runs to completion.
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

// request is one unit of work. Requests are pooled: whoever serves one, a
// worker or the claiming waiter, publishes the result through the ticket,
// not the request, so a request can be recycled the moment its route
// completes.
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
	e    *Engine
	done sync.WaitGroup // Add(1) at Submit, Done once err is set
	dst  []core.Word
	err  error
}

// Wait blocks until the request completes. A request still queued when
// Wait is called, with no other class queued, is taken off the queue and
// routed on the caller's goroutine, with the same deadline, context and
// tracing as a worker would apply; otherwise Wait blocks until a worker has
// served it.
func (t *Ticket) Wait() ([]core.Word, error) {
	if req := t.e.claim(t); req != nil {
		t.e.serveOne(req)
		t.e.settle(1)
	}
	return t.wait()
}

// wait blocks until the ticket settles, without claiming its request.
func (t *Ticket) wait() ([]core.Word, error) {
	t.done.Wait()
	if t.err != nil {
		return nil, t.err
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
	// space is the per-class admission token pool: a submitter takes a
	// token before its request is queued (blocking for Standard/Critical,
	// shedding for Background) and the dequeue, a worker's or a claim,
	// returns it, so at most queue requests per class are ever queued.
	space [numClasses]chan struct{}
	queue int
	pool  sync.Pool // *request

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

	wg sync.WaitGroup

	// mu guards the queue and the lifecycle together, so the workers' exit
	// condition is one check under one lock. wake is signalled once per
	// queued request and broadcast by Drain, Close, an exiting worker and
	// the last arriving request that is never queued, so a waiting worker
	// re-checks the exit condition whenever it may have become true.
	mu    sync.Mutex
	wake  sync.Cond
	rings [numClasses]ring
	// arriving counts requests past the lifecycle gate but not yet queued,
	// and claimed requests whose waiters are still routing them. Workers do
	// not exit while it is non-zero, so a submitter blocked on a full queue
	// when Drain or Close began is still served, and Drain and Close return
	// only once every claimed route has settled.
	arriving int
	state    lifecycle
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
	e.wake.L = &e.mu
	for c := range e.space {
		e.space[c] = make(chan struct{}, queue)
		for i := 0; i < queue; i++ {
			e.space[c] <- struct{}{}
		}
	}
	e.pool.New = func() any { return new(request) }
	e.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go e.worker()
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

// lockHook, when non-nil, runs just before a worker takes the queue lock to
// look for work — the window in which the deterministic wakeup-priority test
// stages a multi-class backlog. Production leaves it nil.
var lockHook func()

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		req := e.next()
		if req == nil {
			return
		}
		e.serveOne(req)
	}
}

// next dequeues the oldest request of the highest non-empty class, waiting
// while the queue is empty, and gives its class token back to submitters.
// It returns nil once the worker should exit; the exiting worker wakes its
// peers so they re-check the exit condition too.
func (e *Engine) next() *request {
	if lockHook != nil {
		lockHook()
	}
	e.mu.Lock()
	for {
		if req := e.pop(); req != nil {
			e.mu.Unlock()
			e.release(req)
			return req
		}
		if e.exitable() {
			e.mu.Unlock()
			e.wake.Broadcast()
			return nil
		}
		e.m.AddPark()
		e.wake.Wait()
	}
}

// pop removes the oldest request of the highest non-empty class, or returns
// nil when every ring is empty. The caller holds e.mu.
func (e *Engine) pop() *request {
	for c := numClasses - 1; c >= 0; c-- {
		if e.rings[c].size > 0 {
			return e.rings[c].pop()
		}
	}
	return nil
}

// sole returns the ring of the only non-empty class, or nil when no ring or
// more than one is non-empty. The caller holds e.mu.
func (e *Engine) sole() *ring {
	var only *ring
	for c := range e.rings {
		if e.rings[c].size == 0 {
			continue
		}
		if only != nil {
			return nil
		}
		only = &e.rings[c]
	}
	return only
}

// release gives a dequeued request's class token back to submitters and
// counts the dequeue.
func (e *Engine) release(req *request) {
	e.space[req.class] <- struct{}{}
	e.m.AddBatchDequeue(1)
}

// claim takes t's request off the queue for its waiter to route, or returns
// nil unless it is queued in the only non-empty class. So a waiter never
// routes ahead of queued higher-class work, and never keeps the workers
// from queued lower-class work: a closed-loop caller that claimed while
// lower classes waited would hold the queue lock so often that an idle
// worker could not dequeue them. A queued request always carries its own
// ticket, so a pooled request recycled for another ticket never matches.
// The claimed route counts as arriving until its waiter settles it, so the
// workers' exit condition, and with it Drain and Close, waits for the
// route.
func (e *Engine) claim(t *Ticket) *request {
	var req *request
	e.mu.Lock()
	if r := e.sole(); r != nil {
		if req = r.remove(t); req != nil {
			e.arriving++
		}
	}
	e.mu.Unlock()
	if req == nil {
		return nil
	}
	e.release(req)
	e.m.AddClaim()
	req.sp.MarkClaimed()
	return req
}

// exitable is the worker exit condition; the caller holds e.mu. Admission
// has ended, no submitter is between the lifecycle gate and its push, and
// every ring is empty, so no admitted ticket is left unserved.
func (e *Engine) exitable() bool {
	if e.state == stateRunning || e.arriving != 0 {
		return false
	}
	for c := range e.rings {
		if e.rings[c].size != 0 {
			return false
		}
	}
	return true
}

// serveOne serves one dequeued or claimed request and settles its ticket.
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
	t.err = err
	t.done.Done()
}

// ring is a FIFO of requests backed by a power-of-two circular buffer that
// grows by doubling. It is not safe for concurrent use; e.mu serializes
// access.
type ring struct {
	buf  []*request
	head int
	size int
}

func (r *ring) push(req *request) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = req
	r.size++
}

// pop removes and returns the oldest request; the caller checks size first.
func (r *ring) pop() *request {
	req := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return req
}

// remove takes out the request of ticket t, keeping the others in FIFO
// order, or returns nil when none is queued. The scan runs newest first,
// because a closed-loop caller waits right after it submits.
func (r *ring) remove(t *Ticket) *request {
	mask := len(r.buf) - 1
	for i := r.size - 1; i >= 0; i-- {
		req := r.buf[(r.head+i)&mask]
		if req.t != t {
			continue
		}
		for j := i; j < r.size-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		r.size--
		r.buf[(r.head+r.size)&mask] = nil
		return req
	}
	return nil
}

func (r *ring) grow() {
	next := len(r.buf) * 2
	if next == 0 {
		next = 16
	}
	buf := make([]*request, next)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
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

// Submit enqueues one routing request and returns immediately with a
// Ticket; the route lands in dst. If dst is nil the engine allocates the
// output buffer. Submit blocks while the queue is full (backpressure) and
// fails fast with ErrClosed after Close or ErrBadSize on a length mismatch.
// The caller must not touch src or dst until Wait returns.
func (e *Engine) Submit(dst, src []core.Word) (*Ticket, error) {
	return e.SubmitCtx(context.Background(), dst, src)
}

// SubmitCtx is Submit with a context: a request whose context is cancelled
// or past its deadline before a worker or its waiter picks it up completes
// with the context's error instead of being routed.
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
	if err := e.gate(1); err != nil {
		e.discard(req, err)
		return nil, err
	}
	e.inflight.Add(1)
	e.classInflight[class].Add(1)
	t := req.t
	if _, err := e.enqueue(ctx, class, []*request{req}); err != nil {
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
	t := &Ticket{e: e, dst: dst}
	t.done.Add(1)
	req := e.pool.Get().(*request)
	*req = request{
		src:      src,
		dst:      dst,
		start:    start,
		deadline: deadline,
		ctx:      ctx,
		t:        t,
		sp:       sp,
		class:    class,
	}
	return req, nil
}

// gate is the lifecycle check: while the engine is running it registers n
// arriving requests and returns nil, and otherwise it returns the error
// Submit reports for the state. The queue lock is never held across
// anything that can block, so Drain and Close take it promptly even while
// submitters wait on a full queue.
func (e *Engine) gate(n int) error {
	e.mu.Lock()
	st := e.state
	if st == stateRunning {
		e.arriving += n
	}
	e.mu.Unlock()
	if st != stateRunning {
		return lifecycleErr(st)
	}
	return nil
}

func lifecycleErr(st lifecycle) error {
	if st == stateClosed {
		return fmt.Errorf("engine: %w", neterr.ErrClosed)
	}
	return fmt.Errorf("engine: %w", neterr.ErrDraining)
}

// enqueue queues admitted same-class requests in token-sized chunks: it
// takes up to len(reqs) class tokens (Standard and Critical block for the
// first one against ctx; Background never blocks), pushes them under one
// lock acquisition and wakes up to that many workers. When a Background
// queue is full or ctx ends first, the requests not yet queued fail with the
// returned error; queued counts the ones that made it.
func (e *Engine) enqueue(ctx context.Context, class Class, reqs []*request) (queued int, err error) {
	for queued < len(reqs) {
		take, expired := e.acquireTokens(ctx, class, len(reqs)-queued)
		if expired || take == 0 {
			return queued, e.abandon(ctx, class, reqs[queued:], expired)
		}
		e.push(reqs[queued : queued+take])
		queued += take
	}
	return queued, nil
}

// push queues requests under one lock acquisition and wakes up to that many
// idle workers. The push and the arriving decrement share the critical
// section, so a worker never sees an empty queue with nothing arriving while
// an admitted request is still on its way.
func (e *Engine) push(reqs []*request) {
	e.mu.Lock()
	for _, req := range reqs {
		e.rings[req.class].push(req)
	}
	e.arriving -= len(reqs)
	e.mu.Unlock()
	for i := 0; i < len(reqs) && i < e.workers; i++ {
		e.wake.Signal()
	}
}

// acquireTokens takes up to want class tokens: Standard and Critical block
// for the first token (or the context), then both sweep whatever more is
// free without blocking. expired reports a context cut; a Background return
// of (0, false) means shed. A free token admits even under an expired
// context — the workers refuse expired requests at dequeue — so only a full
// queue blocks on the caller's context.
func (e *Engine) acquireTokens(ctx context.Context, class Class, want int) (got int, expired bool) {
	if class != Background {
		select {
		case <-e.space[class]:
			got = 1
		default:
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
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

// abandon fails admitted requests that are never queued — shed from a full
// Background queue, or cut by ctx while waiting for a token — and returns
// the error they fail with.
func (e *Engine) abandon(ctx context.Context, class Class, reqs []*request, expired bool) error {
	var err error
	for _, req := range reqs {
		if expired {
			err = e.ctxErr(ctx)
		} else {
			e.m.AddShed()
			e.m.AddClassShed(int(class))
			req.sp.MarkShed()
			err = fmt.Errorf("engine: background queue full (%d requests): %w",
				e.queue, neterr.ErrOverloaded)
		}
		e.classInflight[class].Add(-1)
		e.inflight.Add(-1)
		e.discard(req, err)
	}
	e.settle(len(reqs))
	return err
}

// discard recycles a request that will never be queued and publishes its
// span with err.
func (e *Engine) discard(req *request, err error) {
	sp := req.sp
	*req = request{}
	e.pool.Put(req)
	e.tracer.Finish(sp, err)
}

// settle gives back n arriving registrations: requests that will never be
// queued, or a claimed route that has completed. Shutdown may be waiting
// only on them, so the last one out wakes the workers to re-check their
// exit condition.
func (e *Engine) settle(n int) {
	if n == 0 {
		return
	}
	e.mu.Lock()
	e.arriving -= n
	wake := e.arriving == 0 && e.state != stateRunning
	e.mu.Unlock()
	if wake {
		e.wake.Broadcast()
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
// The submission side is bulk: the whole batch passes one lifecycle check,
// every request's clock starts before any is queued, and each chunk of free
// admission tokens is queued under one lock acquisition. Unlike
// Ticket.Wait, the caller never routes a request itself: the batch is
// spread across the workers.
func (e *Engine) RouteBatchCtx(ctx context.Context, batch [][]core.Word) (outs [][]core.Word, errs []error) {
	outs = make([][]core.Word, len(batch))
	tickets, errs := e.submitBatch(ctx, Standard, batch)
	for i, t := range tickets {
		if t == nil {
			continue
		}
		outs[i], errs[i] = t.wait()
	}
	return outs, errs
}

// submitBatch admits and enqueues a batch of same-class requests. Requests
// that fail validation, shedding or the lifecycle check get their error in
// errs and a nil ticket; the rest are queued by enqueue.
func (e *Engine) submitBatch(ctx context.Context, class Class, batch [][]core.Word) ([]*Ticket, []error) {
	tickets := make([]*Ticket, len(batch))
	errs := make([]error, len(batch))
	// One lifecycle check admits the whole batch; requests that fail to
	// prepare give their registration back below.
	gateErr := e.gate(len(batch))
	reqs := make([]*request, 0, len(batch))
	slots := make([]int, 0, len(batch)) // batch index of each admitted request
	for i, src := range batch {
		req, err := e.prepare(ctx, class, nil, src)
		if err == nil && gateErr != nil {
			e.discard(req, gateErr)
			err = gateErr
		}
		if err != nil {
			errs[i] = err
			continue
		}
		// Register before preparing the next request, so the shedder's
		// in-flight depth sees every earlier request of this batch, exactly
		// as sequential submission would.
		e.inflight.Add(1)
		e.classInflight[class].Add(1)
		tickets[i] = req.t
		reqs = append(reqs, req)
		slots = append(slots, i)
	}
	if gateErr != nil {
		return tickets, errs
	}
	e.settle(len(batch) - len(reqs))
	queued, err := e.enqueue(ctx, class, reqs)
	for _, i := range slots[queued:] {
		tickets[i] = nil
		errs[i] = err
	}
	return tickets, errs
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
	e.mu.Lock()
	st := e.state
	e.mu.Unlock()
	if st == stateRunning {
		return nil
	}
	return lifecycleErr(st)
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
	}
	e.mu.Unlock()
	if transitioned {
		e.m.AddDrain()
		e.wake.Broadcast()
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
	e.mu.Unlock()
	e.wake.Broadcast()
	e.wg.Wait()
	// Workers have drained: any span still open belongs to work that never
	// ran to completion — publish it aborted rather than dropping it.
	e.tracer.Flush()
	return nil
}
