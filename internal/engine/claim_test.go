package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/perm"
	"repro/internal/trace"
)

// newHeldEngine builds a one-worker engine whose worker is held in lockHook,
// just before it first takes the queue lock, until release is called; later
// lockHook calls pass through. While the worker is held, a submitted request
// stays queued until its waiter claims it.
func newHeldEngine(t *testing.T, r Router, cfg Config) (e *Engine, release func()) {
	t.Helper()
	parked := make(chan struct{})
	unblock := make(chan struct{})
	var hold sync.Once
	lockHook = func() {
		hold.Do(func() {
			parked <- struct{}{}
			<-unblock
		})
	}
	cfg.Workers = 1
	e, err := New(r, cfg)
	if err != nil {
		lockHook = nil
		t.Fatal(err)
	}
	<-parked
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(func() {
		release()
		e.Close()
		lockHook = nil
	})
	return e, release
}

// bareEngine builds an engine with no worker goroutines, so a test's
// scheduled threads can run the worker loop themselves.
func bareEngine(r Router, m *metrics.Metrics) *Engine {
	e := &Engine{r: r, m: m, workers: 1, queue: 1}
	e.wake.L = &e.mu
	for c := range e.space {
		e.space[c] = make(chan struct{}, e.queue)
		e.space[c] <- struct{}{}
	}
	e.pool.New = func() any { return new(request) }
	return e
}

// taggedWords is the identity permutation with tag in word 0's data, so a
// test router can tell requests apart.
func taggedWords(n int, tag uint64) []core.Word {
	src := permWords(perm.Identity(n))
	src[0].Data = tag
	return src
}

func checkDelivered(t *testing.T, out []core.Word) {
	t.Helper()
	for j, w := range out {
		if w.Addr != j {
			t.Fatalf("output %d carries address %d", j, w.Addr)
		}
	}
}

// TestWaitClaimsQueuedRequest pins the claim on its plainest schedule: with
// the only worker held before it takes the queue lock, Wait finds its
// request queued and routes it on the caller's goroutine. The claim counts
// one dequeue and one claim, gives the class token back, marks the span,
// and costs the held worker no park.
func TestWaitClaimsQueuedRequest(t *testing.T) {
	n := newBNB(t, 3, 0)
	var m metrics.Metrics
	tr := trace.New(trace.Config{Capacity: 8, SlowThreshold: time.Hour})
	e, _ := newHeldEngine(t, n, Config{Metrics: &m, Tracer: tr})
	parks := m.Snapshot().WorkerParks
	tk, err := e.Submit(nil, permWords(perm.Reversal(n.Inputs())))
	if err != nil {
		t.Fatal(err)
	}
	out, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkDelivered(t, out)
	snap := m.Snapshot()
	if snap.Claims != 1 || snap.BatchDequeues != 1 || snap.Routes != 1 {
		t.Fatalf("claims=%d dequeues=%d routes=%d, want 1 each", snap.Claims, snap.BatchDequeues, snap.Routes)
	}
	if snap.WorkerParks != parks {
		t.Fatalf("worker parks grew from %d to %d for a claimed request", parks, snap.WorkerParks)
	}
	if got := len(e.space[Standard]); got != e.queue {
		t.Fatalf("%d of %d standard tokens free after the claim, want all", got, e.queue)
	}
	spans := tr.Snapshot(0)
	if len(spans) != 1 || !spans[0].Claimed || spans[0].Err != "" {
		t.Fatalf("spans = %+v, want one clean claimed span", spans)
	}
}

// TestClaimRacesNext runs a waiter's claim against a worker's dequeue for
// the one queued request, in both orders, on an explicit schedule: the
// worker loop parks in lockHook just before it takes the queue lock, and the
// waiter parks just before Wait. Exactly one of them serves the request.
func TestClaimRacesNext(t *testing.T) {
	for _, claimFirst := range []bool{true, false} {
		name := "next first"
		if claimFirst {
			name = "claim first"
		}
		t.Run(name, func(t *testing.T) {
			const n = 8
			var calls atomic.Int64
			r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
				calls.Add(1)
				return deliver(dst, src)
			}}
			var m metrics.Metrics
			e := bareEngine(r, &m)
			tk, err := e.Submit(nil, permWords(perm.Reversal(n)))
			if err != nil {
				t.Fatal(err)
			}
			lockHook = check.Yield
			defer func() { lockHook = nil }()
			e.wg.Add(1)
			worker := check.GoNamed("worker", func(func()) { e.worker() })
			var out []core.Word
			var werr error
			claimer := check.GoNamed("claimer", func(yield func()) {
				yield()
				out, werr = tk.Wait()
			})
			worker.Step()  // parked in lockHook, about to take the queue lock
			claimer.Step() // parked just before Wait
			if claimFirst {
				claimer.Finish()
			} else {
				worker.Step() // dequeues and serves the request, parks in lockHook again
				claimer.Finish()
			}
			// With admission over, the worker takes the lock, finds the queue
			// empty and exits instead of waiting for work.
			e.mu.Lock()
			e.state = stateDraining
			e.mu.Unlock()
			worker.Finish()
			if werr != nil {
				t.Fatal(werr)
			}
			checkDelivered(t, out)
			if got := calls.Load(); got != 1 {
				t.Fatalf("router called %d times, want 1", got)
			}
			snap := m.Snapshot()
			wantClaims := int64(0)
			if claimFirst {
				wantClaims = 1
			}
			if snap.Claims != wantClaims || snap.BatchDequeues != 1 || snap.Routes != 1 {
				t.Fatalf("claims=%d dequeues=%d routes=%d, want %d, 1, 1",
					snap.Claims, snap.BatchDequeues, snap.Routes, wantClaims)
			}
			if got := len(e.space[Standard]); got != e.queue {
				t.Fatalf("%d of %d standard tokens free, want all", got, e.queue)
			}
		})
	}
}

// TestDrainWaitsForClaimedRoute pins the claim's arriving registration: a
// Drain that begins while a claimed route is blocked in the router does not
// return, and the worker, woken to re-check its exit condition with
// admission over and the queue empty, parks again instead of exiting. Once
// the route completes, the drain finishes and the ticket holds its output.
func TestDrainWaitsForClaimedRoute(t *testing.T) {
	const n = 8
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		check.Yield() // the claimed route blocks here until the schedule resumes it
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, release := newHeldEngine(t, r, Config{Metrics: &m})
	tk, err := e.Submit(nil, permWords(perm.Reversal(n)))
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Word
	var werr error
	claimer := check.GoNamed("claimer", func(func()) { out, werr = tk.Wait() })
	claimer.Step() // claims the request and parks inside the router
	fail := func(format string, args ...any) {
		t.Helper()
		claimer.Finish()
		t.Fatalf(format, args...)
	}
	if got := m.Snapshot().Claims; got != 1 {
		fail("claims = %d, want 1", got)
	}
	release() // the worker finds the queue empty and parks
	deadline := time.Now().Add(5 * time.Second)
	for m.Snapshot().WorkerParks < 1 {
		if time.Now().After(deadline) {
			fail("the released worker never parked")
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	// Drain's broadcast wakes the worker, and its second park shows it
	// re-checked the exit condition after admission ended and stayed.
	deadline = time.Now().Add(5 * time.Second)
	for m.Snapshot().WorkerParks < 2 {
		select {
		case err := <-drained:
			fail("Drain returned (%v) while a claimed route was still running", err)
		default:
		}
		if time.Now().After(deadline) {
			fail("the worker did not re-check its exit condition after Drain began")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		fail("Drain returned (%v) while a claimed route was still running", err)
	default:
	}
	claimer.Finish() // the route completes and the waiter settles
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	checkDelivered(t, out)
}

// TestClaimExpiredWhileQueued pins the deadline and ctx checks on the claim
// path: a request whose context is cancelled, or whose deadline passes,
// while it is queued fails at the claim with the context's error or
// ErrTimeout, exactly as at a worker's dequeue, and the router is never
// called.
func TestClaimExpiredWhileQueued(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		ctx     func() (context.Context, context.CancelFunc)
		expire  func(ctx context.Context, cancel context.CancelFunc)
		want    error
		timeout bool // whether the failure counts as a timeout
	}{
		{
			name:   "ctx cancelled",
			ctx:    func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			expire: func(_ context.Context, cancel context.CancelFunc) { cancel() },
			want:   context.Canceled,
		},
		{
			name: "ctx deadline",
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), time.Millisecond)
			},
			expire:  func(ctx context.Context, _ context.CancelFunc) { <-ctx.Done() },
			want:    neterr.ErrTimeout,
			timeout: true,
		},
		{
			name:    "engine timeout",
			cfg:     Config{Timeout: time.Nanosecond},
			ctx:     func() (context.Context, context.CancelFunc) { return context.Background(), func() {} },
			expire:  func(context.Context, context.CancelFunc) {},
			want:    neterr.ErrTimeout,
			timeout: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 8
			var calls atomic.Int64
			r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
				calls.Add(1)
				return deliver(dst, src)
			}}
			var m metrics.Metrics
			cfg := tc.cfg
			cfg.Metrics = &m
			e, _ := newHeldEngine(t, r, cfg)
			ctx, cancel := tc.ctx()
			defer cancel()
			tk, err := e.SubmitCtx(ctx, nil, permWords(perm.Reversal(n)))
			if err != nil {
				t.Fatal(err)
			}
			var out []core.Word
			var werr error
			claimer := check.GoNamed("claimer", func(yield func()) {
				yield()
				out, werr = tk.Wait()
			})
			claimer.Step() // parked before Wait, with the request queued
			tc.expire(ctx, cancel)
			claimer.Finish()
			if !errors.Is(werr, tc.want) || out != nil {
				t.Fatalf("Wait = (%v, %v), want (nil, %v)", out, werr, tc.want)
			}
			if got := calls.Load(); got != 0 {
				t.Fatalf("router called %d times for an expired request", got)
			}
			snap := m.Snapshot()
			wantTimeouts := int64(0)
			if tc.timeout {
				wantTimeouts = 1
			}
			if snap.Claims != 1 || snap.Errors != 1 || snap.Timeouts != wantTimeouts {
				t.Fatalf("claims=%d errors=%d timeouts=%d, want 1, 1, %d",
					snap.Claims, snap.Errors, snap.Timeouts, wantTimeouts)
			}
		})
	}
}

// TestClaimedBackgroundRouteDoesNotHoldCritical pins that a claim takes no
// worker from higher-class work: while a claimed Background route is
// blocked in the router, a Critical request submitted after it is dequeued
// and served by the worker.
func TestClaimedBackgroundRouteDoesNotHoldCritical(t *testing.T) {
	const (
		n       = 8
		bgTag   = 1
		critTag = 2
	)
	criticalServed := make(chan struct{})
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		switch src[0].Data {
		case bgTag:
			check.Yield() // the claimed route blocks here until the schedule resumes it
		case critTag:
			close(criticalServed)
		}
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, release := newHeldEngine(t, r, Config{Metrics: &m})
	bg, err := e.SubmitClass(context.Background(), Background, nil, taggedWords(n, bgTag))
	if err != nil {
		t.Fatal(err)
	}
	var bgOut []core.Word
	var bgErr error
	claimer := check.GoNamed("claimer", func(func()) { bgOut, bgErr = bg.Wait() })
	claimer.Step() // claims the background request and parks inside its route
	fail := func(format string, args ...any) {
		t.Helper()
		claimer.Finish()
		t.Fatalf(format, args...)
	}
	release() // the worker finds the queue empty and parks
	crit, err := e.SubmitClass(context.Background(), Critical, nil, taggedWords(n, critTag))
	if err != nil {
		fail("%v", err)
	}
	select {
	case <-criticalServed:
	case <-time.After(5 * time.Second):
		fail("the critical request was not served while a claimed background route ran")
	}
	if !claimer.Running() {
		t.Fatal("the claimed background route finished before the schedule resumed it")
	}
	// The worker dequeued the critical request, so this Wait does not claim.
	out, err := crit.Wait()
	if err != nil {
		fail("critical: %v", err)
	}
	checkDelivered(t, out)
	if got := m.Snapshot().Claims; got != 1 {
		fail("claims = %d, want only the background claim", got)
	}
	claimer.Finish()
	if bgErr != nil {
		t.Fatalf("background: %v", bgErr)
	}
	checkDelivered(t, bgOut)
}

// TestRouteBatchDoesNotClaim pins that a batch caller never routes its own
// requests: with the only worker held, RouteBatch queues the whole batch
// and waits on the workers, so nothing is claimed and the router runs only
// once the worker is released.
func TestRouteBatchDoesNotClaim(t *testing.T) {
	const n, batchLen = 8, 4
	var held atomic.Bool
	held.Store(true)
	var early atomic.Int64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if held.Load() {
			early.Add(1)
		}
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, release := newHeldEngine(t, r, Config{Metrics: &m, Queue: batchLen})
	batch := make([][]core.Word, batchLen)
	for i := range batch {
		batch[i] = permWords(perm.Reversal(n))
	}
	done := make(chan []error, 1)
	go func() {
		_, errs := e.RouteBatch(batch)
		done <- errs
	}()
	// Release the worker once the whole batch is queued, or as soon as a
	// claim shows the caller routing it instead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		queued := e.rings[Standard].size
		e.mu.Unlock()
		if queued == batchLen || m.Snapshot().Claims > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d batch requests queued", queued, batchLen)
		}
		time.Sleep(time.Millisecond)
	}
	held.Store(false)
	release()
	for i, err := range <-done {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if claims, routed := m.Snapshot().Claims, early.Load(); claims != 0 || routed != 0 {
		t.Fatalf("RouteBatch claimed %d requests and routed %d with the worker held, want 0", claims, routed)
	}
}

// TestNoClaimWhileLowerClassQueued pins the claim rule's other half: a
// waiter whose request is in the highest queued class still does not claim
// while a lower class is queued, so the worker serves both, in class order.
// A closed-loop caller claiming there kept an idle worker off the queue
// lock, and TestBackgroundCompletesUnderSustainedCriticalLoad's background
// request starved under -race.
func TestNoClaimWhileLowerClassQueued(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var order []uint64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		mu.Lock()
		order = append(order, src[0].Data)
		mu.Unlock()
		return deliver(dst, src)
	}}
	e, release := newHeldEngine(t, r, Config{})
	bg, err := e.SubmitClass(context.Background(), Background, nil, taggedWords(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	crit, err := e.SubmitClass(context.Background(), Critical, nil, taggedWords(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if req := e.claim(crit); req != nil {
		e.serveOne(req) // settle the claim, so the cleanup's Close can return
		e.settle(1)
		t.Fatal("a critical request was claimed while a background request was queued")
	}
	release()
	for _, tk := range []*Ticket{crit, bg} {
		out, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		checkDelivered(t, out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("serving order %v, want [2 1] (critical, then background)", order)
	}
}
