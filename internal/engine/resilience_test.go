package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// funcRouter turns a closure into a Router for fault scripting.
type funcRouter struct {
	n  int
	fn func(dst, src []core.Word) error
}

func (r *funcRouter) Inputs() int                          { return r.n }
func (r *funcRouter) RouteInto(dst, src []core.Word) error { return r.fn(dst, src) }

// deliver routes by address, the healthy behaviour of any permutation router.
func deliver(dst, src []core.Word) error {
	for _, wd := range src {
		dst[wd.Addr] = wd
	}
	return nil
}

// TestNoRetryByDefault pins that the engine routes a request once: a
// transient failure reaches the caller as ErrTransient, and only the plane
// supervisor routes around a failing router.
func TestNoRetryByDefault(t *testing.T) {
	var calls atomic.Int64
	const n = 8
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		calls.Add(1)
		return fmt.Errorf("%w: glitch", neterr.ErrTransient)
	}}
	e, err := New(r, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tk, err := e.Submit(nil, permWords(perm.Identity(n)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); !errors.Is(err, neterr.ErrTransient) {
		t.Errorf("err = %v, want the transient error through", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("router called %d times, want 1", got)
	}
}

// TestTimeoutFailsQueuedRequest pins the Timeout contract: a request still
// queued when its deadline passes fails with ErrTimeout instead of being
// routed, and counts one timeout.
func TestTimeoutFailsQueuedRequest(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	const timeout = 30 * time.Millisecond
	e, err := New(r, Config{Workers: 1, Metrics: &m, Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Occupy the only worker inside its route, so the next request queues.
	blocker, err := e.Submit(nil, permWords(perm.Identity(n)))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queued, err := e.Submit(nil, permWords(perm.Identity(n)))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * timeout)
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("request routed before its deadline: %v", err)
	}
	if _, err := queued.Wait(); !errors.Is(err, neterr.ErrTimeout) {
		t.Fatalf("request queued past its deadline: err = %v, want ErrTimeout", err)
	}
	if got := m.Snapshot().Timeouts; got != 1 {
		t.Errorf("Timeouts = %d, want 1", got)
	}
}

func TestSubmitCtxCancellation(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		<-gate
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker, then queue a request whose context is already
	// cancelled; the worker must refuse to route it.
	blocker, err := e.Submit(nil, permWords(perm.Identity(n)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	doomed, err := e.SubmitCtx(ctx, nil, permWords(perm.Identity(n)))
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := doomed.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled request: err = %v, want context.Canceled", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnderConcurrentSubmit pins the drain contract under contention:
// with producers hammering Submit from many goroutines, Close returns
// promptly, every accepted ticket completes, and every rejected Submit
// reports ErrClosed — nothing hangs and nothing panics.
func TestCloseUnderConcurrentSubmit(t *testing.T) {
	n := newBNB(t, 4, 0)
	e, err := New(n, Config{Workers: 2, Queue: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var accepted, rejected atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				tk, err := e.Submit(nil, permWords(perm.Random(n.Inputs(), rng)))
				if err != nil {
					if !errors.Is(err, neterr.ErrClosed) {
						t.Errorf("Submit during Close: %v", err)
					}
					rejected.Add(1)
					return
				}
				accepted.Add(1)
				if _, err := tk.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	time.Sleep(5 * time.Millisecond) // let the producers saturate the queue
	done := make(chan error, 1)
	go func() { done <- e.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung under concurrent Submit")
	}
	wg.Wait()
	if accepted.Load() == 0 {
		t.Error("no submissions accepted before Close; the race was not exercised")
	}
	if rejected.Load() != 8 {
		t.Errorf("%d producers saw ErrClosed, want all 8", rejected.Load())
	}
}
