package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// TestCloseLeaksNoGoroutines cycles the engine through open / serve / close —
// including requests still queued behind a busy worker at shutdown — and
// checks the goroutine count returns to baseline: no leaked worker.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()
	const n = 8
	for cycle := 0; cycle < 5; cycle++ {
		// A router that fails every route after a short stall, so Close
		// catches workers mid-route with requests still queued.
		failing := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
			time.Sleep(time.Millisecond)
			return fmt.Errorf("down: %w", neterr.ErrTransient)
		}}
		e, err := New(failing, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		tickets := make([]*Ticket, 0, 8)
		for i := 0; i < 8; i++ {
			tk, err := e.Submit(nil, permWords(perm.Identity(n)))
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		for _, tk := range tickets {
			if _, err := tk.Wait(); !errors.Is(err, neterr.ErrTransient) {
				t.Errorf("failing request settled with %v, want ErrTransient", err)
			}
		}
		if _, err := e.Submit(nil, permWords(perm.Identity(n))); !errors.Is(err, neterr.ErrClosed) {
			t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
		}
		if err := e.Close(); !errors.Is(err, neterr.ErrClosed) {
			t.Fatalf("second Close: err = %v, want ErrClosed", err)
		}
	}
	// Give exiting goroutines a moment to unwind, then compare against the
	// baseline with a small allowance for runtime helpers.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: baseline %d, after close cycles %d\n%s",
			baseline, got, buf[:runtime.Stack(buf, true)])
	}
}

// TestRouteBatchCtxPartialCancellation pins the documented contract:
// cancellation splits the batch by completion — requests routed before the
// cancel keep their verified results, pending requests complete with the
// context's error, and nothing is half-routed.
func TestRouteBatchCtxPartialCancellation(t *testing.T) {
	const n = 8
	const batchLen = 8
	var served atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})
	// One worker serves the batch in order; request 3 parks on the gate, so
	// requests 0-2 complete before the cancel and 4-7 are still queued.
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if served.Add(1) == 4 {
			close(entered)
			<-gate
		}
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: batchLen})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := make([][]core.Word, batchLen)
	for i := range batch {
		batch[i] = permWords(perm.Identity(n))
	}
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		outs [][]core.Word
		errs []error
	}
	done := make(chan result, 1)
	go func() {
		outs, errs := e.RouteBatchCtx(ctx, batch)
		done <- result{outs, errs}
	}()
	<-entered
	cancel()
	close(gate)
	res := <-done
	for i := 0; i < 3; i++ {
		if res.errs[i] != nil {
			t.Errorf("request %d completed before cancel, got error %v", i, res.errs[i])
		}
		if res.outs[i] == nil {
			t.Errorf("request %d completed but has no output", i)
			continue
		}
		for j, w := range res.outs[i] {
			if w.Addr != j {
				t.Errorf("request %d output %d carries address %d", i, j, w.Addr)
			}
		}
	}
	// Request 3 raced the cancel inside the router; either outcome is legal,
	// but it must be all-or-nothing.
	if (res.errs[3] == nil) == (res.outs[3] == nil) {
		t.Errorf("request 3 half-routed: out=%v err=%v", res.outs[3], res.errs[3])
	}
	for i := 4; i < batchLen; i++ {
		if !errors.Is(res.errs[i], context.Canceled) {
			t.Errorf("pending request %d: err = %v, want context.Canceled", i, res.errs[i])
		}
		if res.outs[i] != nil {
			t.Errorf("cancelled request %d still has an output", i)
		}
	}
}

// TestRouteBatchCtxDeadlineWrapsTimeout pins the deadline flavour of the
// contract: pending requests fail with ErrTimeout, not a bare context error.
func TestRouteBatchCtxDeadlineWrapsTimeout(t *testing.T) {
	const n = 8
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		time.Sleep(20 * time.Millisecond)
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	batch := make([][]core.Word, 8)
	for i := range batch {
		batch[i] = permWords(perm.Identity(n))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, errs := e.RouteBatchCtx(ctx, batch)
	var completed, timedOut int
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, neterr.ErrTimeout):
			timedOut++
		default:
			t.Errorf("request %d: err = %v, want nil or ErrTimeout", i, err)
		}
	}
	if completed == 0 {
		t.Error("no request completed before the deadline")
	}
	if timedOut == 0 {
		t.Error("no request timed out; the batch did not outrun the deadline")
	}
}
