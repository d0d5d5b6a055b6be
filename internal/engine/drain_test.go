package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// TestDrainStopsAdmissionAndCompletesInflight pins the graceful-drain
// contract: Submit during a drain fails fast with ErrDraining (not
// ErrClosed), every ticket admitted before the drain completes normally,
// and Drain returns only once the workers are idle.
func TestDrainStopsAdmissionAndCompletesInflight(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		entered <- struct{}{}
		<-gate
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 2, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	tickets := make([]*Ticket, 0, 4)
	for i := 0; i < 4; i++ {
		tk, err := e.Submit(nil, permWords(perm.Identity(n)))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	<-entered // at least one request is mid-route when the drain starts
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	// The drain must flip admission before it completes; poll for the state
	// change rather than racing the goroutine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := e.Submit(nil, permWords(perm.Identity(n)))
		if errors.Is(err, neterr.ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Submit during drain: err = %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with requests still gated", err)
	default:
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, tk := range tickets {
		out, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d admitted before drain failed: %v", i, err)
		}
		for j, w := range out {
			if w.Addr != j {
				t.Errorf("ticket %d output %d carries address %d", i, j, w.Addr)
			}
		}
	}
	if e.InFlight() != 0 {
		t.Errorf("InFlight after drain = %d, want 0", e.InFlight())
	}
	// After a completed Drain, Submit still says draining (shutdown is
	// announced, not done) and Close is an idempotent no-op.
	if _, err := e.Submit(nil, permWords(perm.Identity(n))); !errors.Is(err, neterr.ErrDraining) {
		t.Errorf("Submit after drained: err = %v, want ErrDraining", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close after Drain: err = %v, want nil", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close after Drain: err = %v, want nil (idempotent no-op)", err)
	}
	if _, err := e.Submit(nil, permWords(perm.Identity(n))); !errors.Is(err, neterr.ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestDrainAfterCloseAndConcurrentDrains pins the remaining lifecycle
// edges: Drain after Close reports ErrClosed, and concurrent Drains all
// wait for the same drain and return nil.
func TestDrainAfterCloseAndConcurrentDrains(t *testing.T) {
	const n = 8
	ok := &funcRouter{n: n, fn: deliver}
	e, err := New(ok, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, neterr.ErrClosed) {
		t.Errorf("Drain after Close: err = %v, want ErrClosed", err)
	}

	e2, err := New(ok, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e2.Drain(context.Background())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent Drain %d: %v", i, err)
		}
	}
	// A second sequential Drain on a drained engine is also a clean wait.
	if err := e2.Drain(context.Background()); err != nil {
		t.Errorf("repeat Drain: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Errorf("Close after concurrent Drains: %v", err)
	}
}

// TestDrainExpiredContextSettlesEveryTicket pins the expired-deadline
// contract: Drain called with an already-dead context still stops admission
// and waits for every in-flight ticket to settle — the context error reports
// the missed deadline, it does not abandon the drain.
func TestDrainExpiredContextSettlesEveryTicket(t *testing.T) {
	const n = 8
	slow := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		time.Sleep(2 * time.Millisecond)
		return deliver(dst, src)
	}}
	e, err := New(slow, Config{Workers: 2, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	src := permWords(perm.Identity(n))
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := e.Submit(nil, src)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = e.Drain(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Drain(expired ctx): err = %v, want wrapped context.Canceled", err)
	}
	// The drain still ran to completion: every ticket settled (successfully —
	// admission stopped, service did not), and nothing is left in flight.
	for i, tk := range tickets {
		if _, werr := tk.Wait(); werr != nil {
			t.Errorf("ticket %d settled with %v, want success", i, werr)
		}
	}
	if got := e.InFlight(); got != 0 {
		t.Errorf("InFlight after drain = %d, want 0", got)
	}
	// And the engine reports drained to later submitters.
	if _, err := e.Submit(nil, src); !errors.Is(err, neterr.ErrDraining) {
		t.Errorf("Submit after drain: err = %v, want ErrDraining", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("Close after drain: %v", err)
	}
}
