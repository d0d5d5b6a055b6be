package engine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/neterr"
	"repro/internal/perm"
	"repro/internal/trace"
)

// TestTracedRequests checks the engine publishes one well-formed request
// span per completed request, before the ticket unblocks.
func TestTracedRequests(t *testing.T) {
	n := newBNB(t, 4, 0)
	tr := trace.New(trace.Config{Capacity: 64, SlowThreshold: time.Hour})
	e, err := New(n, Config{Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Tracer() != tr {
		t.Fatal("Tracer() did not return the configured tracer")
	}
	const reqs = 10
	for i := 0; i < reqs; i++ {
		ticket, err := e.Submit(nil, permWords(perm.Reversal(n.Inputs())))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ticket.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Spans publish before Wait returns, so all must be visible now.
	if got := tr.Published(); got != reqs {
		t.Fatalf("Published = %d, want %d", got, reqs)
	}
	for _, sp := range tr.Snapshot(0) {
		if sp.Kind != trace.KindRequest {
			t.Fatalf("span kind = %q, want request", sp.Kind)
		}
		if sp.Words != n.Inputs() {
			t.Fatalf("span words = %d, want %d", sp.Words, n.Inputs())
		}
		if sp.QueueWait < 0 || sp.Service < 0 || sp.Total < sp.QueueWait {
			t.Fatalf("inconsistent timings: %+v", sp)
		}
		if sp.Err != "" || sp.Aborted {
			t.Fatalf("clean request recorded failure: %+v", sp)
		}
	}
}

// TestTracedSubmitRejection checks a Submit rejected at the door (engine
// closed) still publishes its span with the rejection error.
func TestTracedSubmitRejection(t *testing.T) {
	n := newBNB(t, 3, 0)
	tr := trace.New(trace.Config{Capacity: 8, SlowThreshold: time.Hour})
	e, err := New(n, Config{Workers: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(nil, permWords(perm.Identity(n.Inputs()))); !errors.Is(err, neterr.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if got := tr.Published(); got != 1 {
		t.Fatalf("Published = %d, want the rejected span", got)
	}
	sp := tr.Snapshot(1)[0]
	if sp.Err == "" {
		t.Fatalf("rejected span carries no error: %+v", sp)
	}
}

// TestCloseFlushesSpans checks engine.Close publishes spans of requests that
// never completed instead of dropping them: a request stuck behind a slow
// router when Close begins is drained, and a span opened without a matching
// request (simulating a crashed path) surfaces as aborted.
func TestCloseFlushesSpans(t *testing.T) {
	n := newBNB(t, 3, 0)
	tr := trace.New(trace.Config{Capacity: 8, SlowThreshold: time.Hour})
	e, err := New(n, Config{Workers: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	// An orphan span only the Close-path flush can publish.
	orphan := tr.Start(trace.KindRequest, time.Now(), n.Inputs())
	ticket, err := e.Submit(nil, permWords(perm.Identity(n.Inputs())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ticket.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Published(); got != 2 {
		t.Fatalf("Published = %d, want request + flushed orphan", got)
	}
	got := tr.Snapshot(1)[0]
	if got.ID != orphan.ID || !got.Aborted {
		t.Fatalf("flushed orphan = %+v, want ID %d aborted", got, orphan.ID)
	}
}
