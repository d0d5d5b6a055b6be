package trace

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestNilTracer pins the disabled contract: a nil *Tracer and the nil *Span
// it hands out must accept every call without panicking or recording.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(KindRequest, time.Now(), 32)
	if sp != nil {
		t.Fatalf("nil tracer Start returned non-nil span")
	}
	sp.Dequeued(time.Now())
	sp.AddAttempt()
	sp.AddFailover()
	sp.SetPlane(3)
	sp.MarkShed()
	tr.Finish(sp, errors.New("boom"))
	tr.Flush()
	if got := tr.Snapshot(0); got != nil {
		t.Fatalf("nil tracer Snapshot = %v, want nil", got)
	}
	if got := tr.Slowest(); got != nil {
		t.Fatalf("nil tracer Slowest = %v, want nil", got)
	}
	if tr.Capacity() != 0 || tr.Started() != 0 || tr.Published() != 0 {
		t.Fatalf("nil tracer counters not zero")
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1024}, {-5, 1024}, {1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {1000, 1024},
	} {
		tr := New(Config{Capacity: tc.in})
		if got := tr.Capacity(); got != tc.want {
			t.Errorf("Capacity(%d) rounded to %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestRingWraparound publishes far more spans than the ring holds and checks
// Snapshot returns exactly the newest capacity spans, newest first.
func TestRingWraparound(t *testing.T) {
	tr := New(Config{Capacity: 8, SlowThreshold: time.Hour})
	const total = 20
	for i := 0; i < total; i++ {
		sp := tr.Start(KindRequest, time.Now(), 8)
		tr.Finish(sp, nil)
	}
	if got := tr.Published(); got != total {
		t.Fatalf("Published = %d, want %d", got, total)
	}
	snap := tr.Snapshot(0)
	if len(snap) != 8 {
		t.Fatalf("Snapshot len = %d, want 8 (ring capacity)", len(snap))
	}
	// Single-writer: completion order equals ID order, so the snapshot must
	// be IDs 20,19,...,13.
	for i, sp := range snap {
		want := uint64(total - i)
		if sp.ID != want {
			t.Fatalf("snap[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
	// A bounded Snapshot trims from the newest end.
	short := tr.Snapshot(3)
	if len(short) != 3 || short[0].ID != total || short[2].ID != total-2 {
		t.Fatalf("Snapshot(3) = %+v, want IDs 20,19,18", short)
	}
}

// TestConcurrentWriters hammers the ring from many goroutines under -race:
// every span must publish exactly once and every snapshot slot must hold a
// fully formed span.
func TestConcurrentWriters(t *testing.T) {
	tr := New(Config{Capacity: 64, SlowThreshold: time.Hour})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := tr.Start(KindRequest, time.Now(), 8)
				sp.Dequeued(time.Now())
				sp.AddAttempt()
				sp.SetPlane(0)
				tr.Finish(sp, nil)
			}
		}()
	}
	// Concurrent readers must observe only complete spans.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, sp := range tr.Snapshot(0) {
				if sp.ID == 0 || sp.Kind != KindRequest {
					panic("snapshot observed a half-built span")
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Published(); got != writers*perWriter {
		t.Fatalf("Published = %d, want %d", got, writers*perWriter)
	}
	if got := tr.Started(); got != writers*perWriter {
		t.Fatalf("Started = %d, want %d", got, writers*perWriter)
	}
	snap := tr.Snapshot(0)
	if len(snap) != 64 {
		t.Fatalf("Snapshot len = %d, want full ring 64", len(snap))
	}
	seen := make(map[uint64]bool)
	for _, sp := range snap {
		if seen[sp.ID] {
			t.Fatalf("span %d published twice", sp.ID)
		}
		seen[sp.ID] = true
	}
}

// TestFlush pins the Close-path contract: open spans are published as
// aborted in admission order, a finished span is not flushed again, and a
// Finish racing a completed Flush is a no-op.
func TestFlush(t *testing.T) {
	tr := New(Config{Capacity: 16, SlowThreshold: time.Hour})
	a := tr.Start(KindRequest, time.Now(), 8)
	b := tr.Start(KindRequest, time.Now(), 8)
	c := tr.Start(KindProbe, time.Now(), 8)
	tr.Finish(b, errors.New("boom"))
	tr.Flush()
	if got := tr.Published(); got != 3 {
		t.Fatalf("Published after flush = %d, want 3", got)
	}
	snap := tr.Snapshot(0)
	// Completion order: b finished first, then flush publishes a, c by ID.
	wantIDs := []uint64{c.ID, a.ID, b.ID}
	for i, want := range wantIDs {
		if snap[i].ID != want {
			t.Fatalf("snap[%d].ID = %d, want %d", i, snap[i].ID, want)
		}
	}
	if snap[2].Aborted {
		t.Fatalf("finished span b marked aborted")
	}
	if snap[2].Err != "boom" {
		t.Fatalf("span b Err = %q, want boom", snap[2].Err)
	}
	if !snap[0].Aborted || !snap[1].Aborted {
		t.Fatalf("flushed spans not marked aborted: %+v %+v", snap[0], snap[1])
	}
	// Finish after Flush must not double-publish.
	tr.Finish(a, nil)
	if got := tr.Published(); got != 3 {
		t.Fatalf("Finish after Flush published again: %d", got)
	}
	// Flush is idempotent.
	tr.Flush()
	if got := tr.Published(); got != 3 {
		t.Fatalf("second Flush published: %d", got)
	}
}

// TestFlushFinishRace lets Close-path flushes race worker finishes: each
// span must be published exactly once whichever side wins.
func TestFlushFinishRace(t *testing.T) {
	tr := New(Config{Capacity: 256, SlowThreshold: time.Hour})
	const n = 200
	spans := make([]*Span, n)
	for i := range spans {
		spans[i] = tr.Start(KindRequest, time.Now(), 8)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, sp := range spans {
			tr.Finish(sp, nil)
		}
	}()
	go func() {
		defer wg.Done()
		tr.Flush()
	}()
	wg.Wait()
	if got := tr.Published(); got != n {
		t.Fatalf("Published = %d, want exactly %d", got, n)
	}
	seen := make(map[uint64]bool)
	for _, sp := range tr.Snapshot(0) {
		if seen[sp.ID] {
			t.Fatalf("span %d published twice", sp.ID)
		}
		seen[sp.ID] = true
	}
}

// TestSlowExemplars checks the slowest spans above the threshold are kept,
// bounded, and returned slowest-first.
func TestSlowExemplars(t *testing.T) {
	tr := New(Config{Capacity: 16, SlowThreshold: 10 * time.Millisecond, Exemplars: 2})
	now := time.Now()
	// Backdated starts make Total land above/below the threshold exactly.
	for _, age := range []time.Duration{time.Millisecond, 50 * time.Millisecond, 30 * time.Millisecond, 80 * time.Millisecond} {
		sp := tr.Start(KindRequest, now.Add(-age), 8)
		tr.Finish(sp, nil)
	}
	slow := tr.Slowest()
	if len(slow) != 2 {
		t.Fatalf("Slowest len = %d, want 2 (bounded)", len(slow))
	}
	if slow[0].Total < slow[1].Total {
		t.Fatalf("Slowest not sorted slowest-first: %v < %v", slow[0].Total, slow[1].Total)
	}
	// The 80ms span must be the slowest kept.
	if slow[0].Total < 70*time.Millisecond {
		t.Fatalf("slowest exemplar Total = %v, want the ~80ms span", slow[0].Total)
	}
}

// TestTimings checks queue wait / service / total arithmetic and clamping.
func TestTimings(t *testing.T) {
	tr := New(Config{Capacity: 4, SlowThreshold: time.Hour})
	start := time.Now().Add(-20 * time.Millisecond)
	sp := tr.Start(KindRequest, start, 8)
	sp.Dequeued(start.Add(5 * time.Millisecond))
	tr.Finish(sp, nil)
	got := tr.Snapshot(1)[0]
	if got.QueueWait != 5*time.Millisecond {
		t.Fatalf("QueueWait = %v, want 5ms", got.QueueWait)
	}
	if got.Total < 20*time.Millisecond {
		t.Fatalf("Total = %v, want >= 20ms", got.Total)
	}
	if got.Service != got.Total-got.QueueWait {
		t.Fatalf("Service = %v, want Total-QueueWait = %v", got.Service, got.Total-got.QueueWait)
	}
	// A bogus future queue-wait clamps service at zero rather than negative.
	sp2 := tr.Start(KindRequest, time.Now(), 8)
	sp2.Dequeued(time.Now().Add(time.Hour))
	tr.Finish(sp2, nil)
	if got := tr.Snapshot(1)[0]; got.Service < 0 || got.Total < 0 {
		t.Fatalf("negative timing survived clamping: %+v", got)
	}
}
