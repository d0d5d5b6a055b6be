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
)

// TestRingFIFOAcrossGrowth pins the ring's FIFO contract through several
// buffer doublings and wrap-arounds.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	var r ring
	reqs := make([]*request, 100)
	for i := range reqs {
		reqs[i] = &request{class: Standard}
	}
	next := 0
	// Interleave pushes and pops so head wraps while the buffer grows.
	for i := 0; i < len(reqs); i++ {
		r.push(reqs[i])
		if i%3 == 2 {
			if got := r.pop(); got != reqs[next] {
				t.Fatalf("pop %d returned request %p, want %p", next, got, reqs[next])
			}
			next++
		}
	}
	for ; r.size > 0; next++ {
		if got := r.pop(); got != reqs[next] {
			t.Fatalf("drain pop %d out of order", next)
		}
	}
	if next != len(reqs) {
		t.Fatalf("popped %d requests, want %d", next, len(reqs))
	}
}

// TestWakeupServesClassesInPriorityOrder is the regression test for the
// wakeup-path priority bug: the old blocking select over the three class
// channels picked uniformly at random when several classes were ready at
// wakeup, so a Background request could be served ahead of a Critical one.
// The parkHook holds the only worker at its pre-park re-scan while the test
// stages a three-class backlog; on release, the dequeue must scan classes in
// order — Critical, Standard, Background — even though all three became
// ready while the worker was parked.
func TestWakeupServesClassesInPriorityOrder(t *testing.T) {
	const n = 8
	parked := make(chan struct{})
	release := make(chan struct{})
	parkHook = func() {
		select {
		case parked <- struct{}{}:
			<-release
		default:
			// Later parks (after the staged wakeup) pass through.
		}
	}
	defer func() { parkHook = nil }()

	var mu sync.Mutex
	var order []uint64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		mu.Lock()
		order = append(order, src[0].Data)
		mu.Unlock()
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	<-parked // the worker is registered idle, held before its re-scan
	submit := func(class Class, tag uint64) *Ticket {
		t.Helper()
		src := permWords(perm.Identity(n))
		src[0].Data = tag
		tk, err := e.SubmitClass(context.Background(), class, nil, src)
		if err != nil {
			t.Fatalf("SubmitClass(%v, %d): %v", class, tag, err)
		}
		return tk
	}
	// Stage the backlog lowest class first, so a dequeue that serves in
	// arrival or random order fails loudly.
	tickets := []*Ticket{
		submit(Background, 1), submit(Standard, 2), submit(Critical, 3),
	}
	close(release)
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{3, 2, 1}
	if len(order) != len(want) {
		t.Fatalf("served %d requests, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wakeup serving order %v, want %v (critical > standard > background)", order, want)
		}
	}
}

// TestStealVsDequeueDeterministic interleaves a thief and the victim's own
// worker over one shard with the deterministic scheduler, at the same
// preemption point as the engine's stealYield hook (victim chosen, lock not
// yet taken). In every schedule each request must be dequeued exactly once
// and in class-priority order.
func TestStealVsDequeueDeterministic(t *testing.T) {
	schedules := [][]string{
		{"thief", "victim", "thief"}, // victim empties the shard under the thief
		{"thief", "thief", "victim"}, // thief takes half, victim the rest
		{"victim", "thief", "thief"}, // nothing left to observe or steal
	}
	for _, sched := range schedules {
		s := &shard{}
		reqs := make(map[*request]string)
		for i := 0; i < 3; i++ {
			cr := &request{class: Critical}
			bg := &request{class: Background}
			reqs[cr] = "critical"
			reqs[bg] = "background"
			s.push(bg)
			s.push(cr)
		}
		var victimGot, thiefGot local
		victim := check.GoNamed("victim", func(yield func()) {
			yield()
			s.popBatch(&victimGot, 16)
		})
		thief := check.GoNamed("thief", func(yield func()) {
			if s.total() == 0 {
				return
			}
			yield() // the stealYield point: victim observed, lock not held
			s.stealInto(&thiefGot, 16)
		})
		threads := map[string]*check.Thread{"victim": victim, "thief": thief}
		for _, name := range sched {
			threads[name].Step()
		}
		victim.Finish()
		thief.Finish()

		seen := 0
		for _, l := range []*local{&victimGot, &thiefGot} {
			prev := numClasses
			for {
				c := l.top()
				if c < 0 {
					break
				}
				if c > prev {
					t.Fatalf("schedule %v: dequeued class %d after class %d", sched, c, prev)
				}
				prev = c
				req := l.pop(c)
				if _, ok := reqs[req]; !ok {
					t.Fatalf("schedule %v: request dequeued twice or fabricated", sched)
				}
				delete(reqs, req)
				seen++
			}
		}
		if seen != 6 || len(reqs) != 0 {
			t.Fatalf("schedule %v: %d of 6 requests dequeued exactly once", sched, seen)
		}
		if s.total() != 0 {
			t.Fatalf("schedule %v: shard still holds %d requests", sched, s.total())
		}
	}
}

// TestStealVsDrainDeterministic pins the exit condition against an in-limbo
// submission: a worker evaluating exitNow between a submitter's lifecycle
// registration and its shard push must see pendingSubmits > 0 and stay
// alive, in every interleaving of the two.
func TestStealVsDrainDeterministic(t *testing.T) {
	e := &Engine{}
	e.shards = []*shard{{}}
	e.stopping.Store(true)

	req := &request{class: Standard}
	submitter := check.GoNamed("submitter", func(yield func()) {
		e.pendingSubmits.Add(1) // the lifecycle gate's registration
		yield()
		e.shards[0].push(req) // push strictly before the decrement
		yield()
		e.pendingSubmits.Add(-1)
	})
	worker := check.GoNamed("worker", func(yield func()) {
		yield()
		if e.exitNow() {
			t.Error("worker exited with a registered submission still in limbo")
		}
		yield()
		if e.exitNow() {
			t.Error("worker exited with the pushed request still queued")
		}
	})
	// Interleave: register, check, push, check, decrement.
	submitter.Step()
	worker.Step()
	worker.Step()
	submitter.Step()
	worker.Step()
	submitter.Finish()
	worker.Finish()
	// Only after the request is also dequeued may the worker exit.
	var l local
	e.shards[0].popBatch(&l, 1)
	if !e.exitNow() {
		t.Error("worker refused to exit with no pending submission and empty shards")
	}
}

// TestFullQueueSubmitDoesNotStallDrain is the regression test for the
// enqueue-under-lock bug: a Submit blocked on a full queue used to hold the
// lifecycle read lock across the blocking send, so Drain's write acquisition
// stalled behind it and every later submitter parked behind the writer. The
// sharded enqueue blocks only outside the lock: Drain must flip admission
// while a submitter is still blocked, and every admitted ticket settles.
func TestFullQueueSubmitDoesNotStallDrain(t *testing.T) {
	const n = 8
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		entered <- struct{}{}
		<-gate
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := permWords(perm.Identity(n))
	blocker, err := e.Submit(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is gated mid-route
	queued, err := e.Submit(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	// This submitter fills the queue and blocks waiting for a slot.
	blockedResult := make(chan error, 1)
	go func() {
		tk, err := e.Submit(nil, src)
		if err != nil {
			blockedResult <- err
			return
		}
		_, err = tk.Wait()
		blockedResult <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park on the full queue
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	// Drain must flip admission promptly even though a submitter is still
	// blocked on the full queue; with the old lock-holding enqueue this
	// deadlocked until the gate opened.
	deadline := time.Now().Add(2 * time.Second)
	for e.AdmissionErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Drain did not flip admission while a submitter was blocked on a full queue")
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.AdmissionErr(); !errors.Is(err, neterr.ErrDraining) {
		t.Fatalf("AdmissionErr during drain = %v, want ErrDraining", err)
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if _, err := queued.Wait(); err != nil {
		t.Fatalf("queued: %v", err)
	}
	// The blocked submitter was admitted before the drain began, so its
	// ticket settles cleanly rather than erroring or hanging.
	if err := <-blockedResult; err != nil {
		t.Fatalf("submitter blocked across the drain: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBackgroundCompletesUnderSustainedCriticalLoad bounds background
// starvation: the engine is strictly priority-ordered with no aging, so the
// contract is work conservation — a queued Background request is served in
// the first idle gap the Critical load leaves, not deferred to the end of
// the load. The test keeps submitting closed-loop Critical waves until the
// background request completes and fails if it takes more than maxWaves.
func TestBackgroundCompletesUnderSustainedCriticalLoad(t *testing.T) {
	const n = 8
	var bgDone atomic.Bool
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if src[0].Data == 999 {
			entered <- struct{}{}
			<-gate
		}
		if src[0].Data == 1 {
			bgDone.Store(true)
		}
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	submit := func(class Class, tag uint64) *Ticket {
		t.Helper()
		src := permWords(perm.Identity(n))
		src[0].Data = tag
		tk, err := e.SubmitClass(context.Background(), class, nil, src)
		if err != nil {
			t.Fatalf("SubmitClass(%v, %d): %v", class, tag, err)
		}
		return tk
	}
	blocker := submit(Standard, 999)
	<-entered
	bg := submit(Background, 1)
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	const maxWaves = 50
	waves := 0
	for ; waves < maxWaves && !bgDone.Load(); waves++ {
		c1, c2 := submit(Critical, 100), submit(Critical, 101)
		if _, err := c1.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !bgDone.Load() {
		t.Fatalf("background request starved across %d critical waves", maxWaves)
	}
	if _, err := bg.Wait(); err != nil {
		t.Fatalf("background ticket: %v", err)
	}
	t.Logf("background served after %d critical waves", waves)
}

// TestStealStress drives a multi-worker engine with bulk batches landing on
// single shards, so idle workers must steal to finish; under -race this is
// the steal path's data-race net. The engine must complete every request,
// account every dequeue to a batch or a steal, and actually steal.
func TestStealStress(t *testing.T) {
	const n = 8
	var slow atomic.Int64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		// A tiny occasional stall creates the imbalance stealing fixes.
		if slow.Add(1)%7 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		return deliver(dst, src)
	}}
	for attempt := 0; attempt < 20; attempt++ {
		var m metrics.Metrics
		e, err := New(r, Config{Workers: 4, Queue: 256, Metrics: &m})
		if err != nil {
			t.Fatal(err)
		}
		const rounds, batchLen = 30, 32
		for i := 0; i < rounds; i++ {
			batch := make([][]core.Word, batchLen)
			for j := range batch {
				batch[j] = permWords(perm.Identity(n))
			}
			_, errs := e.RouteBatch(batch)
			for j, err := range errs {
				if err != nil {
					t.Fatalf("round %d request %d: %v", i, j, err)
				}
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		if snap.Routes != rounds*batchLen {
			t.Fatalf("routes = %d, want %d", snap.Routes, rounds*batchLen)
		}
		if got := snap.BatchedRequests + snap.StolenRequests; got != snap.Routes {
			t.Fatalf("batched (%d) + stolen (%d) = %d requests dequeued, want %d",
				snap.BatchedRequests, snap.StolenRequests, got, snap.Routes)
		}
		if snap.Steals > 0 {
			t.Logf("attempt %d: steals=%d stolen=%d batches=%d mean_batch=%.1f parks=%d",
				attempt, snap.Steals, snap.StolenRequests, snap.BatchDequeues, snap.MeanBatch(), snap.WorkerParks)
			return
		}
	}
	t.Fatal("no steal observed across 20 stress attempts; the steal path never ran")
}

// TestBatchDequeueAmortization pins the wakeup amortization accounting: a
// backlog staged behind a gated worker is taken in one batch, so the batch
// counters show multiple requests per dequeue.
func TestBatchDequeueAmortization(t *testing.T) {
	const n = 8
	var m metrics.Metrics
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if src[0].Data == 999 {
			entered <- struct{}{}
			<-gate
		}
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1, Queue: 16, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	src := permWords(perm.Identity(n))
	src[0].Data = 999
	blocker, err := e.Submit(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	tickets := make([]*Ticket, 6)
	for i := range tickets {
		if tickets[i], err = e.Submit(nil, permWords(perm.Identity(n))); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	snap := m.Snapshot()
	if snap.BatchedRequests != 7 || snap.StolenRequests != 0 {
		t.Fatalf("batched = %d stolen = %d, want 7 and 0 on one worker", snap.BatchedRequests, snap.StolenRequests)
	}
	// The blocker was its own batch; the staged 6 arrived while the worker
	// was gated, so they take at most two further dequeues (batch cap 8,
	// minus a possible partial pickup racing the staging loop).
	if snap.BatchDequeues > 4 {
		t.Fatalf("batch dequeues = %d for 7 requests, want the backlog amortized into few batches", snap.BatchDequeues)
	}
	if snap.MeanBatch() < 1.5 {
		t.Fatalf("mean batch = %.2f, want > 1.5 (no amortization happened)", snap.MeanBatch())
	}
}
