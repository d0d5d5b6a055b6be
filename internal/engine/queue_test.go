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
// The lockHook holds the only worker just before it takes the queue lock
// while the test stages a three-class backlog; on release, the dequeue must
// scan classes in order — Critical, Standard, Background — even though all
// three became ready while the worker was held.
func TestWakeupServesClassesInPriorityOrder(t *testing.T) {
	const n = 8
	parked := make(chan struct{})
	release := make(chan struct{})
	// The first hook call holds the worker until the backlog is staged;
	// later calls (after the staged wakeup) pass through.
	var hold sync.Once
	lockHook = func() {
		hold.Do(func() {
			parked <- struct{}{}
			<-release
		})
	}
	defer func() { lockHook = nil }()

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

	<-parked // the worker is held before it takes the queue lock
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

// TestExitWaitsForArrivingSubmitDeterministic pins the workers' exit
// condition against a submission in flight, on an explicit schedule: a
// worker that checks it between a submitter's lifecycle gate and its push
// must not exit, nor while the pushed request is still queued, and it exits
// once that request has been dequeued.
func TestExitWaitsForArrivingSubmitDeterministic(t *testing.T) {
	e := &Engine{workers: 1}
	e.wake.L = &e.mu
	for c := range e.space {
		e.space[c] = make(chan struct{}, 1)
	}
	exitable := func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.exitable()
	}
	req := &request{class: Standard}
	submitter := check.GoNamed("submitter", func(yield func()) {
		if err := e.gate(1); err != nil {
			t.Errorf("gate refused a running engine: %v", err)
		}
		yield()
		e.push([]*request{req})
	})
	worker := check.GoNamed("worker", func(yield func()) {
		yield()
		if exitable() {
			t.Error("worker may exit with an admitted submission not yet queued")
		}
		yield()
		if exitable() {
			t.Error("worker may exit with the pushed request still queued")
		}
	})
	submitter.Step() // through the gate, parked before its push
	e.mu.Lock()
	e.state = stateDraining // Drain begins
	e.mu.Unlock()
	worker.Step()
	worker.Step() // checks between the gate and the push
	submitter.Step()
	worker.Step() // checks with the request queued
	submitter.Finish()
	worker.Finish()
	if got := e.next(); got != req {
		t.Fatalf("next dequeued %p, want the pushed request %p", got, req)
	}
	if !exitable() {
		t.Fatal("worker may not exit with admission over, nothing arriving and an empty queue")
	}
	if got := e.next(); got != nil {
		t.Fatalf("next dequeued %p from an empty, stopped queue", got)
	}
}

// TestFullQueueSubmitDoesNotStallDrain is the regression test for the
// enqueue-under-lock bug: a Submit blocked on a full queue used to hold the
// lifecycle read lock across the blocking send, so Drain's write acquisition
// stalled behind it and every later submitter parked behind the writer. The
// enqueue blocks only outside the lock: Drain must flip admission
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

// TestQueueStress drives a multi-worker engine with RouteBatch and closed-
// loop SubmitClass traffic of all three classes at once; under -race this is
// the queue's data-race net. Every request must complete, and each served
// request is one dequeue of its own, with nothing stolen.
func TestQueueStress(t *testing.T) {
	const n = 8
	var slow atomic.Int64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		// An occasional stall lets a backlog build behind busy workers.
		if slow.Add(1)%7 == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, err := New(r, Config{Workers: 4, Queue: 16, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, batchLen, window = 30, 32, 4
	var wg sync.WaitGroup
	wg.Add(1 + numClasses)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			batch := make([][]core.Word, batchLen)
			for j := range batch {
				batch[j] = permWords(perm.Identity(n))
			}
			_, errs := e.RouteBatch(batch)
			for j, err := range errs {
				if err != nil {
					t.Errorf("batch %d request %d: %v", i, j, err)
					return
				}
			}
		}
	}()
	for c := Background; c <= Critical; c++ {
		go func(class Class) {
			defer wg.Done()
			// window outstanding requests per class stays below Queue, so
			// even Background is never shed.
			tickets := make([]*Ticket, window)
			for i := 0; i < rounds; i++ {
				for k := range tickets {
					tk, err := e.SubmitClass(context.Background(), class, nil, permWords(perm.Identity(n)))
					if err != nil {
						t.Errorf("%v round %d: %v", class, i, err)
						return
					}
					tickets[k] = tk
				}
				for _, tk := range tickets {
					if _, err := tk.Wait(); err != nil {
						t.Errorf("%v round %d: %v", class, i, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if want := int64(rounds * (batchLen + numClasses*window)); snap.Routes != want {
		t.Fatalf("routes = %d, want %d", snap.Routes, want)
	}
	if snap.BatchDequeues != snap.Routes || snap.BatchedRequests != snap.Routes {
		t.Fatalf("batch dequeues = %d carrying %d requests, want one dequeue per route (%d)",
			snap.BatchDequeues, snap.BatchedRequests, snap.Routes)
	}
	if snap.Steals != 0 || snap.StolenRequests != 0 {
		t.Fatalf("steals = %d stolen = %d, want 0 with one queue", snap.Steals, snap.StolenRequests)
	}
}
