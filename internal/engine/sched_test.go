package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/neterr"
)

func newShedEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(newBNB(t, 3, 0), Config{Workers: 1, Shed: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestEWMADeterministicInterleaving pins the race the CompareAndSwap loop in
// observeServe fixes, on an explicit schedule instead of under -race luck:
// observer A reads the EWMA, is preempted at the hook, observer B reads the
// same value and publishes its sample, then A resumes. The pre-fix
// load/store update published A's stale fold over B's — B's sample was
// silently dropped and the estimate read 900ns; the CAS loop makes A's swap
// fail and refold against B's published value, landing on 1075ns with both
// samples accounted for.
func TestEWMADeterministicInterleaving(t *testing.T) {
	e := newShedEngine(t)
	ewmaYield = check.Yield
	defer func() { ewmaYield = nil }()

	// Seed the estimate outside any schedule: 800ns.
	e.observeServe(800 * time.Nanosecond)
	if got := e.ewmaServe.Load(); got != 800 {
		t.Fatalf("seed: ewma = %d, want 800", got)
	}

	a := check.GoNamed("observer-a", func(func()) { e.observeServe(1600 * time.Nanosecond) })
	b := check.GoNamed("observer-b", func(func()) { e.observeServe(2400 * time.Nanosecond) })

	a.Step()   // A folds 800 -> 900 but parks before publishing
	b.Step()   // B folds 800 -> 1000, parks at the hook
	b.Finish() // B publishes: ewma = 1000
	if got := e.ewmaServe.Load(); got != 1000 {
		t.Fatalf("after B: ewma = %d, want 1000", got)
	}
	a.Step()   // A's CAS(800, 900) fails; it refolds 1000 -> 1075 and parks
	a.Finish() // A publishes the refold
	if got := e.ewmaServe.Load(); got != 1075 {
		t.Fatalf("after A: ewma = %d, want 1075 (both samples folded); 900 means A overwrote B's sample", got)
	}
}

// TestEWMAConcurrentObserversStayInBounds hammers the estimator from many
// goroutines: every published value is a convex combination of observed
// samples, so the estimate must always land inside the sample range.
func TestEWMAConcurrentObserversStayInBounds(t *testing.T) {
	e := newShedEngine(t)
	const (
		workers = 8
		rounds  = 2000
		lo      = int64(1000)
		hi      = int64(9000)
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Alternate the extremes so both bounds stay live.
				d := lo
				if (w+r)%2 == 0 {
					d = hi
				}
				e.observeServe(time.Duration(d))
			}
		}(w)
	}
	wg.Wait()
	got := e.ewmaServe.Load()
	if got < lo || got > hi {
		t.Fatalf("ewma = %d, outside the observed sample range [%d, %d]", got, lo, hi)
	}
}

// TestAdmitOverflowSaturates pins the shedding estimate against int64
// overflow: a queue depth huge enough that depth x EWMA wraps must shed the
// request, not wrap to a negative estimate that admits everything.
func TestAdmitOverflowSaturates(t *testing.T) {
	e := newShedEngine(t)
	// 2^44 queue slots x 2^20ns EWMA = 2^64: the pre-fix multiplication
	// wrapped to an estimate of exactly 0ns and admitted the request.
	e.ewmaServe.Store(1 << 20)
	e.classInflight[Standard].Store((1 << 44) - 1)
	defer e.classInflight[Standard].Store(0)
	err := e.admit(context.Background(), time.Now(), time.Now().Add(time.Second), Standard)
	if !errors.Is(err, neterr.ErrOverloaded) {
		t.Fatalf("overflowing estimate admitted the request: err = %v, want ErrOverloaded", err)
	}
	// A sane depth with the same EWMA still admits under a loose deadline.
	e.classInflight[Standard].Store(2)
	if err := e.admit(context.Background(), time.Now(), time.Now().Add(time.Minute), Standard); err != nil {
		t.Fatalf("sane depth rejected: %v", err)
	}
}
