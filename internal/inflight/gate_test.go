package inflight

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitResult runs Wait on its own goroutine and returns the channel its
// result arrives on.
func waitResult(g *Gate, ctx context.Context) <-chan error {
	done := make(chan error, 1)
	go func() { done <- g.Wait(ctx) }()
	return done
}

func TestGateWaitEmptyReturnsAtOnce(t *testing.T) {
	var g Gate
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait on an empty gate: %v", err)
	}
	g.Enter()
	g.Exit()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Wait(ctx); err != nil {
		t.Fatalf("Wait on an emptied gate with a done context: %v", err)
	}
}

func TestGateWaitBlocksUntilLastExit(t *testing.T) {
	var g Gate
	g.Enter()
	g.Enter()
	done := waitResult(&g, context.Background())
	g.Exit()
	select {
	case err := <-done:
		t.Fatalf("Wait returned (%v) with one call still inside", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got := g.Count(); got != 1 {
		t.Fatalf("Count = %d with a drain parked, want 1", got)
	}
	g.Exit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait after the last Exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after the last Exit")
	}
	if got := g.Count(); got != 0 {
		t.Fatalf("Count = %d after the drain, want 0", got)
	}
}

func TestGateWaitExpiryLeavesGateUsable(t *testing.T) {
	var g Gate
	g.Enter()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait past its deadline: err = %v, want DeadlineExceeded", err)
	}
	if got := g.Count(); got != 1 {
		t.Fatalf("Count = %d after an expired Wait, want 1", got)
	}
	done := waitResult(&g, context.Background())
	g.Exit()
	if err := <-done; err != nil {
		t.Fatalf("second Wait: %v", err)
	}
	// The expired drain's wake-up is spent; the gate counts and drains as
	// new.
	g.Enter()
	done = waitResult(&g, context.Background())
	select {
	case err := <-done:
		t.Fatalf("Wait returned (%v) with a call inside", err)
	case <-time.After(10 * time.Millisecond):
	}
	g.Exit()
	if err := <-done; err != nil {
		t.Fatalf("third Wait: %v", err)
	}
}

// TestGateStress runs Enter/Exit goroutines against repeated Waits; under
// -race it pins that a Wait never returns while a call it must wait for is
// still inside, and never misses the last Exit. The callers leave between
// calls, as routes that see a closed section do, so the count keeps
// touching zero.
func TestGateStress(t *testing.T) {
	var g Gate
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				g.Enter()
				g.Exit()
				runtime.Gosched()
			}
		}()
	}
	var inside atomic.Bool
	for i := 0; i < 500; i++ {
		inside.Store(true)
		g.Enter()
		done := make(chan bool, 1)
		go func() {
			err := g.Wait(context.Background())
			done <- err == nil && !inside.Load()
		}()
		if i%2 == 0 {
			runtime.Gosched() // let the drain park before the Exit
		}
		inside.Store(false)
		g.Exit()
		select {
		case ok := <-done:
			if !ok {
				t.Fatalf("wait %d returned while its call was inside", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("wait %d missed the last Exit (count %d)", i, g.Count())
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := g.Count(); got != 0 {
		t.Fatalf("Count = %d after the stress, want 0", got)
	}
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("final Wait: %v", err)
	}
}

// TestGateAllocs pins the routing side of the gate at zero allocations.
func TestGateAllocs(t *testing.T) {
	var g Gate
	if got := testing.AllocsPerRun(1000, func() {
		g.Enter()
		g.Exit()
	}); got != 0 {
		t.Fatalf("Enter+Exit allocate %v times per call, want 0", got)
	}
}
