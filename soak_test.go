package bnbnet

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// Soak tests exercise the large-N paths (allocation strategy, index
// arithmetic at depth, recursion) that the fast suites never reach. They
// are skipped under -short.

func TestSoakBNBLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(4096))
	net, err := NewBNB(12, 32) // N = 4096
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		p := RandomPerm(net.Inputs(), rng)
		words := make([]Word, net.Inputs())
		for i, d := range p {
			words[i] = Word{Addr: d, Data: rng.Uint64() & (1<<32 - 1)}
		}
		out, err := net.Route(words)
		if err != nil {
			t.Fatal(err)
		}
		for j, wd := range out {
			if wd.Addr != j {
				t.Fatalf("misrouted at N=4096, output %d", j)
			}
		}
		// The wire-map replay of the compiled plan agrees at scale.
		pl, err := net.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		replayed := make([]Word, net.Inputs())
		if err := net.Replay(pl, replayed, words); err != nil {
			t.Fatal(err)
		}
		for j := range out {
			if out[j] != replayed[j] {
				t.Fatalf("replay disagreement at output %d", j)
			}
		}
	}
}

func TestSoakAllNetworksN1024(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(1024))
	for _, n := range allNetworks(t, 10, 8) {
		p := RandomPerm(n.Inputs(), rng)
		out, err := n.RoutePerm(p)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		for j, wd := range out {
			if wd.Addr != j {
				t.Fatalf("%s misrouted at N=1024", n.Name())
			}
		}
	}
}

func TestSoakCircuitLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rng := rand.New(rand.NewSource(7))
	net, err := NewBNB(11, 64) // N = 2048
	if err != nil {
		t.Fatal(err)
	}
	p := RandomPerm(net.Inputs(), rng)
	circuit, err := net.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]Word, net.Inputs())
	for i, d := range p {
		words[i] = Word{Addr: d, Data: rng.Uint64()}
	}
	out := make([]Word, net.Inputs())
	if err := net.Replay(circuit, out, words); err != nil {
		t.Fatal(err)
	}
	for i, d := range p {
		if out[d] != words[i] {
			t.Fatalf("circuit replay failed at input %d", i)
		}
	}
}

// TestSoakReconfigLifecycleLeakFree hammers the runtime-membership surface —
// 100 add/remove iterations with a full Reconfigure rollout every tenth —
// with live traffic mixed in, then drains and closes, and requires the
// goroutine count to return to baseline: no leaked drain waiter, no leaked
// probe loop, no straggler from any of the hundred churned planes.
func TestSoakReconfigLifecycleLeakFree(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()
	s, err := NewSupervised("bnb", 3, WithPlanes(2), WithWorkers(2), WithHealthInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rng := rand.New(rand.NewSource(100))
	n := s.Inputs()
	for i := 0; i < 100; i++ {
		id, err := s.AddPlane(ctx)
		if err != nil {
			t.Fatalf("iteration %d: AddPlane: %v", i, err)
		}
		if _, errs := s.RoutePermBatch([]Perm{RandomPerm(n, rng)}); errs[0] != nil {
			t.Fatalf("iteration %d: request on the grown set: %v", i, errs[0])
		}
		if err := s.RemovePlane(ctx, id); err != nil {
			t.Fatalf("iteration %d: RemovePlane(%d): %v", i, id, err)
		}
		if i%10 == 9 {
			if err := s.Reconfigure(ctx, ReconfigWarmPlans(4)); err != nil {
				t.Fatalf("iteration %d: Reconfigure: %v", i, err)
			}
		}
	}
	if got := s.Planes(); got != 2 {
		t.Errorf("Planes after the churn = %d, want 2", got)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked across 100 membership iterations: baseline %d, now %d\n%s",
			baseline, got, buf[:runtime.Stack(buf, true)])
	}
}

func TestSoakFabricLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	net, err := NewBNB(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewFabric(net, WithVOQ())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sw.Run(UniformTraffic{Load: 0.95}, 10000, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered+stats.Backlog != stats.Offered {
		t.Error("conservation violated over a long run")
	}
	if tp := stats.Throughput(64); tp < 0.85 {
		t.Errorf("long-run VOQ throughput %v below 0.85 at load 0.95", tp)
	}
}
