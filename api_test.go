package bnbnet

// Tests for the serving-layer API surface: the constructor registry and its
// functional options, the sentinel-error contract, the pooled
// zero-allocation hot path, and the concurrent engine cross-checked against
// serial routing under the race detector.

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/plane"
)

// TestRegistryFamilies: every built-in family constructs through New and
// routes a random permutation correctly.
func TestRegistryFamilies(t *testing.T) {
	want := []string{"batcher", "benes", "bitonic", "bnb", "crossbar", "koppelman", "waksman"}
	fams := Families()
	for _, f := range want {
		found := false
		for _, g := range fams {
			if g == f {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("Families() = %v, missing %q", fams, f)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, f := range want {
		t.Run(f, func(t *testing.T) {
			n, err := New(f, 4)
			if err != nil {
				t.Fatal(err)
			}
			if n.Name() != f {
				t.Errorf("Name() = %q, want %q", n.Name(), f)
			}
			if n.Inputs() != 16 {
				t.Errorf("Inputs() = %d, want 16", n.Inputs())
			}
			out, err := n.RoutePerm(RandomPerm(16, rng))
			if err != nil {
				t.Fatal(err)
			}
			for j, wd := range out {
				if wd.Addr != j {
					t.Fatalf("output %d carries address %d", j, wd.Addr)
				}
			}
		})
	}
}

// TestRegistryErrors: unknown families and inapplicable options fail loudly.
func TestRegistryErrors(t *testing.T) {
	if _, err := New("hypercube", 4); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := New("benes", 4, WithDataBits(8)); err == nil {
		t.Error("WithDataBits accepted by a family that does not model it")
	}
	if _, err := New("bnb", 4, WithWorkers(2)); err == nil {
		t.Error("WithWorkers accepted by New")
	}
	if _, err := New("waksman", 4, WithTrace(func(int, []Word) {})); err == nil {
		t.Error("WithTrace accepted by a family without traced routing")
	}
	if _, err := New("bnb", 4, WithQueue(8)); err == nil {
		t.Error("WithQueue accepted by New")
	}
	if _, err := New("bnb", 4, WithBatch(8)); err == nil {
		t.Error("WithBatch accepted by New")
	}
	if _, err := NewEngine(mustNetwork(t, "bnb", 3), WithBatch(-1)); err == nil {
		t.Error("negative WithBatch accepted by NewEngine")
	}
	if _, err := NewEngine(mustNetwork(t, "bnb", 3), WithDataBits(8)); err == nil {
		t.Error("WithDataBits accepted by NewEngine")
	}
	if _, err := NewEngine(mustNetwork(t, "bnb", 3), WithTrace(func(int, []Word) {})); err == nil {
		t.Error("WithTrace accepted by NewEngine")
	}
}

func mustNetwork(t *testing.T, family string, m int, opts ...Option) Network {
	t.Helper()
	n, err := New(family, m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRegister: custom families plug into New; duplicates and junk are
// rejected.
func TestRegister(t *testing.T) {
	if err := Register("", nil); err == nil {
		t.Error("empty family registered")
	}
	if err := Register("custom-mirror", nil); err == nil {
		t.Error("nil builder registered")
	}
	if err := Register("custom-mirror", func(m, w int) (Network, error) {
		return New("bnb", m, WithDataBits(w))
	}); err != nil {
		t.Fatal(err)
	}
	if err := Register("custom-mirror", func(m, w int) (Network, error) {
		return nil, nil
	}); err == nil {
		t.Error("duplicate family registered")
	}
	n, err := New("custom-mirror", 3, WithDataBits(4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := n.RoutePerm(Perm{7, 6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for j, wd := range out {
		if wd.Addr != j {
			t.Fatalf("output %d carries address %d", j, wd.Addr)
		}
	}
}

// TestInstrumentedOptions: the decorator New returns under options routes
// identically, reports into the metrics sink, traces stage snapshots, and
// unwraps to the bare network.
func TestInstrumentedOptions(t *testing.T) {
	m := NewMetrics()
	var stages []int
	n := mustNetwork(t, "bnb", 4,
		WithDataBits(8),
		WithTrace(func(stage int, snapshot []Word) {
			stages = append(stages, stage)
			if len(snapshot) != 16 {
				t.Errorf("snapshot %d has %d words", stage, len(snapshot))
			}
		}),
		WithMetrics(m),
	)
	plain := mustNetwork(t, "bnb", 4, WithDataBits(8))
	rng := rand.New(rand.NewSource(5))
	p := RandomPerm(16, rng)
	got, err := n.RoutePerm(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RoutePerm(p)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("output %d: decorated %v, plain %v", j, got[j], want[j])
		}
	}
	// m+1 = 5 snapshots, in order.
	if len(stages) != 5 {
		t.Fatalf("trace saw %d snapshots, want 5", len(stages))
	}
	for i, s := range stages {
		if s != i {
			t.Fatalf("trace stages = %v, want 0..4 in order", stages)
		}
	}
	s := m.Snapshot()
	if s.Routes != 1 || s.WordsSwitched != 16 {
		t.Errorf("metrics snapshot = %+v, want 1 route of 16 words", s)
	}
	u, ok := n.(interface{ Unwrap() Network })
	if !ok {
		t.Fatal("decorated network does not expose Unwrap")
	}
	if _, ok := u.Unwrap().(*BNB); !ok {
		t.Errorf("Unwrap() = %T, want *BNB", u.Unwrap())
	}
	// An erroring route counts as an error, not a route.
	if _, err := n.Route(make([]Word, 3)); err == nil {
		t.Fatal("short route accepted")
	}
	if s := m.Snapshot(); s.Errors != 1 || s.Routes != 1 {
		t.Errorf("after failed route: %+v, want 1 route + 1 error", s)
	}
}

// TestSentinelErrors: the public API classifies every failure mode with
// errors.Is against the package sentinels, across constructors, direct
// routing, the pooled path, and the engine.
func TestSentinelErrors(t *testing.T) {
	b, err := NewBNB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Route(make([]Word, 3)); !errors.Is(err, ErrBadSize) {
		t.Errorf("short Route error = %v, want ErrBadSize", err)
	}
	dup := make([]Word, 8)
	for i := range dup {
		dup[i].Addr = i
	}
	dup[3].Addr = 4
	if _, err := b.Route(dup); !errors.Is(err, ErrNotPermutation) {
		t.Errorf("duplicate Route error = %v, want ErrNotPermutation", err)
	}
	if err := b.RouteInto(make([]Word, 8), make([]Word, 5)); !errors.Is(err, ErrBadSize) {
		t.Errorf("short RouteInto error = %v, want ErrBadSize", err)
	}
	if _, err := CompletePerm([]int{0, 0, -1, -1}); !errors.Is(err, ErrNotPermutation) {
		t.Errorf("CompletePerm error = %v, want ErrNotPermutation", err)
	}
	e, err := NewEngine(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(nil, make([]Word, 2)); !errors.Is(err, ErrBadSize) {
		t.Errorf("short Submit error = %v, want ErrBadSize", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(nil, make([]Word, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := e.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// TestRouteAllocs pins the tentpole's zero-allocation guarantee: after one
// warm-up populates the scratch pool, RouteInto at m=10 (N=1024) performs
// zero heap allocations per call. Run alone with
// `go test -run=TestRouteAllocs`.
func TestRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	b, err := NewBNB(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Inputs()
	rng := rand.New(rand.NewSource(42))
	src := make([]Word, n)
	for i, d := range RandomPerm(n, rng) {
		src[i] = Word{Addr: d, Data: uint64(i)}
	}
	dst := make([]Word, n)
	if err := b.RouteInto(dst, src); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.RouteInto(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RouteInto allocates %.1f objects per call, want 0", allocs)
	}
	for j, wd := range dst {
		if wd.Addr != j {
			t.Fatalf("output %d carries address %d", j, wd.Addr)
		}
	}

	// The supervised traced path inherits the guarantee when tracing is
	// disabled: RouteIntoTraced with a nil span — exactly what the engine
	// passes when no tracer is configured — adds zero allocations on top of
	// the plane's RouteInto.
	b2, err := NewBNB(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := plane.New(plane.Config{
		Planes:         []plane.Router{b, b2},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	if err := sup.RouteIntoTraced(dst, src, nil); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := sup.RouteIntoTraced(dst, src, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("supervised RouteIntoTraced with tracing disabled allocates %.1f objects per call, want 0", allocs)
	}

	// Replay inherits the guarantee: wire-following over a compiled plan
	// performs zero heap allocations, both into a distinct buffer and in
	// place (the aliasing path borrows the warmed scratch pool).
	p := make(Perm, n)
	for i, wd := range src {
		p[i] = wd.Addr
	}
	pl, err := b.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := b.Replay(pl, dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Replay allocates %.1f objects per call, want 0", allocs)
	}
	inPlace := make([]Word, n)
	copy(inPlace, src)
	if err := b.Replay(pl, inPlace, inPlace); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		copy(inPlace, src)
		if err := b.Replay(pl, inPlace, inPlace); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("in-place Replay allocates %.1f objects per call, want 0", allocs)
	}
}

// TestConcurrentEngineStress hammers one shared *BNB and one Engine from
// many goroutines and cross-checks every result against serial Route. Under
// `go test -race` this is the data-race proof for the pooled hot path and
// the worker pool.
func TestConcurrentEngineStress(t *testing.T) {
	const m, producers = 6, 8
	per := 40
	if testing.Short() {
		per = 10
	}
	b, err := NewBNB(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewMetrics()
	e, err := NewEngine(b, WithWorkers(4), WithQueue(8), WithMetrics(sink))
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", e.Workers())
	}
	n := b.Inputs()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dst := make([]Word, n)
			for i := 0; i < per; i++ {
				p := RandomPerm(n, rng)
				src := make([]Word, n)
				for j, d := range p {
					src[j] = Word{Addr: d, Data: uint64(j)}
				}
				want, err := b.Route(src) // serial reference on the shared network
				if err != nil {
					t.Error(err)
					return
				}
				var got []Word
				if i%2 == 0 {
					// Direct pooled path on the shared network.
					if err := b.RouteInto(dst, src); err != nil {
						t.Error(err)
						return
					}
					got = dst
				} else {
					// Through the shared engine.
					tk, err := e.Submit(nil, src)
					if err != nil {
						t.Error(err)
						return
					}
					if got, err = tk.Wait(); err != nil {
						t.Error(err)
						return
					}
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("seed %d trial %d output %d: concurrent %v, serial %v",
							seed, i, j, got[j], want[j])
						return
					}
				}
			}
		}(int64(pr))
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	s := sink.Snapshot()
	wantRoutes := int64(producers * per / 2)
	if s.Routes != wantRoutes {
		t.Errorf("engine metrics: %d routes, want %d", s.Routes, wantRoutes)
	}
	if s.WordsSwitched != wantRoutes*int64(n) {
		t.Errorf("engine metrics: %d words, want %d", s.WordsSwitched, wantRoutes*int64(n))
	}
}

// TestEngineAdapter: NewEngine serves networks without a pooled path (here
// Batcher) through the route-and-copy adapter with identical results.
func TestEngineAdapter(t *testing.T) {
	n := mustNetwork(t, "batcher", 4, WithDataBits(8))
	e, err := NewEngine(n, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(21))
	ps := make([]Perm, 10)
	for i := range ps {
		ps[i] = RandomPerm(n.Inputs(), rng)
	}
	outs, errs := e.RoutePermBatch(ps)
	for i := range ps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		for j, wd := range outs[i] {
			if wd.Addr != j {
				t.Fatalf("request %d output %d carries address %d", i, j, wd.Addr)
			}
		}
	}
}

// TestEngineBatchPartialFailure: a batch with bad requests reports errors
// per request while the good ones deliver.
func TestEngineBatchPartialFailure(t *testing.T) {
	b, err := NewBNB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(b, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	good := make([]Word, 8)
	for i := range good {
		good[i].Addr = 7 - i
	}
	bad := make([]Word, 8) // all addresses 0: not a permutation
	short := make([]Word, 5)
	outs, errs := e.RouteBatch([][]Word{good, bad, short})
	if errs[0] != nil {
		t.Fatalf("good request failed: %v", errs[0])
	}
	for j, wd := range outs[0] {
		if wd.Addr != j {
			t.Fatalf("good request output %d carries address %d", j, wd.Addr)
		}
	}
	if !errors.Is(errs[1], ErrNotPermutation) {
		t.Errorf("bad request error = %v, want ErrNotPermutation", errs[1])
	}
	if !errors.Is(errs[2], ErrBadSize) {
		t.Errorf("short request error = %v, want ErrBadSize", errs[2])
	}
}

// ExampleNew demonstrates the registry entry point.
func ExampleNew() {
	n, err := New("bnb", 3, WithDataBits(8))
	if err != nil {
		panic(err)
	}
	out, err := n.RoutePerm(Perm{7, 6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		panic(err)
	}
	fmt.Println(n.Name(), n.Inputs(), "inputs; output 0 came from input", out[0].Data)
	// Output: bnb 8 inputs; output 0 came from input 7
}
