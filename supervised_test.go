package bnbnet

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var publishSeq atomic.Int64

// TestSupervisedChaosAvailability is the PR's acceptance run: 1% chaos in
// one of K=3 planes (m=5), >= 10k requests, and the supervised router must
// deliver every one of them — zero errors, zero ErrMisrouted — while the
// health checker fails over on the first fault and readmits the healed
// plane.
func TestSupervisedChaosAvailability(t *testing.T) {
	const (
		m        = 5
		k        = 3
		requests = 10000
		batch    = 250
	)
	sink := NewMetrics()
	s, err := NewSupervised("bnb", m,
		WithPlanes(k),
		WithPlaneFaults(0, &FaultPlan{ChaosRate: 0.01, ChaosHeal: 1, Seed: 2026}),
		WithWorkers(4),
		WithMetrics(sink),
		WithHealthInterval(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Inputs()
	rng := rand.New(rand.NewSource(7))
	var misrouted, failed int
	var firstErr error
	for done := 0; done < requests; done += batch {
		ps := make([]Perm, batch)
		for i := range ps {
			ps[i] = RandomPerm(n, rng)
		}
		outs, errs := s.RoutePermBatch(ps)
		for i := range errs {
			if errs[i] != nil {
				failed++
				if firstErr == nil {
					firstErr = errs[i]
				}
				if errors.Is(errs[i], ErrMisrouted) {
					misrouted++
				}
				continue
			}
			for j, w := range outs[i] {
				if w.Addr != j {
					t.Fatalf("delivered output %d carries address %d", j, w.Addr)
				}
			}
		}
	}
	if failed != 0 || misrouted != 0 {
		t.Errorf("delivered %d/%d requests (%d failed, %d misrouted, first error %v), want 100%%",
			requests-failed, requests, failed, misrouted, firstErr)
	}
	if s.Failovers() == 0 {
		t.Error("chaos plane never failed over")
	}
	// Transient chaos heals within a cycle, so the plane must come back.
	deadline := time.Now().Add(5 * time.Second)
	for sink.Snapshot().Readmits == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sink.Snapshot().Readmits == 0 {
		t.Error("chaos plane never readmitted after healing")
	}
	snap := sink.Snapshot()
	if snap.Failovers == 0 {
		t.Error("metrics recorded no failovers")
	}
	if snap.Errors != 0 {
		// The planes' internal misroutes are absorbed by failover; the
		// engine-level error counter tracks caller-visible failures only.
		t.Errorf("metrics recorded %d caller-visible request errors", snap.Errors)
	}
	t.Logf("chaos run: failovers=%d repairs=%d readmits=%d states=%v",
		s.Failovers(), snap.Repairs, snap.Readmits, s.PlaneStates())
}

// TestSupervisedRepairsProbeBlindFault pins that a stuck switch the health
// checker's probes miss is repaired at every order. StuckAt(stage 0,
// column 0, switch 0, straight) passes every CanonicalProbes permutation at
// m = 4..7, so only the verified live traffic trips it: each trip takes
// the faulty plane out of service, the probes readmit it, and the third
// hard quarantine (rebuildAfter) rebuilds it fault-free. So the run ends
// with no failed request, at least one repair, and at most 3 failovers.
func TestSupervisedRepairsProbeBlindFault(t *testing.T) {
	const (
		requests     = 2000
		batch        = 8
		maxFailovers = 3 // one per hard quarantine until the rebuild
	)
	for m := 4; m <= 7; m++ {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			sink := NewMetrics()
			s, err := NewSupervised("bnb", m,
				WithPlanes(2),
				WithPlaneFaults(0, StuckAt(FaultElement{}, false)),
				WithHealthInterval(time.Millisecond),
				WithMetrics(sink),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Between batches, wait for the health checker to settle any
			// quarantine, so a burst of routes cannot outrun it on a busy
			// or single-CPU host.
			deadline := time.Now().Add(10 * time.Second)
			settle := func() {
				for slices.ContainsFunc(s.PlaneStates(), func(st PlaneState) bool { return st != PlaneHealthy }) {
					if time.Now().After(deadline) {
						t.Fatalf("a plane never returned to service: %+v", s.PlaneStats())
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			rng := rand.New(rand.NewSource(int64(m)))
			failed := 0
			for done := 0; done < requests; done += batch {
				settle()
				ps := make([]Perm, batch)
				for i := range ps {
					ps[i] = RandomPerm(s.Inputs(), rng)
				}
				outs, errs := s.RoutePermBatch(ps)
				for i, err := range errs {
					if err != nil {
						failed++
						continue
					}
					for j, w := range outs[i] {
						if w.Addr != j {
							t.Fatalf("delivered output %d carries address %d", j, w.Addr)
						}
					}
				}
			}
			snap := sink.Snapshot()
			t.Logf("m=%d: %d requests, %d failed, failovers=%d repairs=%d readmits=%d",
				m, requests, failed, snap.Failovers, snap.Repairs, snap.Readmits)
			if failed != 0 {
				t.Errorf("%d of %d requests failed, want 0", failed, requests)
			}
			if snap.Repairs == 0 {
				t.Errorf("the faulty plane was never rebuilt (failovers=%d, readmits=%d)", snap.Failovers, snap.Readmits)
			}
			if snap.Failovers > maxFailovers {
				t.Errorf("failovers = %d, want at most %d", snap.Failovers, maxFailovers)
			}
		})
	}
}

// TestBuildAllocs pins the heap bytes one constructor call allocates at
// m=5: no serving constructor builds a fault dictionary (which took 76.7 MB
// per build), so a supervised stack stays under 64 KB and a 4-shard cluster
// under 256 KB. Each build is measured three times and the least is kept,
// so a stray allocation elsewhere in the process cannot fail it.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, c := range []struct {
		name  string
		limit uint64
		build func() (io.Closer, error)
	}{
		{"NewSupervised(bnb, 5)", 64 << 10, func() (io.Closer, error) { return NewSupervised("bnb", 5) }},
		{"NewCluster(bnb, 5, WithShards(4))", 256 << 10, func() (io.Closer, error) { return NewCluster("bnb", 5, WithShards(4)) }},
	} {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stack, err := c.build()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if err := stack.Close(); err != nil {
				t.Fatalf("%s: Close: %v", c.name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s allocates %d B", c.name, least)
		if least >= c.limit {
			t.Errorf("%s allocates %d B, want under %d", c.name, least, c.limit)
		}
	}
}

func TestSupervisedDefaultsAndAccessors(t *testing.T) {
	s, err := NewSupervised("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Planes() != 2 {
		t.Errorf("default Planes = %d, want 2", s.Planes())
	}
	if s.Inputs() != 8 {
		t.Errorf("Inputs = %d, want 8", s.Inputs())
	}
	states := s.PlaneStates()
	if len(states) != 2 || states[0] != PlaneHealthy || states[1] != PlaneHealthy {
		t.Errorf("fresh plane states = %v, want all healthy", states)
	}
	rng := rand.New(rand.NewSource(1))
	outs, errs := s.RoutePermBatch([]Perm{RandomPerm(8, rng), RandomPerm(8, rng)})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j, w := range outs[i] {
			if w.Addr != j {
				t.Errorf("request %d output %d misdelivered", i, j)
			}
		}
	}
	stats := s.PlaneStats()
	var served int64
	for _, st := range stats {
		served += st.Served
	}
	if served != 2 {
		t.Errorf("planes served %d requests total, want 2", served)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close: err = %v, want ErrClosed", err)
	}
	if _, err := s.Submit(nil, make([]Word, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrClosed", err)
	}
}

func TestSupervisedOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"trace", []Option{WithTrace(func(int, []Word) {})}, "WithTrace"},
		{"faults", []Option{WithFaults(StuckAt(FaultElement{}, false))}, "WithPlaneFaults"},
		{"one plane", []Option{WithPlanes(1)}, "at least 2"},
		{"plane index", []Option{WithPlanes(2), WithPlaneFaults(2, &FaultPlan{ChaosRate: 0.5})}, "only 2 planes"},
		{"negative interval", []Option{WithHealthInterval(-time.Second)}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSupervised("bnb", 3, tc.opts...)
			if err == nil {
				s.Close()
				t.Fatalf("NewSupervised accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if _, err := NewSupervised("nosuch", 3); err == nil {
		t.Error("unknown family accepted")
	}
	// The supervised options stay rejected by the other constructors.
	if _, err := New("bnb", 3, WithPlanes(3)); err == nil {
		t.Error("New accepted WithPlanes")
	}
	bnb, err := NewBNB(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(bnb, WithPlanes(3)); err == nil {
		t.Error("NewEngine accepted WithPlanes")
	}
}

func TestSupervisedPublish(t *testing.T) {
	s, err := NewSupervised("bnb", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// expvar registration is process-global, so the name must be unique even
	// across -count=N reruns of this test.
	name := fmt.Sprintf("test.supervised.planes.%d", publishSeq.Add(1))
	if err := s.Publish(name); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(name); err == nil {
		t.Error("double Publish under one name must fail")
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not registered")
	}
	out := v.String()
	if !strings.Contains(out, "healthy") {
		t.Errorf("expvar view %q does not expose plane states", out)
	}
}

// slowNetwork delays every route to make queue-drain time observable; it
// exists to exercise WithShedding at the public API.
type slowNetwork struct {
	Network
	delay time.Duration
}

func (s slowNetwork) Route(words []Word) ([]Word, error) {
	time.Sleep(s.delay)
	return s.Network.Route(words)
}

// TestSheddingRejectsUnmeetableDeadlines pins the admission contract: once
// the engine knows its service time, requests whose deadline cannot be met
// at the current queue depth are shed with ErrOverloaded instead of expiring
// in the queue, and the accepted ones still meet their deadlines.
func TestSheddingRejectsUnmeetableDeadlines(t *testing.T) {
	const (
		n       = 8
		serve   = 5 * time.Millisecond
		timeout = 30 * time.Millisecond
		flood   = 40
	)
	base, err := NewBNB(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewMetrics()
	e, err := NewEngine(slowNetwork{Network: base, delay: serve},
		WithWorkers(1), WithQueue(flood), WithTimeout(timeout),
		WithShedding(), WithMetrics(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(9))
	mkBatch := func(k int) [][]Word {
		batch := make([][]Word, k)
		for i := range batch {
			p := RandomPerm(n, rng)
			words := make([]Word, n)
			for j, d := range p {
				words[j] = Word{Addr: d, Data: uint64(j)}
			}
			batch[i] = words
		}
		return batch
	}
	// Warm the service-time estimate with sequential requests that meet
	// their deadline comfortably.
	for i := 0; i < 3; i++ {
		if _, errs := e.RouteBatch(mkBatch(1)); errs[0] != nil {
			t.Fatalf("warm-up request failed: %v", errs[0])
		}
	}
	// Flood: far more work than the deadline can drain at one worker.
	_, errs := e.RouteBatchCtx(context.Background(), mkBatch(flood))
	var shed, expired, okCount int
	for _, err := range errs {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrOverloaded):
			shed++
		case errors.Is(err, ErrTimeout):
			expired++
		default:
			t.Errorf("unexpected flood error: %v", err)
		}
	}
	if shed == 0 {
		t.Error("flood shed nothing; admission control inactive")
	}
	if okCount == 0 {
		t.Error("flood completed nothing; admission control over-rejects")
	}
	// Accepted requests meet their deadlines: allow only the in-flight
	// window (one worker, plus the request being admitted as the estimate
	// crosses the threshold) to expire.
	if expired > 2 {
		t.Errorf("%d accepted requests expired in the queue, want <= 2 (shed=%d ok=%d)",
			expired, shed, okCount)
	}
	if got := sink.Snapshot().Sheds; got != int64(shed) {
		t.Errorf("metrics Sheds = %d, want %d", got, shed)
	}
}
