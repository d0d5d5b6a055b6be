package plane

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
)

// hedgeConfig builds a hedging supervisor config isolated from the other
// subsystems: the health checker is parked (interval one hour) and slow-plane
// detection is disarmed (floor one hour), so the tests exercise the hedge
// race alone.
func hedgeConfig(planes ...Router) Config {
	return Config{
		Planes:         planes,
		HealthInterval: time.Hour,
		SlowFloor:      time.Hour,
		Metrics:        new(metrics.Metrics),
	}
}

// seedHedgeDelay primes every plane's latency EWMA so that the auto hedge
// delay reads d until live passes move it.
func seedHedgeDelay(s *Supervisor, d time.Duration) {
	for _, p := range s.snapshot() {
		p.latEwma.Store(int64(d / hedgeAutoFactor))
	}
}

// gatedRouter delivers with a distinguishable payload after its gate opens,
// and signals each completed pass — the controllable plane of the hedge-race
// schedules.
type gatedRouter struct {
	n    int
	mark uint64
	gate chan struct{}
	done chan struct{}
}

func newGated(n int, mark uint64) *gatedRouter {
	return &gatedRouter{n: n, mark: mark, gate: make(chan struct{}), done: make(chan struct{}, 256)}
}

func (r *gatedRouter) Inputs() int { return r.n }

func (r *gatedRouter) RouteInto(dst, src []core.Word) error {
	<-r.gate
	for _, w := range src {
		dst[w.Addr] = core.Word{Addr: w.Addr, Data: r.mark}
	}
	r.done <- struct{}{}
	return nil
}

// open returns a gatedRouter whose gate is already open.
func openGated(n int, mark uint64) *gatedRouter {
	r := newGated(n, mark)
	close(r.gate)
	return r
}

// identitySrc builds the identity request with Data = source port.
func identitySrc(n int) []core.Word {
	src := make([]core.Word, n)
	for i := range src {
		src[i] = core.Word{Addr: i, Data: uint64(i)}
	}
	return src
}

// markOf returns the uniform payload mark of dst, failing on a torn result —
// the signature of a double delivery.
func markOf(t *testing.T, dst []core.Word) uint64 {
	t.Helper()
	for j, w := range dst {
		if w.Addr != j {
			t.Fatalf("output %d carries address %d", j, w.Addr)
		}
		if w.Data != dst[0].Data {
			t.Fatalf("torn delivery: output %d carries mark %d, output 0 carries %d", j, w.Data, dst[0].Data)
		}
	}
	return dst[0].Data
}

// wantIdentity checks a faithful delivery of identitySrc through a
// Data-preserving plane.
func wantIdentity(t *testing.T, dst []core.Word) {
	t.Helper()
	for j, w := range dst {
		if w.Addr != j || w.Data != uint64(j) {
			t.Fatalf("output %d = %+v, want Addr=%d Data=%d", j, w, j, j)
		}
	}
}

// TestHedgePrimaryWinsWithoutFiring pins the quiet path as a deterministic
// schedule: the request parks at the hedge-collector's yield point right
// after the primary attempt launches; the primary then completes while the
// collector is still parked, and on resume the collector must deliver the
// primary's result without the timer ever firing.
func TestHedgePrimaryWinsWithoutFiring(t *testing.T) {
	const n = 8
	hedgeYield = check.Yield
	defer func() { hedgeYield = nil }()
	p0 := openGated(n, 1000)
	p1 := openGated(n, 2000)
	cfg := hedgeConfig(p0, p1)
	cfg.HedgeAuto = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedHedgeDelay(s, time.Hour) // the timer must never decide this test
	defer s.Close()

	dst := make([]core.Word, n)
	var routeErr error
	req := check.GoNamed("request", func(func()) {
		routeErr = s.RouteInto(dst, identitySrc(n))
	})
	req.Step() // primary launched on plane 0, collector parked at the yield
	<-p0.done  // the primary completes while the collector is parked
	req.Finish()
	if routeErr != nil {
		t.Fatalf("RouteInto: %v", routeErr)
	}
	if got := markOf(t, dst); got != 1000 {
		t.Errorf("delivery carries mark %d, want the primary's 1000", got)
	}
	if wins := s.m.Snapshot().HedgeWins; s.Hedges() != 0 || wins != 0 {
		t.Errorf("hedges = %d, wins = %d; the timer must not fire under an hour-long delay", s.Hedges(), wins)
	}
}

// TestHedgeFiresAndWins pins the tail path: the primary plane stalls past
// the hedge delay, the timer re-issues the request on the next healthy
// plane, the hedge wins, and the abandoned primary finishes later against
// hedge-owned buffers only — the caller's dst and src are reusable the
// moment RouteInto returns (the race detector enforces that part).
func TestHedgeFiresAndWins(t *testing.T) {
	const n = 8
	p0 := newGated(n, 1000) // gated shut: the stalled primary
	p1 := openGated(n, 2000)
	cfg := hedgeConfig(p0, p1)
	cfg.HedgeAuto = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedHedgeDelay(s, time.Millisecond)
	defer s.Close()

	src := identitySrc(n)
	dst := make([]core.Word, n)
	if err := s.RouteInto(dst, src); err != nil {
		t.Fatalf("RouteInto: %v", err)
	}
	if got := markOf(t, dst); got != 2000 {
		t.Errorf("delivery carries mark %d, want the hedge's 2000", got)
	}
	if wins := s.m.Snapshot().HedgeWins; s.Hedges() != 1 || wins != 1 {
		t.Errorf("hedges = %d, wins = %d, want 1 and 1", s.Hedges(), wins)
	}
	// The loser is abandoned, not leaked: the caller owns its buffers again —
	// scribble over them while the primary is still stalled — then release
	// the gate and let the loser park its scratch.
	for i := range src {
		src[i], dst[i] = core.Word{}, core.Word{}
	}
	close(p0.gate)
	<-p0.done
	// The pooled scratch is intact for the next request.
	if err := s.RouteInto(dst, identitySrc(n)); err != nil {
		t.Fatalf("route after abandoned loser: %v", err)
	}
	markOf(t, dst)
}

// TestHedgeSingleDeliveryUnderContention drives the hedge race with both
// attempts completing close together, many times: exactly one attempt may
// claim the caller's dst, so every delivery is uniformly one plane's output,
// never a torn mix. Run under -race this also pins the claim/copy ordering.
func TestHedgeSingleDeliveryUnderContention(t *testing.T) {
	const n, rounds = 8, 100
	p0 := newGated(n, 1000)
	p1 := newGated(n, 2000)
	cfg := hedgeConfig(p0, p1)
	cfg.HedgeAuto = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedHedgeDelay(s, time.Millisecond)
	defer s.Close()

	src := identitySrc(n)
	dst := make([]core.Word, n)
	for i := 0; i < rounds; i++ {
		// The rotor alternates the primary plane per request. Feed each gate
		// one credit, the primary's after a round-dependent delay straddling
		// the hedge timer: some rounds the primary wins before the timer (the
		// hedge plane's credit carries into a later round), some rounds the
		// hedge fires and the two completions race in scheduler-dependent
		// order — exactly the window the CAS claim must keep single-delivery.
		primary, other := p0, p1
		if i%2 == 1 {
			primary, other = p1, p0
		}
		delay := time.Duration(i%3) * 500 * time.Microsecond
		go func() {
			time.Sleep(delay)
			primary.gate <- struct{}{}
		}()
		go func() { other.gate <- struct{}{} }()
		if err := s.RouteInto(dst, src); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		markOf(t, dst)
	}
	if wins := s.m.Snapshot().HedgeWins; wins > s.Hedges() {
		t.Errorf("hedge wins %d exceed hedges %d", wins, s.Hedges())
	}
}

// TestHedgeFailoverBeforeTimer pins the failure path: a failing primary
// fails over to the next eligible plane immediately, without waiting for the
// hedge timer, and the failure quarantines the plane through the usual
// machinery.
func TestHedgeFailoverBeforeTimer(t *testing.T) {
	const n = 8
	bad := &funcRouter{n: n, fn: misdeliver}
	cfg := hedgeConfig(bad, good(n))
	cfg.HedgeAuto = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedHedgeDelay(s, time.Hour) // a timer that can never fire proves the failover is immediate
	defer s.Close()

	dst := make([]core.Word, n)
	start := time.Now()
	if err := s.RouteInto(dst, identitySrc(n)); err != nil {
		t.Fatalf("RouteInto: %v", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("failover took %v — it waited on the hedge timer", d)
	}
	wantIdentity(t, dst)
	if s.Hedges() != 0 {
		t.Errorf("hedges = %d, want 0 (failover is not a hedge)", s.Hedges())
	}
	if s.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", s.Failovers())
	}
	if st := State(s.plane(0).state.Load()); st == Healthy {
		t.Error("misrouting primary still healthy after the hedged request")
	}
}

// TestHedgeFallsBackSequential pins the fallback edges: a fleet with fewer
// than two eligible planes, or an auto-hedge fleet with no latency history,
// serves sequentially — correctly, with the timer never armed; and a
// request whose every healthy attempt fails under the hedge goes on to the
// suspect planes, like a sequential one.
func TestHedgeFallsBackSequential(t *testing.T) {
	const n = 8
	t.Run("every healthy attempt fails", func(t *testing.T) {
		cfg := hedgeConfig(&funcRouter{n: n, fn: misdeliver}, &funcRouter{n: n, fn: misdeliver}, good(n))
		cfg.HedgeAuto = true
		cfg.PoisonThreshold = -1 // isolate the cascade from the poison quarantine
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stopHealth(s) // the failures must not move the suspect plane
		seedHedgeDelay(s, time.Hour)
		s.plane(2).state.Store(int32(Suspect))
		dst := make([]core.Word, n)
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("RouteInto: %v", err)
		}
		wantIdentity(t, dst)
		if got := s.plane(2).served.Load(); got != 1 {
			t.Errorf("suspect plane served %d requests, want 1", got)
		}
	})
	t.Run("single eligible plane", func(t *testing.T) {
		cfg := hedgeConfig(good(n), good(n))
		cfg.HedgeAuto = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		seedHedgeDelay(s, time.Millisecond)
		defer s.Close()
		s.plane(1).state.Store(int32(Quarantined))
		dst := make([]core.Word, n)
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("RouteInto with one healthy plane: %v", err)
		}
		wantIdentity(t, dst)
		if s.Hedges() != 0 {
			t.Errorf("hedges = %d, want 0", s.Hedges())
		}
	})
	t.Run("cold auto fleet", func(t *testing.T) {
		cfg := hedgeConfig(good(n), good(n))
		cfg.HedgeAuto = true
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dst := make([]core.Word, n)
		// No latency history yet: no delay is derivable, so the request must
		// serve sequentially rather than hedge at delay zero.
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("cold RouteInto: %v", err)
		}
		wantIdentity(t, dst)
		if s.Hedges() != 0 {
			t.Errorf("hedges = %d, want 0 on the cold request", s.Hedges())
		}
		// Warmed by the first pass, the auto policy now derives a delay and
		// the hedged path serves (the timer needn't fire — the plane is fast).
		for i := 0; i < 8; i++ {
			if err := s.RouteInto(dst, identitySrc(n)); err != nil {
				t.Fatalf("warm RouteInto %d: %v", i, err)
			}
			wantIdentity(t, dst)
		}
	})
}

// TestAllPlanesQuarantinedFailsFast pins the total-outage contract: with
// every plane quarantined (or failing), routing returns promptly with an
// error classifiable by the existing sentinels — no hang, no goroutine leak
// (the race build's leak checks cover the latter).
func TestAllPlanesQuarantinedFailsFast(t *testing.T) {
	const n = 8
	for _, hedged := range []bool{false, true} {
		t.Run(fmt.Sprintf("hedged=%v", hedged), func(t *testing.T) {
			cfg := hedgeConfig(&funcRouter{n: n, fn: misdeliver}, &funcRouter{n: n, fn: misdeliver})
			cfg.PoisonThreshold = -1 // isolate the outage path from the poison quarantine
			if hedged {
				cfg.HedgeAuto = true
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seedHedgeDelay(s, time.Millisecond)
			defer s.Close()
			s.plane(0).state.Store(int32(Quarantined))
			s.plane(1).state.Store(int32(Quarantined))
			dst := make([]core.Word, n)
			start := time.Now()
			err = s.RouteInto(dst, identitySrc(n))
			if err == nil {
				t.Fatal("routing over an all-quarantined fleet succeeded with misrouting planes")
			}
			if !errors.Is(err, neterr.ErrMisrouted) {
				t.Errorf("outage error %v is not classifiable as ErrMisrouted", err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("outage took %v to surface — not fail-fast", d)
			}
		})
	}
}

// TestHedgeClosedSupervisor pins lifecycle: a closed supervisor rejects
// hedged requests with ErrClosed like sequential ones.
func TestHedgeClosedSupervisor(t *testing.T) {
	const n = 8
	cfg := hedgeConfig(good(n), good(n))
	cfg.HedgeAuto = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedHedgeDelay(s, time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dst := make([]core.Word, n)
	if err := s.RouteInto(dst, identitySrc(n)); !errors.Is(err, neterr.ErrClosed) {
		t.Errorf("RouteInto after Close: err = %v, want ErrClosed", err)
	}
}

// TestHedgeMetricsFlow pins the metrics plumbing: a winning hedge lands in
// the sink's hedge counters.
func TestHedgeMetricsFlow(t *testing.T) {
	const n = 8
	var m metrics.Metrics
	p0 := newGated(n, 1000)
	cfg := hedgeConfig(p0, openGated(n, 2000))
	cfg.HedgeAuto = true
	cfg.Metrics = &m
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedHedgeDelay(s, time.Millisecond)
	defer s.Close()
	dst := make([]core.Word, n)
	if err := s.RouteInto(dst, identitySrc(n)); err != nil {
		t.Fatal(err)
	}
	close(p0.gate)
	<-p0.done
	snap := m.Snapshot()
	if snap.Hedges != 1 || snap.HedgeWins != 1 {
		t.Errorf("sink hedges = %d, wins = %d, want 1 and 1", snap.Hedges, snap.HedgeWins)
	}
}
