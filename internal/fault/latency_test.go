package fault

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// stubSleep replaces the injector's sleep with a recorder for the duration of
// one test, so latency-fault schedules are observable without wall-clock cost.
// Tests using it must not run in parallel.
func stubSleep(t *testing.T) *[]time.Duration {
	t.Helper()
	var recorded []time.Duration
	orig := sleepFn
	sleepFn = func(d time.Duration) { recorded = append(recorded, d) }
	t.Cleanup(func() { sleepFn = orig })
	return &recorded
}

// TestSlowChaosDeterministic pins the reproducibility contract of the
// slow-chaos process: the same (Seed, cycle) stream charges the same passes
// with the same delays on every run.
func TestSlowChaosDeterministic(t *testing.T) {
	const m, passes = 3, 200
	run := func() []time.Duration {
		recorded := stubSleep(t)
		net, err := core.New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := &Plan{SlowRate: 0.3, SlowDelay: time.Millisecond, SlowHeal: 2, Seed: 7}
		inj, err := New(net, plan, Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < passes; i++ {
			if _, err := route(t, inj, perm.Identity(net.Inputs())); err != nil {
				t.Fatalf("pass %d: slow chaos corrupted a route: %v", i, err)
			}
		}
		return *recorded
	}
	s1 := run()
	s2 := run()
	if len(s1) == 0 {
		t.Fatal("slow chaos at rate 0.3 never struck in 200 passes")
	}
	if len(s1) != len(s2) {
		t.Fatalf("replay recorded %d sleeps vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("sleep %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

// TestSlowChaosComposesWithFunctionalChaos pins the sub-stream isolation:
// enabling slow chaos must not perturb which functional chaos faults fire —
// the two processes draw from salted sub-streams of the same seed.
func TestSlowChaosComposesWithFunctionalChaos(t *testing.T) {
	const m = 3
	net, err := core.New(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := &Plan{ChaosRate: 0.2, ChaosHeal: 1, Seed: 9}
	composed := &Plan{ChaosRate: 0.2, ChaosHeal: 1, Seed: 9,
		SlowRate: 0.5, SlowDelay: time.Millisecond, SlowHeal: 1}
	injA, err := New(net, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	injB, err := New(net, composed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slowFired := 0
	for cycle := int64(0); cycle < 500; cycle++ {
		fa, oka := injA.chaosAt(cycle)
		fb, okb := injB.chaosAt(cycle)
		if oka != okb || fa != fb {
			t.Fatalf("cycle %d: functional chaos diverged once slow chaos was enabled: %+v/%v vs %+v/%v",
				cycle, fa, oka, fb, okb)
		}
		if _, ok := injB.slowAt(cycle); ok {
			slowFired++
		}
	}
	if slowFired == 0 {
		t.Error("slow chaos at rate 0.5 never fired in 500 cycles")
	}
}

// TestDelayFaultsCostTimeNotCorrectness pins the delay-fault model: a
// permanent Slow fault stalls every pass by exactly its delay and never
// corrupts a delivery, and delay faults stay out of error classification —
// a transient TagFlip composed with a permanent Slow still classifies as
// transient, because only the tag flip explains the misdelivery.
func TestDelayFaultsCostTimeNotCorrectness(t *testing.T) {
	const m = 3
	recorded := stubSleep(t)
	net, err := core.New(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Faults: []Fault{{Kind: Slow, Delay: 2 * time.Millisecond}}}
	inj, err := New(net, plan, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	const passes = 10
	for i := 0; i < passes; i++ {
		if _, err := route(t, inj, perm.Identity(net.Inputs())); err != nil {
			t.Fatalf("pass %d: permanent Slow fault corrupted a route: %v", i, err)
		}
	}
	if got := len(*recorded); got != passes {
		t.Errorf("delayed passes = %d, want %d", got, passes)
	}
	for i, d := range *recorded {
		if d != 2*time.Millisecond {
			t.Errorf("sleep %d charged %v, want 2ms", i, d)
		}
	}

	flipAndStall := &Plan{Faults: []Fault{
		{Kind: Slow, Delay: time.Millisecond},
		{Kind: TagFlip, Port: 2, Bit: 0, Until: 1 << 30},
	}}
	inj2, err := New(net, flipAndStall, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = route(t, inj2, perm.Identity(net.Inputs()))
	if err == nil {
		t.Fatal("flipped tag routed without error")
	}
	if !errors.Is(err, neterr.ErrTransient) {
		t.Errorf("TagFlip + permanent Slow classified hard: %v — the delay fault must stay out of classification", err)
	}
}

// TestJitterDeterministic pins the Jitter model: each pass draws a delay in
// [0, Delay] as a pure function of (Seed, cycle), so a replay charges the
// identical jitter sequence.
func TestJitterDeterministic(t *testing.T) {
	const m, passes = 3, 50
	run := func() []time.Duration {
		recorded := stubSleep(t)
		net, err := core.New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		plan := &Plan{Faults: []Fault{{Kind: Jitter, Delay: time.Millisecond}}, Seed: 11}
		inj, err := New(net, plan, Options{Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < passes; i++ {
			if _, err := route(t, inj, perm.Identity(net.Inputs())); err != nil {
				t.Fatalf("pass %d: jitter corrupted a route: %v", i, err)
			}
		}
		return *recorded
	}
	s1 := run()
	s2 := run()
	if len(s1) != len(s2) {
		t.Fatalf("replay recorded %d sleeps vs %d", len(s1), len(s2))
	}
	varied := false
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("sleep %d: %v vs %v", i, s1[i], s2[i])
		}
		if s1[i] > time.Millisecond {
			t.Errorf("sleep %d: jitter %v above its bound", i, s1[i])
		}
		if i > 0 && s1[i] != s1[0] {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter drew the same delay on every pass — not a uniform draw")
	}
}

// TestPlanValidateDelayFaults pins the delay-fault plan checks.
func TestPlanValidateDelayFaults(t *testing.T) {
	const m = 3
	bad := []Plan{
		{Faults: []Fault{{Kind: Slow}}},                       // no delay
		{Faults: []Fault{{Kind: Stall, Delay: -time.Second}}}, // negative delay
		{SlowRate: 1.5}, // rate out of range
		{SlowRate: 0.5}, // rate without delay
	}
	for i, p := range bad {
		if err := p.Validate(m); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
	}
	good := Plan{
		Faults:   []Fault{{Kind: Stall, Delay: time.Millisecond}, {Kind: Jitter, Delay: time.Microsecond}},
		SlowRate: 0.5, SlowDelay: time.Millisecond,
	}
	if err := good.Validate(m); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}
