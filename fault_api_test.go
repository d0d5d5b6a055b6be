package bnbnet

// Tests for the fault-injection public surface and the registry's option
// validation: WithFaults wiring, rejection of invalid and conflicting
// options, transient faults healing on a re-route, the degraded fabric
// path, and the probe-based diagnoser localizing planted faults.

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		err  func() error
	}{
		{"negative workers (New)", func() error { _, err := New("bnb", 3, WithWorkers(-1)); return err }},
		{"negative workers (NewEngine)", func() error {
			n, _ := New("bnb", 3)
			_, err := NewEngine(n, WithWorkers(-2))
			return err
		}},
		{"negative queue", func() error {
			n, _ := New("bnb", 3)
			_, err := NewEngine(n, WithQueue(-1))
			return err
		}},
		{"queue on New", func() error { _, err := New("bnb", 3, WithQueue(8)); return err }},
		{"timeout on New", func() error { _, err := New("bnb", 3, WithTimeout(time.Second)); return err }},
		{"negative timeout", func() error {
			n, _ := New("bnb", 3)
			_, err := NewEngine(n, WithTimeout(-time.Second))
			return err
		}},
		{"nil fault plan", func() error { _, err := New("bnb", 3, WithFaults(nil)); return err }},
		{"faults on NewEngine", func() error {
			n, _ := New("bnb", 3)
			_, err := NewEngine(n, WithFaults(&FaultPlan{ChaosRate: 0.1}))
			return err
		}},
		{"faults with trace", func() error {
			_, err := New("bnb", 3, WithFaults(&FaultPlan{ChaosRate: 0.1}), WithTrace(func(int, []Word) {}))
			return err
		}},
		{"faults with workers", func() error {
			_, err := New("bnb", 3, WithFaults(&FaultPlan{ChaosRate: 0.1}), WithWorkers(2))
			return err
		}},
		{"stuck-at on non-bnb family", func() error {
			_, err := New("benes", 3, WithFaults(StuckAt(FaultElement{}, true)))
			return err
		}},
		{"invalid plan", func() error {
			_, err := New("bnb", 3, WithFaults(&FaultPlan{ChaosRate: 2}))
			return err
		}},
	}
	for _, tc := range bad {
		if err := tc.err(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFaultyNetworkChaosRecovery routes through a chaos-injected network
// directly: every perturbed pass is reported, never delivered wrong, and a
// transient fault heals when the caller routes the same request again.
func TestFaultyNetworkChaosRecovery(t *testing.T) {
	var m Metrics
	n, err := New("bnb", 4, WithFaults(&FaultPlan{ChaosRate: 0.2, ChaosHeal: 1, Seed: 11}), WithMetrics(&m))
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := n.(*FaultyNetwork)
	if !ok {
		t.Fatalf("WithFaults returned %T, want *FaultyNetwork", n)
	}
	if fn.Unwrap().Name() != "bnb" {
		t.Errorf("Unwrap().Name() = %q", fn.Unwrap().Name())
	}
	const maxRoutes = 20
	rng := rand.New(rand.NewSource(5))
	reroutes := 0
	for trial := 0; trial < 50; trial++ {
		p := RandomPerm(n.Inputs(), rng)
		var out []Word
		for route := 1; ; route++ {
			out, err = n.RoutePerm(p)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("trial %d: %v, want only transient faults", trial, err)
			}
			if route == maxRoutes {
				t.Fatalf("trial %d not delivered in %d routes: %v", trial, maxRoutes, err)
			}
			reroutes++
		}
		for j, wd := range out {
			if wd.Addr != j {
				t.Fatalf("trial %d: output %d holds address %d", trial, j, wd.Addr)
			}
		}
	}
	if fn.InjectedPasses() == 0 {
		t.Fatal("chaos at rate 0.2 perturbed nothing; the test proves nothing")
	}
	if reroutes == 0 {
		t.Error("faults were injected but no route failed transiently")
	}
	if m.Snapshot().FaultsInjected == 0 {
		t.Error("no injected faults counted")
	}
}

func TestDegradedFabricWithFaultyNetwork(t *testing.T) {
	n, err := New("bnb", 4, WithFaults(&FaultPlan{ChaosRate: 0.01, ChaosHeal: 1, Seed: 2026}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFabric(n, WithDegraded())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	stats, err := s.Run(PermutationTraffic{Load: 0.5}, 1000, rng)
	if err != nil {
		t.Fatalf("degraded fabric aborted: %v", err)
	}
	drain, err := s.Run(PermutationTraffic{Load: 0}, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if n.(*FaultyNetwork).InjectedPasses() == 0 {
		t.Fatal("chaos injected nothing")
	}
	if got := stats.Delivered + drain.Delivered; got != stats.Offered {
		t.Errorf("delivered %d of %d offered cells", got, stats.Offered)
	}
}

func TestDiagnoserLocalizesPlantedFault(t *testing.T) {
	const m = 4
	d, err := NewFaultDiagnoser(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != m || d.Probes() == 0 {
		t.Fatalf("diagnoser: M=%d probes=%d", d.M(), d.Probes())
	}
	if g := d.AmbiguousGroups(); g != 0 {
		t.Fatalf("%d ambiguous fault groups at m=%d, want 0", g, m)
	}

	healthy, err := New("bnb", m)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := d.Diagnose(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Healthy {
		t.Fatalf("healthy network diagnosed as faulty: %+v", diag)
	}

	elems := FaultElements(m)
	want := elems[len(elems)/2]
	faulty, err := New("bnb", m, WithFaults(StuckAt(want, true)))
	if err != nil {
		t.Fatal(err)
	}
	diag, err = d.Diagnose(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Healthy || !diag.Found {
		t.Fatalf("planted fault not found: %+v", diag)
	}
	if diag.Fault.Elem != want || diag.Fault.Kind != FaultStuckCross {
		t.Errorf("diagnosed %v at %v, want stuck-cross at %v", diag.Fault.Kind, diag.Fault.Elem, want)
	}
}

func permWordsAPI(p Perm) []Word {
	words := make([]Word, len(p))
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	return words
}
