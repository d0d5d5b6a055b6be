package bnbnet

import (
	"strings"
	"testing"
)

// TestVerifyNetworkPassesAllImplementations runs the public conformance
// battery against every network in the repository.
func TestVerifyNetworkPassesAllImplementations(t *testing.T) {
	for _, n := range allNetworks(t, 3, 0) {
		report, err := VerifyNetwork(n, CheckOptions{})
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if !report.OK() {
			t.Errorf("%s failed conformance: %v", n.Name(), report.Failures)
		}
		if !report.ExhaustiveDone {
			t.Errorf("%s: exhaustive pass should auto-enable at N=8", n.Name())
		}
		// 40320 exhaustive + 100 random + families + the BPC class + climbs.
		if report.Checked < 40320+50 {
			t.Errorf("%s: only %d permutations checked", n.Name(), report.Checked)
		}
	}
}

func TestVerifyNetworkLargerOrders(t *testing.T) {
	for _, n := range allNetworks(t, 6, 8) {
		report, err := VerifyNetwork(n, CheckOptions{RandomTrials: 10, BPCTrials: 5, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if report.ExhaustiveDone {
			t.Errorf("%s: exhaustive pass should not run at N=64", n.Name())
		}
		if !report.OK() {
			t.Errorf("%s failed conformance: %v", n.Name(), report.Failures)
		}
	}
}

// brokenNetwork misroutes one specific pair, to prove the battery catches
// real violations.
type brokenNetwork struct{ inner Network }

func (b brokenNetwork) Name() string { return "broken" }

func (b brokenNetwork) Inputs() int { return b.inner.Inputs() }

func (b brokenNetwork) Route(words []Word) ([]Word, error) { return b.inner.Route(words) }

func (b brokenNetwork) RoutePerm(p Perm) ([]Word, error) {
	out, err := b.inner.RoutePerm(p)
	if err != nil {
		return nil, err
	}
	out[0], out[1] = out[1], out[0] // sabotage
	return out, nil
}

func (b brokenNetwork) Cost() Cost { return b.inner.Cost() }

func (b brokenNetwork) Delay() Delay { return b.inner.Delay() }

func TestVerifyNetworkCatchesViolations(t *testing.T) {
	inner, err := NewBNB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	report, err := VerifyNetwork(brokenNetwork{inner: inner}, CheckOptions{MaxFailures: 3})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("battery passed a sabotaged network")
	}
	if len(report.Failures) != 3 {
		t.Errorf("failures capped at %d, want 3", len(report.Failures))
	}
	if !strings.Contains(report.Failures[0], "address") {
		t.Errorf("failure message %q does not name the misdelivered address", report.Failures[0])
	}
}

func TestVerifyNetworkValidation(t *testing.T) {
	if _, err := VerifyNetwork(nil, CheckOptions{}); err == nil {
		t.Error("nil network accepted")
	}
}

func TestVerifyNetworkExhaustiveOverride(t *testing.T) {
	n, err := NewBNB(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := false
	report, err := VerifyNetwork(n, CheckOptions{Exhaustive: &off, RandomTrials: 5, BPCTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.ExhaustiveDone {
		t.Error("exhaustive ran despite explicit override")
	}
	on := true
	report, err = VerifyNetwork(n, CheckOptions{Exhaustive: &on, RandomTrials: 1, BPCTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !report.ExhaustiveDone {
		t.Error("exhaustive skipped despite explicit request")
	}
}
