package plane

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
)

// poisonConfig builds a supervisor config with the health checker parked and
// slow detection disarmed, so the tests exercise the poison ledger alone.
// Its metrics sink counts the poison marks and admission rejects.
func poisonConfig(planes ...Router) Config {
	return Config{
		Planes:         planes,
		HealthInterval: time.Hour,
		Metrics:        new(metrics.Metrics),
		slow:           slowRule{floor: time.Hour},
	}
}

// TestPoisonCascadeStops pins the tentpole contract: a request that
// hard-fails on two distinct planes is quarantined mid-request — the cascade
// stops at the threshold and the remaining planes never see the request.
func TestPoisonCascadeStops(t *testing.T) {
	const n = 8
	s, err := New(poisonConfig(
		&funcRouter{n: n, fn: misdeliver},
		&funcRouter{n: n, fn: misdeliver},
		&funcRouter{n: n, fn: misdeliver},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dst := make([]core.Word, n)
	err = s.RouteInto(dst, identitySrc(n))
	if err == nil {
		t.Fatal("a request misrouting on every plane succeeded")
	}
	if !errors.Is(err, neterr.ErrPoisoned) {
		t.Errorf("cascade error %v does not classify as ErrPoisoned", err)
	}
	if !errors.Is(err, neterr.ErrMisrouted) {
		t.Errorf("cascade error %v lost its triggering cause (ErrMisrouted)", err)
	}
	if got := s.m.Snapshot().PoisonMarks; got != 1 {
		t.Errorf("PoisonMarks = %d, want 1", got)
	}
	// The cascade stopped at the two-plane threshold: the third plane never
	// served the request (probes count failures, never Served).
	if served := s.PlaneStats()[2].Served; served != 0 {
		t.Errorf("third plane served %d requests — the cascade was not stopped", served)
	}

	// Resubmitting the same request is rejected at admission, before any
	// plane is touched.
	err = s.RouteInto(dst, identitySrc(n))
	if !errors.Is(err, neterr.ErrPoisoned) {
		t.Errorf("resubmitted poisoned request: err = %v, want ErrPoisoned", err)
	}
	if got := s.m.Snapshot().PoisonedRejects; got != 1 {
		t.Errorf("PoisonedRejects = %d, want 1", got)
	}
	if got := s.m.Snapshot().PoisonMarks; got != 1 {
		t.Errorf("PoisonMarks after admission reject = %d, want still 1", got)
	}

	// A different request is not tarred by the poisoned one's ledger entry:
	// it still routes (and fails, on this all-bad fleet) on its own merits.
	other := identitySrc(n)
	other[0], other[1] = core.Word{Addr: 1, Data: 0}, core.Word{Addr: 0, Data: 1}
	if err := s.RouteInto(dst, other); !errors.Is(err, neterr.ErrPoisoned) && err == nil {
		t.Error("distinct request succeeded on an all-misrouting fleet")
	}
}

// TestPoisonTransientExemption pins the chaos interaction: transient
// failures never strike the ledger, so a healing fault window cannot poison
// the traffic that happened to cross it.
func TestPoisonTransientExemption(t *testing.T) {
	const n = 8
	down := func(dst, src []core.Word) error {
		return fmt.Errorf("plane down: %w", neterr.ErrTransient)
	}
	s, err := New(poisonConfig(
		&funcRouter{n: n, fn: down},
		&funcRouter{n: n, fn: down},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dst := make([]core.Word, n)
	err = s.RouteInto(dst, identitySrc(n))
	if err == nil {
		t.Fatal("route on an all-down fleet succeeded")
	}
	if errors.Is(err, neterr.ErrPoisoned) {
		t.Errorf("transient failures poisoned the request: %v", err)
	}
	if got := s.m.Snapshot().PoisonMarks; got != 0 {
		t.Errorf("PoisonMarks = %d, want 0 — transient failures must not strike", got)
	}
	// And the request is re-admitted freely.
	if err := s.RouteInto(dst, identitySrc(n)); errors.Is(err, neterr.ErrPoisoned) {
		t.Errorf("request rejected at admission after transient-only failures: %v", err)
	}
}

// TestPoisonRequiresDistinctPlanes pins the distinctness rule: one plane
// failing a request — however often — is the plane's fault, and the request
// keeps routing on the rest of the fleet.
func TestPoisonRequiresDistinctPlanes(t *testing.T) {
	const n = 8
	s, err := New(poisonConfig(&funcRouter{n: n, fn: misdeliver}, good(n)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	dst := make([]core.Word, n)
	for i := 0; i < 5; i++ {
		if err := s.RouteInto(dst, identitySrc(n)); err != nil {
			t.Fatalf("route %d failed despite a healthy plane: %v", i, err)
		}
		wantIdentity(t, dst)
	}
	if got := s.m.Snapshot().PoisonMarks; got != 0 {
		t.Errorf("PoisonMarks = %d, want 0 — a single plane's failures cannot poison", got)
	}
}

// TestPoisonTableTTL pins expiry: a quarantined fingerprint is forgiven once
// its TTL lapses.
func TestPoisonTableTTL(t *testing.T) {
	tbl := newPoisonTable(2, 50*time.Millisecond)
	const fp = 0xfeed
	if poisoned, _ := tbl.strike(fp, 0); poisoned {
		t.Fatal("one plane's strike poisoned the fingerprint")
	}
	poisoned, became := tbl.strike(fp, 1)
	if !poisoned || !became {
		t.Fatalf("second distinct plane: poisoned=%v became=%v, want true/true", poisoned, became)
	}
	if _, became := tbl.strike(fp, 2); became {
		t.Error("third strike re-counted the threshold crossing")
	}
	if !tbl.isPoisoned(fp) {
		t.Fatal("freshly poisoned fingerprint not quarantined")
	}
	time.Sleep(60 * time.Millisecond)
	if tbl.isPoisoned(fp) {
		t.Error("fingerprint still quarantined after its TTL lapsed")
	}
}

// TestPoisonTableEviction pins the bound: the ledger never exceeds its
// entry cap, evicting the least recently struck fingerprints.
func TestPoisonTableEviction(t *testing.T) {
	tbl := newPoisonTable(1, time.Hour)
	const total = poisonMaxEntries + 100
	for fp := uint64(1); fp <= total; fp++ {
		tbl.strike(fp, 0)
	}
	if got := len(tbl.entries); got > poisonMaxEntries {
		t.Errorf("ledger holds %d entries, cap is %d", got, poisonMaxEntries)
	}
	if !tbl.isPoisoned(total) {
		t.Error("the most recent fingerprint was evicted")
	}
}

// TestFingerprintAllocFree pins the admission hot path: fingerprinting a
// request (core.AddrHash) allocates nothing.
func TestFingerprintAllocFree(t *testing.T) {
	src := identitySrc(64)
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() {
		sink = core.AddrHash(src)
	}); allocs != 0 {
		t.Errorf("core.AddrHash allocates %v per run, want 0", allocs)
	}
	_ = sink
}

// TestFingerprintDistinguishesArrangements pins the identity: the
// fingerprint keys on the source address sequence, so reordered requests are
// distinct entries.
func TestFingerprintDistinguishesArrangements(t *testing.T) {
	a := identitySrc(8)
	b := identitySrc(8)
	b[0].Addr, b[1].Addr = b[1].Addr, b[0].Addr
	if core.AddrHash(a) == core.AddrHash(b) {
		t.Error("swapped source addresses fingerprint identically")
	}
	if core.AddrHash(a) != core.AddrHash(identitySrc(8)) {
		t.Error("identical requests fingerprint differently")
	}
}
