package fault

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perm"
)

// TestExhaustiveLocalization verifies the acceptance criterion of the fault
// subsystem: the diagnoser exactly localizes every single stuck-at element
// fault — both polarities of all m(m+1)/2 · N/2 elements — for every order
// up to 5, and reports a healthy network healthy.
func TestExhaustiveLocalization(t *testing.T) {
	maxM := 5
	if testing.Short() {
		maxM = 3
	}
	for m := 1; m <= maxM; m++ {
		checked, err := ExhaustiveCheck(m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		n := 1 << uint(m)
		want := m * (m + 1) / 2 * (n / 2) * 2
		if checked != want {
			t.Fatalf("m=%d: checked %d faults, universe has %d", m, checked, want)
		}
		t.Logf("m=%d: localized all %d single stuck-at faults", m, checked)
	}
}

// TestDiagnoserProbeSetDeterministic pins that two independently built
// diagnosers at the same order use the same probe set — the dictionary
// construction is reproducible.
func TestDiagnoserProbeSetDeterministic(t *testing.T) {
	a, err := NewDiagnoser(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiagnoser(4)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Probes(), b.Probes()
	if len(pa) != len(pb) {
		t.Fatalf("probe counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if !pa[i].Equal(pb[i]) {
			t.Fatalf("probe %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
}

// TestDiagnoseUnknownSignature verifies that a double fault — outside the
// single-fault dictionary — reports neither healthy nor found rather than
// mislocalizing (unless the pair happens to mimic a single fault, which the
// chosen distant pair does not).
func TestDiagnoseUnknownSignature(t *testing.T) {
	const m = 3
	d, err := NewDiagnoser(m)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.New(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Faults: []Fault{
		{Kind: StuckCross, Elem: Element{MainStage: 0, Column: 0, Switch: 0}},
		{Kind: StuckCross, Elem: Element{MainStage: 2, Column: 0, Switch: 3}},
	}}
	inj, err := New(net, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := d.Diagnose(inj)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Healthy {
		t.Fatalf("double fault diagnosed healthy")
	}
}

// probeSetSignature folds a probe set into one FNV-1a hash, so a golden
// value pins the exact probes across releases, not just within one process.
func probeSetSignature(probes []perm.Perm) uint64 {
	h := fnv.New64a()
	for _, p := range probes {
		for _, d := range p {
			fmt.Fprintf(h, "%d,", d)
		}
		fmt.Fprint(h, ";")
	}
	return h.Sum64()
}

// TestDiagnoserGoldenSignature pins the diagnoser's observable construction
// for every supported order: the probe-set hash and the ambiguous-group
// count must match the golden values recorded when the dictionary was
// built. A change here means diagnoses are no longer comparable across
// versions and the goldens must be consciously re-recorded.
func TestDiagnoserGoldenSignature(t *testing.T) {
	golden := map[int]struct {
		probes    uint64
		ambiguous int
	}{
		1: {0xc2707a1aefbef8f5, 0},
		2: {0xc710b21486c19b95, 0},
		3: {0xd5f5d354b440fec6, 0},
		4: {0x7148da9da7c9d356, 0},
		5: {0x512a1c5ed41b540d, 0},
	}
	maxM := 5
	if testing.Short() {
		maxM = 3
	}
	for m := 1; m <= maxM; m++ {
		d, err := NewDiagnoser(m)
		if err != nil {
			t.Fatal(err)
		}
		sig := probeSetSignature(d.Probes())
		t.Logf("m=%d probes=%#x ambiguous=%d", m, sig, d.AmbiguousGroups())
		want, ok := golden[m]
		if !ok {
			t.Errorf("m=%d: no golden recorded", m)
			continue
		}
		if sig != want.probes {
			t.Errorf("m=%d: probe-set signature %#x, golden %#x", m, sig, want.probes)
		}
		if d.AmbiguousGroups() != want.ambiguous {
			t.Errorf("m=%d: %d ambiguous groups, golden %d", m, d.AmbiguousGroups(), want.ambiguous)
		}
		// The canonical battery is the probe prefix, so supervisors using
		// CanonicalProbes health-check with the same permutations the
		// dictionary was keyed on.
		canon := CanonicalProbes(m)
		for i := range canon {
			if !canon[i].Equal(d.Probes()[i]) {
				t.Errorf("m=%d: canonical probe %d diverges from the diagnoser's", m, i)
			}
		}
	}
}

// TestStuckAtSignatureGolden pins what every single stuck-at fault looks
// like from outside the network: for m = 1..4, both polarities of every
// element are routed over CanonicalProbes, once through the diagnoser's
// reference override and once through an Injector, and each probe's
// outcome — the delivered addresses, or the canonicalized text of the
// rejection — is folded into one FNV-1a hash. The dictionary is keyed on
// exactly these chunks, so a kernel change that moves the first rejected
// box or rewords its error changes the hash. The golden values were
// recorded on the scalar kernel (one bit per byte), before the
// word-parallel one replaced it, and must survive any re-implementation of
// the routing pass.
func TestStuckAtSignatureGolden(t *testing.T) {
	golden := map[int]uint64{
		1: 0xe73da56de716915b,
		2: 0x263301dc956860e1,
		3: 0xbe9a8448e172317e,
		4: 0x365a454daab8f751,
	}
	for m := 1; m <= 4; m++ {
		net, err := core.New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		probes := CanonicalProbes(m)
		d := &Diagnoser{m: m, ref: net, probes: probes}
		h := fnv.New64a()
		rejections := 0
		healthy, err := d.signature(Fault{}, probes)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "healthy=%s\n", healthy)
		for _, e := range Elements(m) {
			for _, cross := range []bool{false, true} {
				plan := StuckAt(e, cross)
				sig, err := d.signature(plan.Faults[0], probes)
				if err != nil {
					t.Fatal(err)
				}
				inj, err := New(net, plan, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := d.observe(inj); got != sig {
					t.Fatalf("m=%d %v: injector signature %q, reference override %q", m, plan.Faults[0], got, sig)
				}
				rejections += strings.Count(sig, "E:")
				fmt.Fprintf(h, "%v %v=%s\n", plan.Faults[0].Kind, e, sig)
			}
		}
		sum := h.Sum64()
		t.Logf("m=%d stuck-at signature hash %#x (%d rejected passes)", m, sum, rejections)
		if sum != golden[m] {
			t.Errorf("m=%d: stuck-at signature hash %#x, golden %#x", m, sum, golden[m])
		}
	}
}

// TestMultiStuckRejectionGolden pins which rejection a route reports when
// several stuck-at elements are live at once: for m = 3..7, 3,000 seeded
// random permutations per order are each routed through an Injector
// carrying 1-3 random StuckStraight/StuckCross elements, and each route's
// delivered addresses — or its rejection text, canonicalized as errChunk
// canonicalizes it — are folded into one FNV-1a hash per order. Several
// faults can make several nested networks of one main stage reject; the
// route must name the lowest-numbered of them, at that network's first
// failing column, as routing the nested networks one at a time does. The
// golden values were recorded on the kernel that routed the nested
// networks of a main stage one at a time, before it routed them side by
// side.
func TestMultiStuckRejectionGolden(t *testing.T) {
	golden := map[int]uint64{
		3: 0x08fdb90e220c39fd,
		4: 0x7b16a533f8be56bf,
		5: 0xa3dc9e54748ad22f,
		6: 0xb87710ed33facb0c,
		7: 0xf5a62f2b68eced4b,
	}
	const routes = 3000
	for m := 3; m <= 7; m++ {
		net, err := core.New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := net.Inputs()
		rng := rand.New(rand.NewSource(int64(m)))
		src := make([]core.Word, n)
		dst := make([]core.Word, n)
		h := fnv.New64a()
		rejections := 0
		for r := 0; r < routes; r++ {
			for i, d := range perm.Random(n, rng) {
				src[i] = core.Word{Addr: d, Data: uint64(i)}
			}
			plan := &Plan{}
			for f := 1 + rng.Intn(3); f > 0; f-- {
				i := rng.Intn(m)
				e := Element{MainStage: i, Column: rng.Intn(m - i), Switch: rng.Intn(n / 2)}
				kind := StuckStraight
				if rng.Intn(2) == 1 {
					kind = StuckCross
				}
				plan.Faults = append(plan.Faults, Fault{Kind: kind, Elem: e})
			}
			inj, err := New(net, plan, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := inj.RouteInto(dst, src); err != nil {
				rejections++
				fmt.Fprint(h, errChunk(err))
				continue
			}
			for _, wd := range dst {
				fmt.Fprintf(h, "%d,", wd.Addr)
			}
			fmt.Fprint(h, ";")
		}
		sum := h.Sum64()
		t.Logf("m=%d multi-fault route hash %#x (%d of %d routes rejected)", m, sum, rejections, routes)
		if sum != golden[m] {
			t.Errorf("m=%d: multi-fault route hash %#x, golden %#x", m, sum, golden[m])
		}
	}
}
