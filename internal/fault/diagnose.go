package fault

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// Diagnoser localizes a single stuck-at switching-element fault of a BNB
// network of order m from the outside: it routes a small set of probe
// permutations through the (possibly faulty) network and matches the
// observed output signature against a precomputed fault dictionary.
//
// Self-routing makes this work: the network computes its switch states from
// the probe addresses alone, so a stuck element deterministically misroutes
// a known subset of each probe, and the misdelivery pattern across probes
// encodes the element's position. The probe set starts from the structured
// families the interconnection literature uses as workloads — identity,
// bit-complement, the perfect-shuffle powers, bit-reversal — and is then
// extended, deterministically, with separating probes found by seeded
// search until every single stuck-at fault has a unique signature. For the
// orders this is built for (the dictionary is exhaustive over all
// m(m+1)/2 · N/2 elements × 2 polarities), diagnosis is exact.
//
// A Diagnoser is immutable after construction and safe for concurrent use.
type Diagnoser struct {
	m      int
	ref    *core.Network
	probes []perm.Perm
	// dict maps an output signature over the probe set to the unique
	// candidate fault producing it (Kind + Elem only; windows zeroed).
	dict map[string]Fault
	// healthy is the fault-free signature.
	healthy string
	// ambiguous counts candidate groups the separating search could not
	// split (functionally equivalent faults); zero in practice.
	ambiguous int
}

// separationBudget bounds the random separating probes tried per colliding
// candidate group before the group is declared functionally equivalent.
const separationBudget = 4000

// NewDiagnoser builds the probe set and fault dictionary for order m.
// Construction cost grows with the fault universe (m(m+1)/2 · 2^m elements),
// so it is intended for the small orders a diagnostic sweep probes; the
// exhaustive self-check in this package covers m <= 5.
func NewDiagnoser(m int) (*Diagnoser, error) {
	ref, err := core.New(m, 0)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	d := &Diagnoser{m: m, ref: ref}
	d.probes = CanonicalProbes(m)

	// Candidate universe: every element, both polarities, plus "healthy".
	elems := Elements(m)
	cands := make([]Fault, 0, 2*len(elems))
	for _, e := range elems {
		cands = append(cands,
			Fault{Kind: StuckStraight, Elem: e},
			Fault{Kind: StuckCross, Elem: e})
	}

	// Initial signatures over the canonical probes.
	sigs := make([]string, len(cands))
	for i, f := range cands {
		sig, err := d.signature(f, d.probes)
		if err != nil {
			return nil, err
		}
		sigs[i] = sig
	}
	healthy, err := d.signature(Fault{}, d.probes)
	if err != nil {
		return nil, err
	}
	d.healthy = healthy

	// Separate collisions (fault-fault, or fault-healthy) by appending
	// probes found with a seeded deterministic search.
	rng := rand.New(rand.NewSource(0x5eed<<8 | int64(m)))
	for {
		groups := make(map[string][]int)
		for i, sig := range sigs {
			groups[sig] = append(groups[sig], i)
		}
		var worst []int
		withHealthy := false
		if g, ok := groups[d.healthy]; ok {
			// A fault indistinguishable from healthy is the most urgent
			// collision: it would go entirely undetected.
			worst = g
			withHealthy = true
		} else {
			// Deterministic pick: the colliding group containing the
			// lowest candidate index (map iteration order would make the
			// probe set depend on the run).
			for i := range cands {
				if g := groups[sigs[i]]; len(g) > 1 {
					worst = g
					break
				}
			}
		}
		if worst == nil {
			break
		}
		probe, ok := d.separate(cands, worst, withHealthy, rng)
		if !ok {
			// Functionally equivalent within budget: record and give up on
			// this group by perturbing nothing further — mark ambiguity and
			// exclude the group from the dictionary below.
			d.ambiguous++
			// Salt the colliding signatures so the loop terminates; the
			// group's faults share one dictionary slot and Diagnose reports
			// the first, which the exhaustive check will surface as a
			// mismatch if it ever happens.
			for rank, i := range worst {
				if rank > 0 {
					sigs[i] += "!" + strconv.Itoa(i)
				}
			}
			continue
		}
		d.probes = append(d.probes, probe)
		for i, f := range cands {
			out, err := d.outputs(f, probe)
			if err != nil {
				return nil, err
			}
			sigs[i] += out
		}
		out, err := d.outputs(Fault{}, probe)
		if err != nil {
			return nil, err
		}
		d.healthy += out
	}

	d.dict = make(map[string]Fault, len(cands))
	for i, f := range cands {
		d.dict[sigs[i]] = f
	}
	return d, nil
}

// CanonicalProbes returns the structured probe permutations every health
// check starts from: identity, bit-complement, reversal, bit-reversal,
// butterfly, and the perfect-shuffle powers. They are the canonical prefix
// of the diagnoser's probe set and a cheap order-m health battery on their
// own — building them costs O(m·N), no fault dictionary — which is what the
// plane supervisor probes with at orders too large for exact diagnosis.
func CanonicalProbes(m int) []perm.Perm {
	n := 1 << uint(m)
	probes := []perm.Perm{perm.Identity(n), perm.BitComplement(m), perm.Reversal(n), perm.BitReversal(m), perm.Butterfly(m)}
	shuffle := perm.PerfectShuffle(m)
	s := shuffle
	for t := 1; t < m; t++ {
		probes = append(probes, s.Clone())
		s = s.Compose(shuffle)
	}
	return probes
}

// M returns the order the diagnoser was built for.
func (d *Diagnoser) M() int { return d.m }

// Probes returns the probe permutations the diagnoser routes, in order.
func (d *Diagnoser) Probes() []perm.Perm { return d.probes }

// AmbiguousGroups returns the number of candidate groups the separating
// search failed to split — functionally equivalent faults. Zero means the
// dictionary localizes every single stuck-at fault exactly.
func (d *Diagnoser) AmbiguousGroups() int { return d.ambiguous }

// outputs routes one probe on the reference network under the candidate
// fault (zero Fault means healthy) and returns its output signature chunk.
func (d *Diagnoser) outputs(f Fault, probe perm.Perm) (string, error) {
	n := d.ref.Inputs()
	src := make([]core.Word, n)
	for i, dest := range probe {
		src[i] = core.Word{Addr: dest, Data: uint64(i)}
	}
	dst := make([]core.Word, n)
	var ov core.Override
	if f.Kind == StuckStraight || f.Kind == StuckCross {
		ov = f.stick
	}
	if err := d.ref.RouteIntoOverride(dst, src, ov); err != nil {
		// A stuck element can unbalance a downstream splitter's input, in
		// which case the simulator rejects the pass instead of misrouting
		// silently. The rejection is deterministic and position-stamped, so
		// it is part of the fault's observable signature, not a failure of
		// the probe.
		return errChunk(err), nil
	}
	var b strings.Builder
	for j := range dst {
		b.WriteString(strconv.Itoa(dst[j].Addr))
		b.WriteByte(',')
	}
	b.WriteByte(';')
	return b.String(), nil
}

// errChunk canonicalizes a routing error into a signature chunk. The
// injector stamps its errors with the (run-dependent) cycle number and the
// transient classification; both are stripped so the oracle's chunks match
// the dictionary's, which are built on a bare reference network.
func errChunk(err error) string {
	s := err.Error()
	s = cyclePrefix.ReplaceAllString(s, "")
	s = strings.TrimPrefix(s, neterr.ErrTransient.Error()+": ")
	return "E:" + s + ";"
}

var cyclePrefix = regexp.MustCompile(`^fault: cycle \d+: `)

// signature concatenates the output chunks of every probe under the fault.
func (d *Diagnoser) signature(f Fault, probes []perm.Perm) (string, error) {
	var b strings.Builder
	for _, p := range probes {
		out, err := d.outputs(f, p)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

// bitPairProbe draws a permutation in which the destinations of each input
// pair {2t, 2t+1} differ only in one address bit (LSB-first position b).
// Every exchanged pair then keeps its remaining routing bits intact, so a
// stuck element in the column that decodes bit b swaps two words whose
// downstream paths agree: the corruption propagates cleanly to a two-output
// misdelivery instead of unbalancing a downstream splitter into the same
// rejection that every fault of that column produces.
func bitPairProbe(n, b int, rng *rand.Rand) perm.Perm {
	q := perm.Random(n/2, rng)
	p := make(perm.Perm, n)
	low := 1<<uint(b) - 1
	for t := 0; t < n/2; t++ {
		base := (q[t]&^low)<<1 | q[t]&low // q[t] with a zero spliced in at bit b
		flip := rng.Intn(2) << uint(b)
		p[2*t] = base | flip
		p[2*t+1] = base | (flip ^ 1<<uint(b))
	}
	return p
}

// msbHalfProbe draws a permutation that maps each half of the inputs onto
// one half of the outputs: MSB(p[i]) = MSB(i) when ones is false, the
// complement when true. Such probes defeat the arbiter's rigidity in the
// final column of main stage 0: with every input pair of a splitter
// homogeneous in the sorted bit, no node self-generates an orienting flag
// chain, and all 2x2 elements of the last column settle straight (ones
// false) or crossed (ones true) instead of the alternating pattern that
// nearly every permutation produces. A stuck-at element of the polarity the
// rigid pattern would mask is forced to act — which is what makes otherwise
// signature-identical last-column faults distinguishable. Uniform probes
// reach these states at odds well below 1 in 200000.
func msbHalfProbe(n int, ones bool, rng *rand.Rand) perm.Perm {
	h := n / 2
	q := perm.Random(h, rng)
	r := perm.Random(h, rng)
	p := make(perm.Perm, n)
	for i := 0; i < h; i++ {
		if ones {
			p[i] = q[i] + h
			p[h+i] = r[i]
		} else {
			p[i] = q[i]
			p[h+i] = r[i] + h
		}
	}
	return p
}

// separate searches for a probe permutation splitting the candidate group:
// one under which at least two members — counting healthy as a member when
// the group collides with the healthy signature — produce different
// outputs. The search is deterministic in rng and cycles uniform random
// permutations with the structured bitPairProbe and msbHalfProbe families,
// whose targeted symmetry breaking reaches faults uniform sampling
// practically cannot.
func (d *Diagnoser) separate(cands []Fault, group []int, withHealthy bool, rng *rand.Rand) (perm.Perm, bool) {
	n := d.ref.Inputs()
	for try := 0; try < separationBudget; try++ {
		var probe perm.Perm
		switch try % 4 {
		case 0:
			probe = perm.Random(n, rng)
		case 1:
			probe = msbHalfProbe(n, false, rng)
		case 2:
			probe = msbHalfProbe(n, true, rng)
		default:
			probe = bitPairProbe(n, rng.Intn(d.m), rng)
		}
		first := ""
		if withHealthy {
			out, err := d.outputs(Fault{}, probe)
			if err != nil {
				return nil, false
			}
			first = out
		}
		split := false
		for _, i := range group {
			out, err := d.outputs(cands[i], probe)
			if err != nil {
				return nil, false
			}
			if first == "" {
				first = out
				continue
			}
			if out != first {
				split = true
				break
			}
		}
		if split {
			return probe, true
		}
	}
	return nil, false
}

// Diagnosis is the outcome of one probing pass.
type Diagnosis struct {
	// Healthy reports that every probe delivered correctly.
	Healthy bool
	// Found reports that the signature matched a dictionary entry; Fault
	// then carries the localized defect (Kind and Elem; windows zero).
	Found bool
	// Fault is the localized single stuck-at fault when Found.
	Fault Fault
	// Probes is the number of probe permutations routed.
	Probes int
}

// Diagnose routes the probe set through the oracle — a possibly faulty
// network of the diagnoser's order — and localizes its single stuck-at
// element fault. The oracle must misdeliver (or reject deterministically)
// rather than fail verification: wrap it with a non-verifying Injector, or
// hand over any raw network. A signature matching no dictionary entry (a
// multiple fault, or a fault model outside the dictionary) reports
// !Healthy, !Found.
func (d *Diagnoser) Diagnose(oracle Router) (Diagnosis, error) {
	if oracle.Inputs() != d.ref.Inputs() {
		return Diagnosis{}, fmt.Errorf("fault: oracle has %d ports, diagnoser built for %d", oracle.Inputs(), d.ref.Inputs())
	}
	sig := d.observe(oracle)
	diag := Diagnosis{Probes: len(d.probes)}
	if sig == d.healthy {
		diag.Healthy = true
		return diag, nil
	}
	if f, ok := d.dict[sig]; ok {
		diag.Found = true
		diag.Fault = f
	}
	return diag, nil
}

// observe routes the probe set through the oracle and concatenates one
// chunk per probe: the delivered addresses, or the canonicalized rejection.
func (d *Diagnoser) observe(oracle Router) string {
	n := d.ref.Inputs()
	src := make([]core.Word, n)
	dst := make([]core.Word, n)
	var b strings.Builder
	for _, probe := range d.probes {
		for i, dest := range probe {
			src[i] = core.Word{Addr: dest, Data: uint64(i)}
		}
		if err := oracle.RouteInto(dst, src); err != nil {
			// Deterministic mid-network rejections are observable evidence
			// (see errChunk); fold them into the signature.
			b.WriteString(errChunk(err))
			continue
		}
		for j := range dst {
			b.WriteString(strconv.Itoa(dst[j].Addr))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	return b.String()
}

// ExhaustiveCheck injects every single stuck-at element fault of an order-m
// BNB network — both polarities of all m(m+1)/2 · N/2 elements — and
// verifies the diagnoser localizes each one exactly, plus that a healthy
// network is reported healthy. It returns the number of faults checked.
// Feasible for small m (the self-test of the diagnosis argument; m <= 5 is
// exercised in the tests and the availability report).
func ExhaustiveCheck(m int) (int, error) {
	d, err := NewDiagnoser(m)
	if err != nil {
		return 0, err
	}
	if d.AmbiguousGroups() != 0 {
		return 0, fmt.Errorf("fault: order %d dictionary has %d ambiguous group(s)", m, d.AmbiguousGroups())
	}
	net, err := core.New(m, 0)
	if err != nil {
		return 0, err
	}
	diag, err := d.Diagnose(net)
	if err != nil {
		return 0, err
	}
	if !diag.Healthy {
		return 0, fmt.Errorf("fault: healthy network diagnosed as faulty: %+v", diag)
	}
	checked := 0
	for _, e := range Elements(m) {
		for _, cross := range []bool{false, true} {
			inj, err := New(net, StuckAt(e, cross), Options{})
			if err != nil {
				return checked, err
			}
			diag, err := d.Diagnose(inj)
			if err != nil {
				return checked, err
			}
			want := StuckStraight
			if cross {
				want = StuckCross
			}
			if !diag.Found || diag.Fault.Kind != want || diag.Fault.Elem != e {
				return checked, fmt.Errorf("fault: %v at %v diagnosed as %+v", want, e, diag)
			}
			checked++
		}
	}
	return checked, nil
}
