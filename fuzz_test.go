package bnbnet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// FuzzPooledPathUnderFault drives the pooled zero-allocation path at a
// fuzz-chosen order with a fuzz-derived permutation, healthy and under a
// single injected fault. Healthy passes must deliver bit-exactly; faulty
// passes must either surface an error or deliver exactly (a stuck-at that
// matches the natural switch orientation never fires) — and the
// always-corrupting fault kinds (dead link, tag flip) must be detected.
func FuzzPooledPathUnderFault(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 9})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x01})
	f.Add([]byte("chaos engineering"))
	nets := make(map[int]*BNB)
	for m := 1; m <= 5; m++ {
		b, err := NewBNB(m, 0)
		if err != nil {
			f.Fatal(err)
		}
		nets[m] = b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := 1
		if len(data) > 0 {
			m = 1 + int(data[0])%5
			data = data[1:]
		}
		b := nets[m]
		n := 1 << m
		p := permFromBytes(n, data)
		src := make([]Word, n)
		for i, d := range p {
			src[i] = Word{Addr: d, Data: uint64(i)}
		}
		dst := make([]Word, n)
		if err := b.RouteInto(dst, src); err != nil {
			t.Fatalf("healthy pooled route rejected valid permutation %v: %v", p, err)
		}
		for i, d := range p {
			if dst[d].Addr != d || dst[d].Data != uint64(i) {
				t.Fatalf("healthy pooled route misdelivered input %d of %v", i, p)
			}
		}

		// One injected fault, selected by the tail of the fuzz input.
		pick := 0
		for _, c := range data {
			pick = pick*31 + int(c)
		}
		if pick < 0 {
			pick = -pick
		}
		elems := FaultElements(m)
		var ft Fault
		switch pick % 4 {
		case 0:
			ft = Fault{Kind: FaultStuckStraight, Elem: elems[pick%len(elems)]}
		case 1:
			ft = Fault{Kind: FaultStuckCross, Elem: elems[pick%len(elems)]}
		case 2:
			ft = Fault{Kind: FaultDeadLink, Port: pick % n}
		default:
			ft = Fault{Kind: FaultTagFlip, Port: pick % n, Bit: pick % m}
		}
		fn, err := NewFaultyNetwork(b, &FaultPlan{Faults: []Fault{ft}})
		if err != nil {
			t.Fatalf("fault %v rejected: %v", ft, err)
		}
		fdst := make([]Word, n)
		err = fn.RouteInto(fdst, src)
		if err == nil {
			for j := range fdst {
				if fdst[j].Addr != j {
					t.Fatalf("silent misrouting under %v: output %d holds address %d (perm %v)",
						ft, j, fdst[j].Addr, p)
				}
			}
			if ft.Kind == FaultDeadLink || ft.Kind == FaultTagFlip {
				t.Fatalf("corrupting fault %v went undetected (perm %v)", ft, p)
			}
		}
	})
}

// permFromBytes derives a permutation of n elements deterministically from
// fuzz input: a Fisher-Yates shuffle driven by the data bytes (cycled). Any
// byte string yields a valid permutation, so the fuzzer explores routing
// behaviour, not input validation.
func permFromBytes(n int, data []byte) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	if len(data) == 0 {
		return p
	}
	k := 0
	next := func() int {
		b := int(data[k%len(data)])
		k++
		return b
	}
	for i := n - 1; i > 0; i-- {
		j := (next()<<8 | next()) % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FuzzPlanRoundTrip drives the compiled-plan surface with fuzz-derived
// permutations at fuzz-chosen orders: Compile must accept every valid
// permutation, Replay must deliver word-for-word what the live self-routing
// pass delivers, Perm must give back the compiled permutation, and a batch
// whose addresses no longer match the plan must be rejected with
// ErrPlanMismatch, naming the readdressed input, instead of misdelivering —
// the contract the reconfiguration pre-warm path leans on when it replays
// old plans on a fresh plane.
func FuzzPlanRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2})
	f.Add([]byte{0xff, 0x3c, 0x00, 0x81})
	f.Add([]byte("hitless reconfiguration"))
	nets := make(map[int]*BNB)
	for m := 1; m <= 5; m++ {
		b, err := NewBNB(m, 0)
		if err != nil {
			f.Fatal(err)
		}
		nets[m] = b
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := 1
		if len(data) > 0 {
			m = 1 + int(data[0])%5
			data = data[1:]
		}
		b := nets[m]
		n := 1 << m
		p := permFromBytes(n, data)
		pl, err := b.Compile(p)
		if err != nil {
			t.Fatalf("Compile rejected valid permutation %v: %v", p, err)
		}
		if got := pl.Perm(); !got.Equal(p) {
			t.Fatalf("Perm() = %v, compiled %v", got, p)
		}
		src := make([]Word, n)
		for i, d := range p {
			src[i] = Word{Addr: d, Data: uint64(i) | uint64(d)<<32}
		}
		live := make([]Word, n)
		if err := b.RouteInto(live, src); err != nil {
			t.Fatalf("live route rejected %v: %v", p, err)
		}
		replayed := make([]Word, n)
		if err := b.Replay(pl, replayed, src); err != nil {
			t.Fatalf("Replay rejected the batch it was compiled from (%v): %v", p, err)
		}
		for j := range live {
			if replayed[j] != live[j] {
				t.Fatalf("replay diverges from live routing at output %d: %+v vs %+v (perm %v)",
					j, replayed[j], live[j], p)
			}
		}
		// Mutate one source address so the batch no longer matches the plan:
		// Replay must refuse with ErrPlanMismatch, never misdeliver.
		pick := 0
		for _, c := range data {
			pick = pick*17 + int(c)
		}
		if pick < 0 {
			pick = -pick
		}
		i := pick % n
		mutated := make([]Word, n)
		copy(mutated, src)
		mutated[i].Addr = (mutated[i].Addr + 1) % n
		err = b.Replay(pl, replayed, mutated)
		if !errors.Is(err, ErrPlanMismatch) {
			t.Fatalf("Replay of a mutated batch (input %d readdressed): err = %v, want ErrPlanMismatch", i, err)
		}
		if want := fmt.Sprintf("input %d addressed to %d,", i, mutated[i].Addr); !strings.Contains(err.Error(), want) {
			t.Fatalf("mismatch error %q does not name the readdressed input (want %q)", err, want)
		}
		// A plan from a different order must be rejected the same way.
		if m > 1 {
			other := nets[m-1]
			foreign := make([]Word, other.Inputs())
			for j := range foreign {
				foreign[j] = Word{Addr: j, Data: uint64(j)}
			}
			if err := other.Replay(pl, make([]Word, other.Inputs()), foreign); !errors.Is(err, ErrPlanMismatch) {
				t.Fatalf("Replay of an order-%d plan on an order-%d network: err = %v, want ErrPlanMismatch", m, m-1, err)
			}
		}
	})
}

// FuzzAllNetworksAgree routes the fuzz-derived permutation through every
// network and requires all of them to deliver — a differential fuzz harness
// over seven independent implementations of the same contract.
func FuzzAllNetworksAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0x01, 0x7f})
	f.Add([]byte("bnb-self-routing-permutation-network"))
	const m = 4
	nets := make([]Network, 0, 7)
	for _, build := range []func() (Network, error){
		func() (Network, error) { return NewBNB(m, 0) },
		func() (Network, error) { return New("batcher", m) },
		func() (Network, error) { return New("koppelman", m) },
		func() (Network, error) { return New("benes", m) },
		func() (Network, error) { return New("waksman", m) },
		func() (Network, error) { return New("bitonic", m) },
		func() (Network, error) { return NewCrossbar(1 << m) },
	} {
		n, err := build()
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, n)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := permFromBytes(1<<m, data)
		for _, n := range nets {
			out, err := n.RoutePerm(p)
			if err != nil {
				t.Fatalf("%s: %v", n.Name(), err)
			}
			for j, wd := range out {
				if wd.Addr != j {
					t.Fatalf("%s misrouted output %d (perm %v)", n.Name(), j, p)
				}
				if int(out[j].Data) < 0 || int(out[j].Data) >= 1<<m {
					t.Fatalf("%s corrupted payload at output %d", n.Name(), j)
				}
			}
			// Payload integrity: output p[i] carries i.
			for i, d := range p {
				if out[d].Data != uint64(i) {
					t.Fatalf("%s lost payload of input %d", n.Name(), i)
				}
			}
		}
	})
}

// FuzzCompletePerm checks the padding helper against arbitrary partial
// assignments: whenever Complete accepts, the result must be a valid
// permutation preserving the defined entries; whenever it rejects, the
// input must genuinely contain a duplicate or out-of-range entry.
func FuzzCompletePerm(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{255, 255})
	f.Add([]byte{7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		n := len(data)
		partial := make([]int, n)
		for i, b := range data {
			if b >= 128 {
				partial[i] = -1
			} else {
				partial[i] = int(b) % (n + 1) // occasionally out of range
			}
		}
		p, err := CompletePerm(partial)
		if err != nil {
			// Must be a real violation.
			seen := map[int]bool{}
			violation := false
			for _, d := range partial {
				if d == -1 {
					continue
				}
				if d < 0 || d >= n || seen[d] {
					violation = true
					break
				}
				seen[d] = true
			}
			if !violation {
				t.Fatalf("Complete rejected a repairable input %v: %v", partial, err)
			}
			return
		}
		if len(p) != n {
			t.Fatalf("Complete returned %d entries for %d inputs", len(p), n)
		}
		seen := make([]bool, n)
		for i, d := range p {
			if d < 0 || d >= n || seen[d] {
				t.Fatalf("Complete produced invalid permutation %v", p)
			}
			seen[d] = true
			if partial[i] != -1 && partial[i] != d {
				t.Fatalf("Complete changed defined entry %d", i)
			}
		}
	})
}

// FuzzBNBPayloads routes fixed permutations with fuzz-controlled payloads
// and verifies bit-exact delivery, exercising the slaved-slice model.
func FuzzBNBPayloads(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	n, err := NewBNB(3, 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := permFromBytes(8, data)
		words := make([]Word, 8)
		for i, d := range p {
			var payload uint64
			for b := 0; b < 8; b++ {
				if len(data) > 0 {
					payload = payload<<8 | uint64(data[(i*8+b)%len(data)])
				}
			}
			words[i] = Word{Addr: d, Data: payload}
		}
		out, err := n.Route(words)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range p {
			if out[d].Data != words[i].Data {
				t.Fatalf("payload of input %d corrupted: %#x -> %#x", i, words[i].Data, out[d].Data)
			}
		}
	})
}
