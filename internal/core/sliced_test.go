package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gbn"
	"repro/internal/perm"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// slicedRoute is everything the bit-sliced reference model observed on one
// route.
type slicedRoute struct {
	out []Word
	// stages[i] is the word vector entering main stage i; stages[m] is the
	// output.
	stages [][]Word
	// controls[i][j][k] is the exchange bit of global switch k in nested
	// column j of main stage i, the Plan.Control coordinates.
	controls [][][]bool
}

// column is one line's bits across the q one-bit slices: slices 0..m-1 are
// the address bits (slice 0 = MSB), slices m..q-1 the data bits, MSB first.
type column []uint8

// RouteSliced is the reference model the kernel is checked against: an
// explicit q-bit-slice simulation of Definition 5. Each word is decomposed
// into its m address bits and w data bits, every one-bit slice travels
// through its own plane of sw(1) columns, and within each nested network only
// the BSN slice computes controls — the other q-1 planes are slaved to them,
// exactly as the hardware wires the control broadcast. It shares only the
// topology and the splitters' scalar Controls with the kernel — it runs on
// gbn.RunInPlace, moves every slice, data slices included, column by
// column, and routes one nested network at a time — so agreeing with it
// shows that carrying the address planes and moving each word once at the
// end is faithful to the sliced hardware, and that Compile records the
// switch states the hardware would set.
func (n *Network) RouteSliced(words []Word) (*slicedRoute, error) {
	N := n.Inputs()
	if len(words) != N {
		return nil, fmt.Errorf("bnb: got %d words, want %d", len(words), N)
	}
	addrs := make(perm.Perm, N)
	for i, wd := range words {
		addrs[i] = wd.Addr
	}
	if err := addrs.Validate(); err != nil {
		return nil, fmt.Errorf("bnb: destination addresses are not a permutation: %w", err)
	}
	q := n.m + n.w
	cols := make([]column, N)
	for i, wd := range words {
		c := make(column, q)
		for l := 0; l < n.m; l++ {
			c[l] = uint8(wiring.AddrBit(wd.Addr, l, n.m))
		}
		for b := 0; b < n.w; b++ {
			c[n.m+b] = uint8(wd.Data >> uint(n.w-1-b) & 1)
		}
		cols[i] = c
	}
	run := &slicedRoute{stages: make([][]Word, n.m+1), controls: make([][][]bool, n.m)}
	for i := range run.controls {
		run.stages[i] = make([]Word, N)
		run.controls[i] = make([][]bool, n.m-i)
		for j := range run.controls[i] {
			run.controls[i][j] = make([]bool, N/2)
		}
	}
	main := &slicedMain{n: n, q: q, run: run, sub: make([]column, N)}
	if err := gbn.RunInPlace[column](n.nested[0], cols, make([]column, N), main); err != nil {
		return nil, fmt.Errorf("bnb: %w", err)
	}
	run.out = n.wordsOf(cols)
	run.stages[n.m] = run.out
	return run, nil
}

// wordsOf reassembles words from their slice columns.
func (n *Network) wordsOf(cols []column) []Word {
	out := make([]Word, len(cols))
	for j, c := range cols {
		addr := 0
		for l := 0; l < n.m; l++ {
			addr = wiring.SetAddrBit(addr, l, n.m, int(c[l]))
		}
		var data uint64
		for b := 0; b < n.w; b++ {
			data = data<<1 | uint64(c[n.m+b])
		}
		out[j] = Word{Addr: addr, Data: data}
	}
	return out
}

// slicedMain routes one main-GBN stage of the reference model, nested
// network by nested network, snapshotting the stage's input first.
type slicedMain struct {
	n   *Network
	q   int
	run *slicedRoute
	sub []column
}

func (r *slicedMain) RouteStage(stage int, lines []column) (int, error) {
	copy(r.run.stages[stage], r.n.wordsOf(lines))
	nt := r.n.nested[stage]
	size := nt.Inputs()
	for l := 0; l*size < len(lines); l++ {
		nested := &slicedNested{main: r, stage: stage, base: l * size}
		if err := gbn.RunInPlace[column](nt, lines[l*size:(l+1)*size], r.sub, nested); err != nil {
			return l, err
		}
	}
	return 0, nil
}

// slicedNested routes the columns of one nested network splitter box by
// splitter box: the BSN slice (slice stage) computes each box's controls,
// which every slice plane then applies to its own bits.
type slicedNested struct {
	main        *slicedMain
	stage, base int
}

func (r *slicedNested) RouteStage(stage int, lines []column) (int, error) {
	size := r.main.n.nested[r.stage].BoxSize(stage)
	for l := 0; l*size < len(lines); l++ {
		if err := r.routeBox(stage, r.base+l*size, lines[l*size:(l+1)*size]); err != nil {
			return l, err
		}
	}
	return 0, nil
}

// routeBox routes the splitter box of nested column `stage` whose first
// line is global line `first`.
func (r *slicedNested) routeBox(stage, first int, lines []column) error {
	n, q := r.main.n, r.main.q
	p := n.nested[r.stage].BoxOrder(stage)
	plane := make([]uint8, len(lines))
	for x, c := range lines {
		plane[x] = c[r.stage]
	}
	controls, err := n.sps[p].Controls(plane)
	if err != nil {
		return fmt.Errorf("splitter sp(%d) on slice %d: %w", p, r.stage, err)
	}
	copy(r.main.run.controls[r.stage][stage][first/2:], controls)
	moved := make([]column, len(lines))
	for x := range moved {
		moved[x] = make(column, q)
	}
	for s := 0; s < q; s++ {
		for x, c := range lines {
			plane[x] = c[s]
		}
		if err := splitter.ApplyInPlace(controls, plane); err != nil {
			return err
		}
		for x, b := range plane {
			moved[x][s] = b
		}
	}
	copy(lines, moved)
	return nil
}

// TestRouteSlicedMatchesRoute proves the bit-plane kernel is faithful to the
// q-plane sliced hardware: Route produces bit-identical outputs, and
// RouteTraced's snapshot of every main stage's input matches the reference
// model's word for word.
func TestRouteSlicedMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cfg := range []struct{ m, w int }{{1, 0}, {3, 0}, {3, 8}, {5, 16}, {6, 1}} {
		n, err := New(cfg.m, cfg.w)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			p := perm.Random(n.Inputs(), rng)
			words := make([]Word, n.Inputs())
			mask := uint64(1)<<uint(cfg.w) - 1
			for i, d := range p {
				words[i] = Word{Addr: d, Data: rng.Uint64() & mask}
			}
			atomic, err := n.Route(words)
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := n.RouteSliced(words)
			if err != nil {
				t.Fatal(err)
			}
			for j := range atomic {
				if atomic[j] != sliced.out[j] {
					t.Fatalf("m=%d w=%d: output %d differs: atomic %+v, sliced %+v",
						cfg.m, cfg.w, j, atomic[j], sliced.out[j])
				}
			}
			if !Delivered(sliced.out) {
				t.Fatalf("m=%d w=%d: sliced route misdelivered", cfg.m, cfg.w)
			}
			_, trace, err := n.RouteTraced(words)
			if err != nil {
				t.Fatal(err)
			}
			for i, snap := range trace {
				for j := range snap {
					if snap[j] != sliced.stages[i][j] {
						t.Fatalf("m=%d w=%d: snapshot %d line %d: traced %+v, sliced %+v",
							cfg.m, cfg.w, i, j, snap[j], sliced.stages[i][j])
					}
				}
			}
		}
	}
}

// TestRouteSlicedDataWidthBoundary checks w = 64 payloads survive the
// bit-plane decomposition exactly.
func TestRouteSlicedDataWidthBoundary(t *testing.T) {
	n, err := New(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	p := perm.Random(8, rng)
	words := make([]Word, 8)
	for i, d := range p {
		words[i] = Word{Addr: d, Data: rng.Uint64()}
	}
	sliced, err := n.RouteSliced(words)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p {
		if sliced.out[d].Data != words[i].Data {
			t.Fatalf("64-bit payload of input %d corrupted: %#x -> %#x",
				i, words[i].Data, sliced.out[d].Data)
		}
	}
}

func TestRouteSlicedValidation(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RouteSliced(make([]Word, 3)); err == nil {
		t.Error("RouteSliced accepted wrong count")
	}
	if _, err := n.RouteSliced(make([]Word, 8)); err == nil {
		t.Error("RouteSliced accepted duplicate destinations")
	}
}

// TestKernelSweepAgreesWithSliced checks the bit-plane kernel against the
// bit-sliced reference at every order from 1 to 12: N < 8 (a partial
// 8-line group in the address transposes), m = 8 and 9 (the first order
// whose addresses need a second byte), and orders whose boxes span several
// words (the multi-word plane unshuffle). Live RouteInto, into a separate
// buffer and in place, must deliver the reference's words — payloads are
// distinct, so every word's movement is checked — and Compile must record
// the reference's switch states and wire map.
func TestKernelSweepAgreesWithSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	for m := 1; m <= 12; m++ {
		n, err := New(m, m)
		if err != nil {
			t.Fatal(err)
		}
		N := n.Inputs()
		for _, p := range []perm.Perm{perm.Random(N, rng), perm.BitReversal(m), perm.Random(N, rng)} {
			src := make([]Word, N)
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(i)}
			}
			ref, err := n.RouteSliced(src)
			if err != nil {
				t.Fatalf("m=%d: RouteSliced: %v", m, err)
			}
			live := make([]Word, N)
			if err := n.RouteInto(live, src); err != nil {
				t.Fatalf("m=%d: RouteInto: %v", m, err)
			}
			inPlace := append([]Word(nil), src...)
			if err := n.RouteInto(inPlace, inPlace); err != nil {
				t.Fatalf("m=%d: in-place RouteInto: %v", m, err)
			}
			for j := range live {
				if live[j] != ref.out[j] || inPlace[j] != ref.out[j] {
					t.Fatalf("m=%d: output %d: kernel %+v, in place %+v, sliced %+v", m, j, live[j], inPlace[j], ref.out[j])
				}
			}
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d: Compile: %v", m, err)
			}
			for i, stage := range ref.controls {
				for j, col := range stage {
					for k, want := range col {
						if got := pl.Control(i, j, k); got != want {
							t.Fatalf("m=%d: control (%d,%d,%d) = %v, reference says %v", m, i, j, k, got, want)
						}
					}
				}
			}
			for j, wd := range ref.out {
				if got := pl.wire[j]; got != int32(wd.Data) {
					t.Fatalf("m=%d: wire[%d] = %d, reference delivers input %d", m, j, got, wd.Data)
				}
			}
		}
	}
}

// TestPlaneTransposeRoundTrip packs 30-bit addresses — four address bytes,
// the widest order wiring.MaxOrder allows — into planes and back: every
// plane bit must be its line's address bit, and unpacking must restore
// every address.
func TestPlaneTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const m, lines = 30, 128
	w := lines / 64
	sc := &scratch{m: m, planes: make([]uint64, m*w), addr: make([]int32, lines)}
	want := make([]int32, lines)
	for x := range want {
		want[x] = int32(rng.Intn(1 << m))
		sc.addr[x] = want[x]
	}
	sc.pack()
	for b := 0; b < m; b++ {
		for x := 0; x < lines; x++ {
			if got := sc.planes[b*w+x>>6] >> uint(x&63) & 1; got != uint64(want[x]>>uint(b)&1) {
				t.Fatalf("plane %d line %d = %d, address %#x", b, x, got, want[x])
			}
		}
	}
	clear(sc.addr)
	sc.unpack()
	for x, a := range sc.addr {
		if a != want[x] {
			t.Fatalf("line %d unpacked to %#x, want %#x", x, a, want[x])
		}
	}
}
