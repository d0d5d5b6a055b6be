package core

import (
	"fmt"

	"repro/internal/gbn"
	"repro/internal/neterr"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// scratch bundles every per-route buffer of the pooled hot path: the main
// network's rewire buffer, one shared rewire buffer for the nested networks
// (the nested networks of a stage are routed serially, so they can share),
// the BSN slice of the nested network being routed as a bitset plus its
// unshuffle buffer, the packed controls of the column being routed, the
// arbiter's scratch, and the destination-validation bitmap. A scratch
// belongs to exactly one Network (the routers point back at it) and is
// recycled through the Network's sync.Pool, so steady-state RouteInto calls
// allocate nothing.
type scratch struct {
	next  []Word   // main-network inter-stage rewire buffer
	sub   []Word   // nested-network inter-stage rewire buffer
	slice []uint64 // BSN slice: address bit i of every line, one bit per line
	spare []uint64 // the slice's unshuffle buffer
	ctl   []uint64 // packed switch controls of the column being routed
	work  []uint64 // splitter column scratch
	seen  []uint64 // destination-validation bitmap
	ov    Override
	main  mainRouter
}

func newScratch(n *Network) *scratch {
	N := n.Inputs()
	words := (N + 63) / 64
	sc := &scratch{
		next:  make([]Word, N),
		sub:   make([]Word, N),
		slice: make([]uint64, words),
		spare: make([]uint64, words),
		ctl:   make([]uint64, (N/2+63)/64),
		work:  make([]uint64, splitter.WorkWords(N)),
		seen:  make([]uint64, words),
	}
	sc.main = mainRouter{n: n, sc: sc, nested: nestedRouter{n: n, sc: sc}}
	return sc
}

// mainRouter routes one main-GBN stage: each box is a whole nested network,
// routed in place by the nested GBN.
type mainRouter struct {
	n      *Network
	sc     *scratch
	nested nestedRouter
}

// RouteStage implements gbn.StageRouter. Before a nested network runs, it
// gathers the network's BSN slice — address bit `stage` of every line —
// into a bitset, which the nested router then carries through the switch
// columns and unshuffles alongside the words.
func (r *mainRouter) RouteStage(stage int, lines []Word) (int, error) {
	nt := r.n.nested[stage]
	size := nt.Inputs()
	shift := uint(r.n.m - 1 - stage)
	nr := &r.nested
	nr.stage, nr.order = stage, nt.M()
	for l := 0; l*size < len(lines); l++ {
		box := lines[l*size : (l+1)*size]
		nr.mainIndex = l
		nr.slice, nr.spare = r.sc.slice[:(size+63)/64], r.sc.spare[:(size+63)/64]
		clear(nr.slice)
		for j, wd := range box {
			nr.slice[j>>6] |= uint64(wd.Addr>>shift&1) << uint(j&63)
		}
		if err := gbn.RunInPlace[Word](nt, box, r.sc.sub[:size], nr); err != nil {
			return l, err
		}
	}
	return 0, nil
}

// nestedRouter routes one switch column of the nested network set up by
// the main router: the column's splitters read the BSN slice, and their
// controls move both the whole words and the slice.
type nestedRouter struct {
	n            *Network
	sc           *scratch
	stage, order int      // main stage i and the nested network's order m-i
	mainIndex    int      // the nested network's box index in main stage i
	slice, spare []uint64 // BSN slice of the nested network and its buffer
}

// RouteStage implements gbn.StageRouter for nested column `column`.
func (r *nestedRouter) RouteStage(column int, lines []Word) (int, error) {
	p := r.order - column
	ctl := r.sc.ctl[:(len(lines)/2+63)/64]
	if box, err := r.n.sps[p].ColumnControls(ctl, r.slice, r.sc.work, len(lines)); err != nil {
		return box, fmt.Errorf("splitter sp(%d) on address bit %d: %w", p, r.stage, err)
	}
	if r.sc.ov != nil {
		r.sc.ov(r.stage, column, r.mainIndex*len(lines)/2, ctl, lines)
	}
	splitter.Exchange(ctl, lines)
	if p > 1 {
		// The slice follows the words through the switches and through the
		// unshuffle the runner applies after this column; after the last
		// column nothing reads it.
		splitter.ExchangeBits(ctl, r.slice)
		wiring.UnshuffleBits(r.spare, r.slice, p)
		r.slice, r.spare = r.spare, r.slice
	}
	return 0, nil
}

// Override is the kernel's one per-column hook. It is called once per
// nested column of every nested network, after the column's splitters
// compute their controls and before the words move, with the column's
// address in the Plan.Control coordinate system: mainStage is the main-GBN
// stage i, column the nested-stage index j within it, and the nested
// network's len(words)/2 switches are global switches switchBase to
// switchBase+len(words)/2-1 of that column (0 <= switchBase < N/2).
// controls is their exchange bits in the Plan's column layout: bit t of
// controls[t>>6] is global switch switchBase+t, and the bits at and past
// len(words)/2 are zero and must stay zero. words holds the nested
// network's lines as they enter the switch column, starting at global line
// 2*switchBase; at column 0 the nested networks of main stage i together
// see that stage's whole input. Setting or clearing bits of controls
// changes how the words move; the self-routing control plane is not re-run,
// exactly like a hardware fault that corrupts a switch state after
// arbitration. The hook serves fault injection, Compile's recorder,
// ReplayWired's plan loader and RouteTraced's stage snapshots; it must not
// retain controls or words, nor modify words.
type Override func(mainStage, column, switchBase int, controls []uint64, words []Word)

// RouteIntoOverride behaves like RouteInto with the override hook installed
// for the duration of the route. Input validation is unchanged — the offered
// addresses must still form a permutation — but the override may corrupt
// switch states, so the output can violate the delivery contract without an
// error being returned; callers that need detection must check Delivered on
// the result. A nil override is exactly RouteInto. Safe for concurrent use.
func (n *Network) RouteIntoOverride(dst, src []Word, ov Override) error {
	return n.routeInto(dst, src, ov)
}

// RouteInto self-routes src into dst — the pooled, allocation-free
// counterpart of Route. dst and src must both have length N; dst may be the
// same slice as src (the route then runs fully in place) but must not
// partially overlap it. The destination addresses must form a permutation of
// {0,...,N-1}; on return dst[j] holds the word addressed to output j. All
// per-route scratch comes from the network's pool, so after warm-up the call
// performs zero heap allocations. Safe for concurrent use.
func (n *Network) RouteInto(dst, src []Word) error {
	return n.routeInto(dst, src, nil)
}

// routeInto is the routing kernel: the only code that evaluates the network.
// Route, RouteTraced, Compile, ReplayWired and the fault injectors all run
// it, differing only in the Override they install.
func (n *Network) routeInto(dst, src []Word, ov Override) error {
	N := n.Inputs()
	if len(src) != N {
		return fmt.Errorf("bnb: got %d words, want %d: %w", len(src), N, neterr.ErrBadSize)
	}
	if len(dst) != N {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), N, neterr.ErrBadSize)
	}
	sc := n.pool.Get().(*scratch)
	sc.ov = ov
	defer func() {
		sc.ov = nil
		n.pool.Put(sc)
	}()
	clear(sc.seen)
	for i, wd := range src {
		if wd.Addr < 0 || wd.Addr >= N {
			return fmt.Errorf("bnb: destination addresses are not a permutation: entry %d -> %d out of range [0,%d): %w",
				i, wd.Addr, N, neterr.ErrNotPermutation)
		}
		bit := uint64(1) << uint(wd.Addr&63)
		if sc.seen[wd.Addr>>6]&bit != 0 {
			return fmt.Errorf("bnb: destination addresses are not a permutation: destination %d appears more than once: %w",
				wd.Addr, neterr.ErrNotPermutation)
		}
		sc.seen[wd.Addr>>6] |= bit
	}
	copy(dst, src)
	if err := gbn.RunInPlace[Word](n.main, dst, sc.next, &sc.main); err != nil {
		return fmt.Errorf("bnb: %w", err)
	}
	return nil
}

// RoutePermInto routes a bare permutation into dst without allocating:
// input i carries destination p[i] and data equal to the source index.
func (n *Network) RoutePermInto(dst []Word, p []int) error {
	if len(p) != n.Inputs() {
		return fmt.Errorf("bnb: permutation length %d, want %d: %w", len(p), n.Inputs(), neterr.ErrBadSize)
	}
	if len(dst) != n.Inputs() {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), n.Inputs(), neterr.ErrBadSize)
	}
	for i, d := range p {
		dst[i] = Word{Addr: d, Data: uint64(i)}
	}
	return n.RouteInto(dst, dst)
}
