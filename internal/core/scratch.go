package core

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/gbn"
	"repro/internal/neterr"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// scratch bundles every per-route buffer of the pooled hot path: the main
// network's rewire buffer, one shared rewire buffer for the nested networks
// (boxes of a stage are routed serially within one call, so they can share),
// the splitter bit/control vectors sized for the widest box, the arbiter's
// level storage, and the destination-validation bitmap. A scratch belongs to
// exactly one Network (the routers point back at it) and is recycled through
// the Network's sync.Pool, so steady-state RouteInto calls allocate nothing.
type scratch struct {
	next     []Word  // main-network inter-stage rewire buffer
	sub      []Word  // nested-network inter-stage rewire buffer
	bits     []uint8 // BSN-slice input bits of the box being routed
	controls []bool  // switch settings of the box being routed
	work     []uint8 // arbiter tree-level storage
	seen     []bool  // destination-validation bitmap
	ov       Override
	main     mainRouter
}

func newScratch(n *Network) *scratch {
	N := n.Inputs()
	sc := &scratch{
		next:     make([]Word, N),
		sub:      make([]Word, N),
		bits:     make([]uint8, N),
		controls: make([]bool, N/2),
		work:     make([]uint8, arbiter.WorkSize(n.m)),
		seen:     make([]bool, N),
	}
	sc.main = mainRouter{n: n, sc: sc, nested: nestedRouter{n: n, sc: sc}}
	return sc
}

// mainRouter routes one main-GBN box — an entire nested network — in place.
type mainRouter struct {
	n      *Network
	sc     *scratch
	nested nestedRouter
}

// RouteBox implements gbn.InPlaceRouter.
func (r *mainRouter) RouteBox(box gbn.Box, lines []Word) error {
	r.nested.stage = box.Stage
	r.nested.mainIndex = box.Index
	return gbn.RunInPlace[Word](r.n.nested[box.Stage], lines, r.sc.sub, &r.nested)
}

// nestedRouter routes one splitter box of the nested network for the main
// stage currently set in stage: the BSN slice decodes address bit `stage`
// and the derived controls move the whole words.
type nestedRouter struct {
	n         *Network
	sc        *scratch
	stage     int
	mainIndex int
}

// RouteBox implements gbn.InPlaceRouter.
func (r *nestedRouter) RouteBox(box gbn.Box, lines []Word) error {
	nt := r.n.nested[r.stage]
	p := nt.BoxOrder(box.Stage)
	bits := r.sc.bits[:len(lines)]
	for j, wd := range lines {
		bits[j] = uint8(wiring.AddrBit(wd.Addr, r.stage, r.n.m))
	}
	controls := r.sc.controls[:len(lines)/2]
	if err := r.n.sps[p].ControlsInto(controls, bits, r.sc.work); err != nil {
		return fmt.Errorf("splitter sp(%d) on address bit %d: %w", p, r.stage, err)
	}
	if r.sc.ov != nil {
		lineBase := r.mainIndex*nt.Inputs() + box.Index*nt.BoxSize(box.Stage)
		r.sc.ov(r.stage, box.Stage, lineBase/2, controls, lines)
	}
	return splitter.ApplyInPlace(controls, lines)
}

// Override is the kernel's one per-column hook. It is called once per
// splitter box, after the splitter computes the box's controls and before
// the words move, with the box's address in the Plan.Control coordinate
// system: mainStage is the main-GBN stage i, column the nested-stage index j
// within it, and controls[x] is the exchange bit of global switch
// switchBase+x of that column (0 <= switchBase+x < N/2). words holds the
// box's 2*len(controls) lines as they enter the switch column, starting at
// global line 2*switchBase; at column 0 the boxes of main stage i together
// see that stage's whole input. Mutating controls in place changes how the
// words move; the self-routing control plane is not re-run, exactly like a
// hardware fault that corrupts a switch state after arbitration. The hook
// serves fault injection, Compile's recorder, ReplayWired's plan loader and
// RouteTraced's stage snapshots; it must not retain or modify words.
type Override func(mainStage, column, switchBase int, controls []bool, words []Word)

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
	for i := range sc.seen {
		sc.seen[i] = false
	}
	for i, wd := range src {
		if wd.Addr < 0 || wd.Addr >= N {
			return fmt.Errorf("bnb: destination addresses are not a permutation: entry %d -> %d out of range [0,%d): %w",
				i, wd.Addr, N, neterr.ErrNotPermutation)
		}
		if sc.seen[wd.Addr] {
			return fmt.Errorf("bnb: destination addresses are not a permutation: destination %d appears more than once: %w",
				wd.Addr, neterr.ErrNotPermutation)
		}
		sc.seen[wd.Addr] = true
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
