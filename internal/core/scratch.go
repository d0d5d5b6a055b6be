package core

import (
	"fmt"

	"repro/internal/gbn"
	"repro/internal/neterr"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// scratch bundles every per-route buffer of the pooled hot path: the main
// network's rewire buffer, the nested networks' rewire buffer, the BSN
// slice of the main stage being routed as a bitset plus its unshuffle
// buffer, the packed controls of the column being routed, the splitter
// column's scratch, the destination-validation bitmap, and Compile's word
// vector and recorder. A scratch belongs to exactly one Network (the
// routers point back at it) and is recycled through the Network's
// sync.Pool, so steady-state RouteInto calls allocate nothing.
type scratch struct {
	next  []Word   // main-network inter-stage rewire buffer
	sub   []Word   // nested-network inter-stage rewire buffer
	words []Word   // Compile's word vector
	slice []uint64 // BSN slice: address bit i of every line, one bit per line
	spare []uint64 // the slice's unshuffle buffer
	ctl   []uint64 // packed switch controls of the column being routed
	work  []uint64 // splitter column scratch
	seen  []uint64 // destination-validation bitmap
	ov    Override
	main  mainRouter
	// cols is the switch-column image of the plan being compiled, and
	// record the recorder writing it, bound to this scratch once so that
	// Compile creates no closure.
	cols   []uint64
	record Override
}

func newScratch(n *Network) *scratch {
	N := n.Inputs()
	words := (N + 63) / 64
	sc := &scratch{
		next:  make([]Word, N),
		sub:   make([]Word, N),
		words: make([]Word, N),
		slice: make([]uint64, words),
		spare: make([]uint64, words),
		ctl:   make([]uint64, columnWords(n.m)),
		work:  make([]uint64, splitter.WorkWords(N)),
		seen:  make([]uint64, words),
	}
	sc.main = mainRouter{n: n, sc: sc, nested: nestedRouter{n: n, sc: sc}}
	sc.record = sc.recordColumn
	return sc
}

// recordColumn is Compile's recorder: it copies every column's controls
// into the plan's image.
func (sc *scratch) recordColumn(mainStage, column int, controls []uint64, _ []Word) {
	copy(sc.cols[colIndex(sc.main.n.m, mainStage, column)*len(controls):], controls)
}

// mainRouter routes one main-GBN stage, whose boxes are the stage's 2^i
// nested networks: all of them in one pass, side by side, as copies of one
// nested GBN.
type mainRouter struct {
	n      *Network
	sc     *scratch
	nested nestedRouter
}

// RouteStage implements gbn.StageRouter. It gathers the stage's BSN slice
// — address bit `stage` of every line — into a bitset, which the nested
// router then carries through the switch columns and unshuffles alongside
// the words, and runs the nested GBN over all N lines, so each nested
// column is one pass over the whole vector. A rejection names the same
// nested network, column and box as routing the networks one at a time:
// the lowest-numbered failing network, at its first failing column.
func (r *mainRouter) RouteStage(stage int, lines []Word) (int, error) {
	nt := r.n.nested[stage]
	shift := uint(r.n.m - 1 - stage)
	nr := &r.nested
	nr.stage, nr.order = stage, nt.M()
	nr.slice, nr.spare = r.sc.slice, r.sc.spare
	nr.failed, nr.err = len(lines)/nt.Inputs(), nil
	clear(nr.slice)
	for j, wd := range lines {
		nr.slice[j>>6] |= uint64(wd.Addr>>shift&1) << uint(j&63)
	}
	err := gbn.RunInPlace[Word](nt, lines, r.sc.sub, nr)
	if nr.err != nil {
		return nr.failed, nr.err
	}
	return 0, err
}

// nestedRouter routes one switch column of every nested network of the
// main stage set up by the main router: the column's splitters read the BSN
// slice, and their controls move both the whole words and the slice.
type nestedRouter struct {
	n            *Network
	sc           *scratch
	stage, order int      // main stage i and the nested networks' order m-i
	slice, spare []uint64 // BSN slice of the main stage and its buffer
	// failed is the lowest-numbered nested network a splitter has rejected
	// so far (the stage's network count while none has), and err that
	// network's rejection at its first failing column.
	failed int
	err    error
}

// RouteStage implements gbn.StageRouter for nested column `column`.
func (r *nestedRouter) RouteStage(column int, lines []Word) (int, error) {
	p := r.order - column
	if box, err := r.n.sps[p].ColumnControls(r.sc.ctl, r.slice, r.sc.work, len(lines)); err != nil {
		// Column j of a nested network holds 2^j boxes. The networks below
		// the rejected one still get their controls, so the pass goes on,
		// and a lower network failing at a later column takes over. The
		// text is the one the runner gave each network routed alone.
		if l := box >> uint(column); l < r.failed {
			r.failed = l
			r.err = fmt.Errorf("gbn: stage %d box %d: splitter sp(%d) on address bit %d: %w",
				column, box&(1<<uint(column)-1), p, r.stage, err)
		}
	}
	if r.sc.ov != nil {
		r.sc.ov(r.stage, column, r.sc.ctl, lines)
	}
	splitter.Exchange(r.sc.ctl, lines)
	if p > 1 {
		// The slice follows the words through the switches and through the
		// unshuffle the runner applies after this column; after the last
		// column nothing reads it.
		splitter.ExchangeBits(r.sc.ctl, r.slice)
		wiring.UnshuffleBits(r.spare, r.slice, p)
		r.slice, r.spare = r.spare, r.slice
	}
	return 0, nil
}

// Override is the kernel's one per-column hook. It is called once per
// (main stage, nested column) — m(m+1)/2 times per route — after the
// column's splitters compute their controls and before the words move:
// mainStage is the main-GBN stage i and column the nested-stage index j
// within it, the coordinates of Plan.Control. The nested networks of a main
// stage are routed side by side, so one call covers the column in all of
// them: controls holds the exchange bits of the column's N/2 switches in
// the Plan's column layout — bit k of controls[k>>6] is switch k, joining
// lines 2k and 2k+1 — with the bits at and past N/2 zero, and words holds
// the N lines as they enter the column; at column 0 that is the main
// stage's whole input. Setting or clearing bits of controls below N/2
// changes how the words move; the self-routing control plane is not re-run,
// exactly like a hardware fault that corrupts a switch state after
// arbitration. When a splitter rejects its input the pass still finishes
// the main stage, so that the route can name the lowest-numbered failing
// nested network; the controls of a network from its rejection on are
// meaningless. The hook serves fault injection, Compile's recorder,
// ReplayWired's plan loader and RouteTraced's stage snapshots; it must not
// retain controls or words, nor modify words.
type Override func(mainStage, column int, controls []uint64, words []Word)

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
	defer n.release(sc)
	return n.route(sc, dst, src, ov)
}

// release clears what a route left in sc for its caller and returns sc to
// the pool.
func (n *Network) release(sc *scratch) {
	sc.ov, sc.cols = nil, nil
	n.pool.Put(sc)
}

// route runs the kernel on the scratch sc with the hook ov installed; dst
// and src have length N.
func (n *Network) route(sc *scratch, dst, src []Word, ov Override) error {
	N := n.Inputs()
	sc.ov = ov
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
