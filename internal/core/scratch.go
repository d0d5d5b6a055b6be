package core

import (
	"fmt"

	"repro/internal/neterr"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// scratch bundles every per-route buffer of the pooled kernel. A scratch
// belongs to exactly one Network and is recycled through the Network's
// sync.Pool, so steady-state RouteInto calls allocate nothing.
type scratch struct {
	m int
	// planes holds the m address planes end to end, N/64 words each (one
	// for N < 64): bit x of plane b is address bit b of the word on line
	// x, so main stage i's BSN slice is plane m-1-i. spare is their
	// unshuffle buffer; the two swap after every unshuffle.
	planes, spare []uint64
	ctl           []uint64 // packed switch controls of the column being routed
	work          []uint64 // splitter column scratch
	seen          []uint64 // destination-validation bitmap
	// inv[a] is the input offering address a, filled while validating.
	inv []int32
	// addr is the address on every line — on input while packing, on
	// output after unpacking — padded with zeros to whole 8-line groups.
	addr []int32
	// words is Compile's input and an in-place route's copy of its source.
	words []Word
	// cols is the switch-column image of the plan being compiled, and
	// record the recorder writing it, bound to this scratch once so that
	// Compile creates no closure.
	cols   []uint64
	record Override
}

func newScratch(n *Network) *scratch {
	N := n.Inputs()
	w := (N + 63) / 64
	sc := &scratch{
		m:      n.m,
		planes: make([]uint64, n.m*w),
		spare:  make([]uint64, n.m*w),
		ctl:    make([]uint64, columnWords(n.m)),
		work:   make([]uint64, splitter.WorkWords(N)),
		seen:   make([]uint64, w),
		inv:    make([]int32, N),
		addr:   make([]int32, max(N, 8)),
		words:  make([]Word, N),
	}
	sc.record = sc.recordColumn
	return sc
}

// recordColumn is Compile's recorder: it copies every column's controls
// into the plan's image.
func (sc *scratch) recordColumn(mainStage, column int, controls []uint64) {
	copy(sc.cols[colIndex(sc.m, mainStage, column)*len(controls):], controls)
}

// Override is the kernel's one per-column hook. It is called once per
// (main stage, nested column) — m(m+1)/2 times per route, in Plan column
// order — after the column's splitters compute their controls and before
// the lines move: mainStage is the main-GBN stage i and column the
// nested-stage index j within it, the coordinates of Plan.Control. The
// nested networks of a main stage are routed side by side, so one call
// covers the column in all of them: controls holds the exchange bits of
// the column's N/2 switches in the Plan's column layout — bit k of
// controls[k>>6] is switch k, joining lines 2k and 2k+1 — with the bits at
// and past N/2 zero. Setting or clearing bits of controls below N/2
// changes how every address plane, and so every word, moves; the
// self-routing control plane is not re-run, exactly like a hardware fault
// that corrupts a switch state after arbitration. When a splitter rejects
// its input the pass still finishes the main stage, so that the route can
// name the lowest-numbered failing nested network; the controls of a
// network from its rejection on are meaningless. The hook serves fault
// injection, Compile's recorder, ReplayWired's plan loader and
// RouteTraced's stage snapshots; it must not retain controls.
type Override func(mainStage, column int, controls []uint64)

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
// same slice as src (the route then stages src through pooled scratch) but
// must not partially overlap it. The destination addresses must form a
// permutation of {0,...,N-1}; on return dst[j] holds the word addressed to
// output j. All per-route scratch comes from the network's pool, so after
// warm-up the call performs zero heap allocations. Safe for concurrent use.
func (n *Network) RouteInto(dst, src []Word) error {
	return n.routeInto(dst, src, nil)
}

// routeInto is the routing kernel's entry point. Route, RouteTraced,
// Compile, ReplayWired and the fault injectors all run the one pass,
// differing only in the Override they install.
func (n *Network) routeInto(dst, src []Word, ov Override) error {
	if err := n.checkSizes(dst, src); err != nil {
		return err
	}
	sc := n.pool.Get().(*scratch)
	defer n.release(sc)
	return n.route(sc, dst, src, ov)
}

// checkSizes requires N source words and N output slots.
func (n *Network) checkSizes(dst, src []Word) error {
	N := n.Inputs()
	if len(src) != N {
		return fmt.Errorf("bnb: got %d words, want %d: %w", len(src), N, neterr.ErrBadSize)
	}
	if len(dst) != N {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), N, neterr.ErrBadSize)
	}
	return nil
}

// release clears what a route left in sc for its caller and returns sc to
// the pool.
func (n *Network) release(sc *scratch) {
	sc.cols = nil
	n.pool.Put(sc)
}

// route runs the kernel on the scratch sc with the hook ov installed: it
// loads src's addresses into the planes, runs the pass, and moves every
// word once, to the output its address arrived at. dst and src have
// length N.
func (n *Network) route(sc *scratch, dst, src []Word, ov Override) error {
	if err := sc.load(src); err != nil {
		return err
	}
	if err := n.pass(sc, ov); err != nil {
		return err
	}
	wire := sc.wire()
	if &dst[0] == &src[0] {
		copy(sc.words, src)
		src = sc.words
	}
	applyWire(dst, src, wire)
	return nil
}

// load validates the offered addresses — they must form a permutation of
// {0,...,N-1} — recording in inv the input that offers each one, and packs
// them into the address planes.
func (sc *scratch) load(src []Word) error {
	N := len(src)
	clear(sc.seen)
	for i, wd := range src {
		a := wd.Addr
		if a < 0 || a >= N {
			return fmt.Errorf("bnb: destination addresses are not a permutation: entry %d -> %d out of range [0,%d): %w",
				i, a, N, neterr.ErrNotPermutation)
		}
		bit := uint64(1) << uint(a&63)
		if sc.seen[a>>6]&bit != 0 {
			return fmt.Errorf("bnb: destination addresses are not a permutation: destination %d appears more than once: %w",
				a, neterr.ErrNotPermutation)
		}
		sc.seen[a>>6] |= bit
		sc.inv[a] = int32(i)
		sc.addr[i] = int32(a)
	}
	sc.pack()
	return nil
}

// pass routes the address planes through every switch column of the
// network. Main stage i routes its 2^i nested networks side by side: each
// nested column runs its splitters on the BSN plane m-1-i, hands the
// controls to ov, exchanges every plane by them and unshuffles every plane
// into the column's successor; then the main network's rewire unshuffles
// every plane by m-i. A rejection names the same nested network, column
// and box as routing the networks one at a time would: the
// lowest-numbered failing network, at its first failing column.
func (n *Network) pass(sc *scratch, ov Override) error {
	m, N, w := n.m, n.Inputs(), len(sc.planes)/n.m
	for i := 0; i < m; i++ {
		k := m - i // order of the stage's nested networks
		// failed is the lowest-numbered nested network a splitter has
		// rejected so far (the stage's network count while none has), and
		// err that network's rejection at its first failing column.
		failed, err := N>>uint(k), error(nil)
		for j := 0; j < k; j++ {
			p := k - j
			bsn := sc.planes[(m-1-i)*w : (m-i)*w]
			if box, cerr := n.sps[p].ColumnControls(sc.ctl, bsn, sc.work, N); cerr != nil {
				// Column j of a nested network holds 2^j boxes. The networks
				// below the rejected one still get their controls, so the
				// pass goes on, and a lower network failing at a later
				// column takes over.
				if l := box >> uint(j); l < failed {
					failed = l
					err = fmt.Errorf("gbn: stage %d box %d: splitter sp(%d) on address bit %d: %w",
						j, box&(1<<uint(j)-1), p, i, cerr)
				}
			}
			if ov != nil {
				ov(i, j, sc.ctl)
			}
			splitter.ExchangePlanes(sc.ctl, sc.planes, w)
			if p > 1 {
				sc.unshuffle(p)
			}
		}
		if err != nil {
			return fmt.Errorf("bnb: gbn: stage %d box %d: %w", i, failed, err)
		}
		if k > 1 {
			sc.unshuffle(k)
		}
	}
	return nil
}

// unshuffle applies the 2^k-unshuffle to every plane.
func (sc *scratch) unshuffle(k int) {
	wiring.UnshuffleBits(sc.spare, sc.planes, k)
	sc.planes, sc.spare = sc.spare, sc.planes
}

// wire unpacks the planes and turns the address on every output into the
// input that offered it: the route's wire map, in sc.addr.
func (sc *scratch) wire() []int32 {
	sc.unpack()
	wire := sc.addr[:len(sc.inv)]
	for j, a := range wire {
		wire[j] = sc.inv[a]
	}
	return wire
}

// applyWire moves every word once along a wire map: dst[j] = src[wire[j]].
// Live routes and Replay share it; dst must not alias src.
func applyWire(dst, src []Word, wire []int32) {
	for j, w := range wire {
		dst[j] = src[w]
	}
}

// pack transposes the addresses in sc.addr into the planes, 64 lines — one
// word of every plane — at a time. Per address byte, each 8-line group is
// an 8×8 bit matrix, row r the byte of line r, whose transpose holds the
// group's bits of that byte's eight planes, one plane per byte; an 8×8
// byte transpose of the eight groups then gives the planes' words.
func (sc *scratch) pack() {
	m, planes := sc.m, sc.planes
	w := len(planes) / m
	for word := 0; word < w; word++ {
		lines := sc.addr[64*word : min(64*word+64, len(sc.addr))]
		for b0 := 0; b0 < m; b0 += 8 {
			s := uint(b0)
			var g [8]uint64
			for q := range len(lines) / 8 {
				a := lines[8*q : 8*q+8 : 8*q+8]
				g[q] = transpose8(uint64(uint8(a[0]>>s)) | uint64(uint8(a[1]>>s))<<8 |
					uint64(uint8(a[2]>>s))<<16 | uint64(uint8(a[3]>>s))<<24 |
					uint64(uint8(a[4]>>s))<<32 | uint64(uint8(a[5]>>s))<<40 |
					uint64(uint8(a[6]>>s))<<48 | uint64(uint8(a[7]>>s))<<56)
			}
			transposeBytes(&g)
			for c := range min(8, m-b0) {
				planes[(b0+c)*w+word] = g[c]
			}
		}
	}
}

// unpack is pack's inverse: it transposes the planes back into the address
// on every line, in sc.addr.
func (sc *scratch) unpack() {
	m, planes := sc.m, sc.planes
	w := len(planes) / m
	for word := 0; word < w; word++ {
		lines := sc.addr[64*word : min(64*word+64, len(sc.addr))]
		clear(lines)
		for b0 := 0; b0 < m; b0 += 8 {
			var g [8]uint64
			for c := range min(8, m-b0) {
				g[c] = planes[(b0+c)*w+word]
			}
			transposeBytes(&g)
			s := uint(b0)
			for q := range len(lines) / 8 {
				x := transpose8(g[q])
				a := lines[8*q : 8*q+8 : 8*q+8]
				a[0] |= int32(x&0xFF) << s
				a[1] |= int32(x>>8&0xFF) << s
				a[2] |= int32(x>>16&0xFF) << s
				a[3] |= int32(x>>24&0xFF) << s
				a[4] |= int32(x>>32&0xFF) << s
				a[5] |= int32(x>>40&0xFF) << s
				a[6] |= int32(x>>48&0xFF) << s
				a[7] |= int32(x>>56) << s
			}
		}
	}
}

// transposeBytes transposes the 8×8 byte matrix g, byte c of g[r] being
// row r, column c, by swapping ever smaller off-diagonal blocks.
func transposeBytes(g *[8]uint64) {
	const m32, m16, m8 = 0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF
	g[0], g[4] = swapBlocks(g[0], g[4], 32, m32)
	g[1], g[5] = swapBlocks(g[1], g[5], 32, m32)
	g[2], g[6] = swapBlocks(g[2], g[6], 32, m32)
	g[3], g[7] = swapBlocks(g[3], g[7], 32, m32)
	g[0], g[2] = swapBlocks(g[0], g[2], 16, m16)
	g[1], g[3] = swapBlocks(g[1], g[3], 16, m16)
	g[4], g[6] = swapBlocks(g[4], g[6], 16, m16)
	g[5], g[7] = swapBlocks(g[5], g[7], 16, m16)
	g[0], g[1] = swapBlocks(g[0], g[1], 8, m8)
	g[2], g[3] = swapBlocks(g[2], g[3], 8, m8)
	g[4], g[5] = swapBlocks(g[4], g[5], 8, m8)
	g[6], g[7] = swapBlocks(g[6], g[7], 8, m8)
}

// swapBlocks exchanges the bits of a that mask selects, shift positions up,
// with the bits of b that mask selects.
func swapBlocks(a, b uint64, shift uint, mask uint64) (uint64, uint64) {
	t := (a>>shift ^ b) & mask
	return a ^ t<<shift, b ^ t
}

// transpose8 transposes the 8×8 bit matrix x whose bit 8r+c is row r,
// column c (Hacker's Delight §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}
