package cluster

// Bipartite edge coloring — the matching stage of the product
// decomposition. The inter-shard exchange is computed by properly coloring
// an s-regular bipartite multigraph on the local-port columns: vertex h on
// the left is "column h before shard routing", vertex h on the right is
// "column h after shard routing", and each element contributes one edge
// (h0 -> h1) from its source column to its destination column. König's
// theorem guarantees an s-coloring; each color class is a perfect matching
// between columns, and the color assigned to an element is the intermediate
// shard it transits (Baumslag & Annexstein, Math. Systems Theory 24, 1991).
//
// Two constructions share the matcher:
//
//   - S a power of two: log2 S rounds of the Beneš looping algorithm, the
//     set-up of internal/benes generalised from 2 to S colors. Round k sets
//     color bit k and splits every color class of the previous rounds in
//     two, Euler-style, so the whole coloring is O(N log S) index
//     arithmetic over p, its inverse and the colors — no adjacency lists,
//     no alternating paths.
//   - Any other S (AddShard can grow a cluster to 5 shards): König's
//     constructive proof. Edges are inserted one at a time, and when the
//     two endpoints have no common free color the two-color alternating
//     path from the source endpoint is flipped to create one. The whole
//     coloring runs in O(E·(H+S)) worst case and far less in practice.

import (
	"fmt"

	"repro/internal/neterr"
)

// matcher holds the matching stage's working buffers for one shape; a
// Coordinator pools them per route, so the stage allocates nothing.
type matcher struct {
	s     int
	lbits uint // log2 of the local port count
	// byDst[key] and bySrc[key] index the elements by destination and by
	// source port, with the shard bits a looping round has colored
	// replaced by the element's color bits. Before the first round byDst
	// is the plain inverse of p, and -1 marks an unseen destination while
	// p is validated.
	byDst, bySrc []int32
	// done marks the elements whose bit the current looping round has set.
	done []bool
	// ec is König's colorer, nil when S is a power of two.
	ec *edgeColorer
}

func newMatcher(s, l int, lbits uint) matcher {
	m := matcher{s: s, lbits: lbits, byDst: make([]int32, s*l)}
	if s&(s-1) == 0 {
		m.bySrc = make([]int32, s*l)
		m.done = make([]bool, s*l)
	} else {
		m.ec = newEdgeColorer(l, s, s*l)
	}
	return m
}

// color validates the permutation p and writes every element's
// intermediate shard into col.
func (m *matcher) color(col []int32, p []int) error {
	n := len(p)
	for i := range m.byDst {
		m.byDst[i] = -1
	}
	for i, d := range p {
		if d < 0 || d >= n || m.byDst[d] >= 0 {
			return fmt.Errorf("%w: entry %d maps to %d", neterr.ErrNotPermutation, i, d)
		}
		m.byDst[d] = int32(i)
	}
	if m.ec == nil {
		m.loop(col, p)
		return nil
	}
	m.ec.reset()
	lmask := 1<<m.lbits - 1
	for i, d := range p {
		if err := m.ec.insert(int32(i&lmask), int32(d&lmask)); err != nil {
			return err
		}
	}
	copy(col, m.ec.color)
	return nil
}

// loop colors by looping rounds. Element i = (g0, h0) is destined for
// p[i] = (g1, h1). Before round k, within every source column and every
// aligned block of 2^k source shards the color bits 0..k-1 are distinct,
// and the same holds per destination column. So replacing the low k bits
// of g0 by the element's low color bits keys the elements one-to-one
// (bySrc), and likewise for g1 (byDst). Flipping bit k of a key names the
// element in the sibling block of the same column with the same low
// colors: the source-side key gives the left partner, the
// destination-side key the right partner. Each pair must differ in bit k;
// the pairs form even alternating cycles, so walking each cycle and
// alternating the bit keeps the invariant for blocks of 2^(k+1).
func (m *matcher) loop(col []int32, p []int) {
	clear(col)
	for k := uint(0); 1<<k < m.s; k++ {
		low := 1<<k - 1
		keep := ^(low << m.lbits)  // clears shard bits 0..k-1
		flip := 1 << (k + m.lbits) // shard bit k
		for i, d := range p {
			c := (int(col[i]) & low) << m.lbits
			m.bySrc[i&keep|c] = int32(i)
			m.byDst[d&keep|c] = int32(i)
		}
		clear(m.done)
		for start, done := range m.done {
			if done {
				continue
			}
			// Partners share their low color bits, so a whole cycle does.
			// i takes bit k = 0, its left partner j takes 1, and j's right
			// partner continues the cycle at 0 until it closes on start.
			c := (int(col[start]) & low) << m.lbits
			for i := start; ; {
				m.done[i] = true
				j := int(m.bySrc[(i&keep|c)^flip])
				m.done[j] = true
				col[j] |= 1 << k
				if i = int(m.byDst[(p[j]&keep|c)^flip]); i == start {
					break
				}
			}
		}
	}
}

// edgeColorer colors an s-regular bipartite multigraph with h vertices per
// side using exactly s colors. Vertices 0..h-1 are the left side, h..2h-1
// the right side.
type edgeColorer struct {
	h, colors int
	// ends[e] are the two endpoint vertices of edge e (left, right+h).
	ends [][2]int32
	// at[v*colors+c] is the edge occupying color c at vertex v, or -1.
	at []int32
	// color[e] is the assigned color of edge e, or -1 before insertion.
	color []int32
	// path is the reusable alternating-path scratch.
	path []int32
}

func newEdgeColorer(h, colors, edges int) *edgeColorer {
	ec := &edgeColorer{
		h:      h,
		colors: colors,
		ends:   make([][2]int32, 0, edges),
		at:     make([]int32, 2*h*colors),
		color:  make([]int32, 0, edges),
	}
	ec.reset()
	return ec
}

// reset empties the colorer for another graph of the same shape.
func (ec *edgeColorer) reset() {
	ec.ends = ec.ends[:0]
	ec.color = ec.color[:0]
	for i := range ec.at {
		ec.at[i] = -1
	}
}

// freeColor returns the smallest color unused at vertex v.
func (ec *edgeColorer) freeColor(v int32) int32 {
	base := int(v) * ec.colors
	for c := 0; c < ec.colors; c++ {
		if ec.at[base+c] < 0 {
			return int32(c)
		}
	}
	return -1
}

// otherEnd returns the endpoint of edge e that is not v.
func (ec *edgeColorer) otherEnd(e, v int32) int32 {
	return ec.ends[e][0] + ec.ends[e][1] - v
}

// insert adds the edge (left, right) — right in [0, h) — and colors it,
// flipping an alternating path when the endpoints share no free color.
func (ec *edgeColorer) insert(left, right int32) error {
	u, v := left, int32(ec.h)+right
	e := int32(len(ec.ends))
	ec.ends = append(ec.ends, [2]int32{u, v})
	ec.color = append(ec.color, -1)
	cu, cv := ec.freeColor(u), ec.freeColor(v)
	if cu < 0 || cv < 0 {
		return fmt.Errorf("cluster: edge coloring out of colors (vertex degree exceeds %d)", ec.colors)
	}
	if cu != cv {
		// Free color cv at u by flipping the (cv, cu)-alternating path that
		// starts at u. In a bipartite graph the path cannot terminate at v
		// (it would close an odd alternating cycle), so cv stays free at v.
		ec.flip(u, cv, cu)
		cu = cv
	}
	ec.color[e] = cu
	ec.at[int(u)*ec.colors+int(cu)] = e
	ec.at[int(v)*ec.colors+int(cu)] = e
	return nil
}

// flip swaps colors c1 and c2 along the alternating path that starts at
// vertex u with an edge colored c1.
func (ec *edgeColorer) flip(u, c1, c2 int32) {
	// Collect the path first, then recolor: clearing every touched slot
	// before refilling keeps the bookkeeping obviously consistent even when
	// consecutive path edges share a vertex slot.
	ec.path = ec.path[:0]
	x, want := u, c1
	for {
		e := ec.at[int(x)*ec.colors+int(want)]
		if e < 0 {
			break
		}
		ec.path = append(ec.path, e)
		x = ec.otherEnd(e, x)
		want = c1 + c2 - want
	}
	for _, e := range ec.path {
		c := ec.color[e]
		for _, v := range ec.ends[e] {
			if ec.at[int(v)*ec.colors+int(c)] == e {
				ec.at[int(v)*ec.colors+int(c)] = -1
			}
		}
	}
	for _, e := range ec.path {
		c := c1 + c2 - ec.color[e]
		ec.color[e] = c
		ec.at[int(ec.ends[e][0])*ec.colors+int(c)] = e
		ec.at[int(ec.ends[e][1])*ec.colors+int(c)] = e
	}
}
