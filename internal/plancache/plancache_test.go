package plancache_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/plancache"
)

// testNet builds the m=3 network the cache tests compile plans on.
func testNet(t *testing.T) *core.Network {
	t.Helper()
	n, err := core.New(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func compile(t *testing.T, n *core.Network, p perm.Perm) *core.Plan {
	t.Helper()
	pl, err := n.Compile(p)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	return pl
}

func words(p perm.Perm) []core.Word {
	w := make([]core.Word, len(p))
	for i, d := range p {
		w[i] = core.Word{Addr: d, Data: uint64(i)}
	}
	return w
}

// TestDisabledCache checks the nil cache contract: every method is safe and
// inert, so callers need no nil checks.
func TestDisabledCache(t *testing.T) {
	var c *plancache.Cache
	if got := plancache.New(0); got != nil {
		t.Fatalf("New(0) = %v, want nil", got)
	}
	n := testNet(t)
	p := perm.Identity(n.Inputs())
	if c.Lookup(words(p)) != nil {
		t.Fatal("nil cache Lookup returned a plan")
	}
	if c.Insert(compile(t, n, p)) {
		t.Fatal("nil cache Insert evicted")
	}
	if c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("nil cache reports entries")
	}
	if s := c.Stats(); s != (plancache.Stats{}) {
		t.Fatalf("nil cache Stats = %+v", s)
	}
	if r := (plancache.Stats{}).HitRatio(); r != 0 {
		t.Fatalf("zero Stats hit ratio = %v", r)
	}
}

// TestFillLookup fills the cache and checks hits return the exact cached
// plan and the counters add up.
func TestFillLookup(t *testing.T) {
	n := testNet(t)
	c := plancache.New(8)
	ps := []perm.Perm{perm.Identity(8), perm.Reversal(8), perm.BitReversal(3), perm.PerfectShuffle(3)}
	plans := make([]*core.Plan, len(ps))
	for i, p := range ps {
		plans[i] = compile(t, n, p)
		if c.Lookup(words(p)) != nil {
			t.Fatalf("perm %v hit before insert", p)
		}
		c.Insert(plans[i])
	}
	for i, p := range ps {
		if got := c.Lookup(words(p)); got != plans[i] {
			t.Fatalf("perm %v: Lookup = %p, want %p", p, got, plans[i])
		}
	}
	// Re-inserting a cached permutation keeps the incumbent.
	dup := compile(t, n, ps[0])
	if c.Insert(dup) {
		t.Fatal("duplicate insert evicted")
	}
	if got := c.Lookup(words(ps[0])); got != plans[0] {
		t.Fatal("duplicate insert replaced the incumbent")
	}
	s := c.Stats()
	if s.Entries != len(ps) || s.Hits != int64(len(ps)+1) || s.Misses != int64(len(ps)) || s.Evictions != 0 {
		t.Fatalf("Stats = %+v", s)
	}
	if got, want := s.HitRatio(), float64(len(ps)+1)/float64(2*len(ps)+1); got != want {
		t.Fatalf("HitRatio = %v, want %v", got, want)
	}
}

// TestInsertAllocs pins what Insert allocates: for a new permutation the
// entry and the shard's next entry slice with its published header,
// nothing more, and for one already cached nothing at all. The key is the
// one Compile recorded and the duplicate check compares wire maps in
// place, so no copy or inverse of the permutation is made.
// Every insert in the first loop is of a permutation the eight-entry cache
// no longer holds, so none of them stops at the duplicate check.
func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	n := testNet(t)
	var plans []*core.Plan
	perm.ForEach(n.Inputs(), func(p perm.Perm) bool {
		plans = append(plans, compile(t, n, p))
		return len(plans) < 128
	})
	c := plancache.New(8)
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		c.Insert(plans[next%len(plans)])
		next++
	})
	if allocs != 3 {
		t.Errorf("Insert allocates %.1f objects per call, want 3", allocs)
	}
	dup := compile(t, n, plans[(next-1)%len(plans)].Perm())
	if allocs := testing.AllocsPerRun(100, func() { c.Insert(dup) }); allocs != 0 {
		t.Errorf("a duplicate Insert allocates %.1f objects per call, want 0", allocs)
	}
}

// TestHoldsCapacity pins that every shard fills: after 4c distinct random
// m=7 plans, New(c) holds exactly c. A shard picked from the hash's low
// bits leaves half the shards empty, because FNV-1a's lowest bit is the
// same for every permutation of 0..N-1.
func TestHoldsCapacity(t *testing.T) {
	n, err := core.New(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	plans := make([]*core.Plan, 4*256)
	for i := range plans {
		plans[i] = compile(t, n, perm.Random(n.Inputs(), rng))
	}
	for _, capacity := range []int{64, 128, 256} {
		c := plancache.New(capacity)
		for _, pl := range plans[:4*capacity] {
			c.Insert(pl)
		}
		if c.Len() != capacity || c.Capacity() != capacity {
			t.Errorf("New(%d) after %d distinct inserts: Len %d, Capacity %d; want both %d",
				capacity, 4*capacity, c.Len(), c.Capacity(), capacity)
		}
	}
}

// TestClockEviction pins the CLOCK second-chance policy on a three-entry,
// single-shard cache: an entry referenced since the last eviction scan
// survives, an unreferenced one is the victim — where strict FIFO would
// evict the older, referenced entry.
func TestClockEviction(t *testing.T) {
	n := testNet(t)
	c := plancache.New(3)
	if c.Capacity() != 3 {
		t.Fatalf("Capacity = %d, want 3 (single shard expected)", c.Capacity())
	}
	pa, pb, pc := perm.Identity(8), perm.Reversal(8), perm.BitReversal(3)
	// Note BitComplement(3) == Reversal(8), so the fifth perm is a shift.
	pd, pe := perm.PerfectShuffle(3), perm.VectorShift(8, 1)
	b := compile(t, n, pb)
	d, e := compile(t, n, pd), compile(t, n, pe)
	c.Insert(compile(t, n, pa))
	c.Insert(b)
	c.Insert(compile(t, n, pc))
	// Full shard, every entry still carries its insert-time reference bit:
	// the scan clears them all and falls back to the oldest slot, evicting A.
	if !c.Insert(d) {
		t.Fatal("insert into full shard did not evict")
	}
	if c.Lookup(words(pa)) != nil {
		t.Fatal("A survived the fallback eviction")
	}
	// Reference B. C has not been referenced since the scan cleared its bit,
	// so the next insert must give B its second chance and evict C — strict
	// FIFO would have taken B, the older entry.
	if c.Lookup(words(pb)) != b {
		t.Fatal("B missing after eviction")
	}
	if !c.Insert(e) {
		t.Fatal("insert into full shard did not evict")
	}
	if c.Lookup(words(pb)) != b {
		t.Fatal("referenced B was evicted instead of unreferenced C")
	}
	if c.Lookup(words(pc)) != nil {
		t.Fatal("unreferenced C survived")
	}
	if c.Lookup(words(pd)) != d {
		t.Fatal("D missing")
	}
	if c.Lookup(words(pe)) != e {
		t.Fatal("E missing")
	}
	if s := c.Stats(); s.Evictions != 2 || s.Entries != 3 {
		t.Fatalf("Stats = %+v, want 2 evictions, 3 entries", s)
	}
}

// TestScheduleInsertCASRetry pins the writer CAS-retry path: two writers
// race on one shard, the loser observes the winner's snapshot and retries,
// and both plans are present afterwards — no lost update.
func TestScheduleInsertCASRetry(t *testing.T) {
	plancache.Yield = check.Yield
	defer func() { plancache.Yield = nil }()
	n := testNet(t)
	c := plancache.New(8)
	pa, pb := perm.Identity(8), perm.Reversal(8)
	a, b := compile(t, n, pa), compile(t, n, pb)
	w1 := check.GoNamed("insert-a", func(func()) { c.Insert(a) })
	w2 := check.GoNamed("insert-b", func(func()) { c.Insert(b) })
	// w1 parks at the yield just before its CAS, holding a stale snapshot;
	// w2 completes its insert; w1's CAS then fails and it retries against
	// the new snapshot.
	w1.Step()
	w2.Finish()
	w1.Finish()
	if c.Lookup(words(pa)) != a {
		t.Fatal("retrying writer lost its insert")
	}
	if c.Lookup(words(pb)) != b {
		t.Fatal("winning writer's insert vanished")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestScheduleLookupDuringEviction pins the wait-free reader contract: a
// reader that snapshotted a shard before an eviction still completes its
// lookup from the old snapshot — plans are immutable, so the stale hit is
// still a correct plan — while new readers see the eviction.
func TestScheduleLookupDuringEviction(t *testing.T) {
	plancache.Yield = check.Yield
	defer func() { plancache.Yield = nil }()
	n := testNet(t)
	c := plancache.New(2)
	pa, pb, pc := perm.Identity(8), perm.Reversal(8), perm.BitReversal(3)
	a := compile(t, n, pa)
	c.Insert(a)
	c.Insert(compile(t, n, pb))
	var got *core.Plan
	reader := check.GoNamed("lookup-a", func(func()) { got = c.Lookup(words(pa)) })
	evictor := check.GoNamed("evict", func(func()) { c.Insert(compile(t, n, pc)) })
	// Reader snapshots the shard and parks; the evictor then replaces the
	// shard slice, evicting A; the reader resumes on its old snapshot.
	reader.Step()
	evictor.Finish()
	reader.Finish()
	if got != a {
		t.Fatalf("reader on the pre-eviction snapshot got %p, want A %p", got, a)
	}
	if c.Lookup(words(pa)) != nil {
		t.Fatal("A still visible to fresh lookups after eviction")
	}
}

// TestConcurrentFill hammers one cache from many goroutines under the race
// detector: lookups either miss or return a plan for exactly the requested
// permutation.
func TestConcurrentFill(t *testing.T) {
	n := testNet(t)
	c := plancache.New(4)
	ps := []perm.Perm{
		perm.Identity(8), perm.Reversal(8), perm.BitReversal(3),
		perm.PerfectShuffle(3), perm.VectorShift(8, 1),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				p := ps[(g+iter)%len(ps)]
				pl := c.Lookup(words(p))
				if pl == nil {
					compiled, err := n.Compile(p)
					if err != nil {
						t.Errorf("Compile: %v", err)
						return
					}
					c.Insert(compiled)
					pl = compiled
				}
				if !pl.Perm().Equal(p) {
					t.Errorf("lookup for %v returned plan for %v", p, pl.Perm())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	s := c.Stats()
	if s.Hits+s.Misses != 8*200 {
		t.Fatalf("lookups %d, want %d", s.Hits+s.Misses, 8*200)
	}
}
