package main

import (
	"fmt"
	"reflect"
	"testing"
)

func TestSeededInputsRepeatExactly(t *testing.T) {
	for name, gen := range map[string]func(int64, int) *inputs{"fresh": freshInputs, "hot": hotInputs} {
		a, b := gen(7, 32), gen(7, 32)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if c := gen(8, 32); reflect.DeepEqual(a.pool, c.pool) {
			t.Errorf("%s: seeds 7 and 8 gave the same pool", name)
		}
	}
	if a, b := serveInputs(3), freshInputs(3, 128); !samePerms(a.pool, b.pool) || !reflect.DeepEqual(a.seq, b.seq) {
		t.Error("serve-tcp does not send cluster-m5x4's permutation sequence")
	}
}

func samePerms(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].perm, b[i].perm) {
			return false
		}
	}
	return true
}

func TestFreshPoolHasNoDuplicates(t *testing.T) {
	in := freshInputs(1, 16)
	seen := map[string]bool{}
	for _, reqs := range [][]request{in.warm, in.pool} {
		for _, req := range reqs {
			checkPermutation(t, req)
			key := fmt.Sprint(req.perm)
			if seen[key] {
				t.Fatalf("permutation %v drawn twice", req.perm)
			}
			seen[key] = true
		}
	}
	if len(seen) != warmPool+freshPool {
		t.Fatalf("%d distinct permutations, want %d", len(seen), warmPool+freshPool)
	}
	// The clients interleave over the pool: together they cover it once per
	// cycle, and neither routes what the other routes in the same cycle.
	covered := map[int32]int{}
	for _, seq := range in.seq {
		for _, i := range seq {
			covered[i]++
		}
	}
	if len(covered) != freshPool {
		t.Fatalf("clients cover %d pool entries, want %d", len(covered), freshPool)
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("pool entry %d routed %d times per cycle", i, n)
		}
	}
}

func checkPermutation(t *testing.T, req request) {
	t.Helper()
	seen := make([]bool, len(req.perm))
	for i, d := range req.perm {
		if d < 0 || d >= len(seen) || seen[d] {
			t.Fatalf("not a permutation: %v", req.perm)
		}
		seen[d] = true
		if req.words[i].Addr != d {
			t.Fatalf("word %d addressed to %d, permutation says %d", i, req.words[i].Addr, d)
		}
	}
}

func TestZipfDrawStaysInWorkingSet(t *testing.T) {
	in := hotInputs(5, 16)
	if len(in.pool) != hotSet {
		t.Fatalf("working set of %d, want %d", len(in.pool), hotSet)
	}
	counts := make([]int, hotSet)
	for _, seq := range in.seq {
		if len(seq) != hotSeqLen {
			t.Fatalf("sequence of %d draws, want %d", len(seq), hotSeqLen)
		}
		for _, i := range seq {
			if i < 0 || int(i) >= hotSet {
				t.Fatalf("draw %d outside the %d-permutation working set", i, hotSet)
			}
			counts[i]++
		}
	}
	// Zipf: the first permutation is the hottest, far above a uniform share.
	total := clientCount * hotSeqLen
	if counts[0]*hotSet < 4*total {
		t.Errorf("hottest permutation drawn %d of %d times: not skewed", counts[0], total)
	}
	if got := in.next(1, hotSeqLen+3); got != &in.pool[in.seq[1][3]] {
		t.Error("a client does not wrap around its sequence")
	}
}
