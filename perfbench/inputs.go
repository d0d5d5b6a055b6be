package main

import (
	"encoding/binary"
	"math/rand"

	bnbnet "repro"
)

// request is one generated routing request: a permutation of n ports and
// the words carrying it, each with a seeded random payload, so a checker can
// tell every delivered word apart from every other.
type request struct {
	perm  []int
	words []bnbnet.Word
	frame []byte // the bnbserve TCP route frame; serve-tcp only
}

// inputs is everything a workload routes, generated from the seed before
// any timing starts.
type inputs struct {
	n    int
	warm []request // fills the plan caches during set-up
	pool []request // the measured requests
	// seq[c] lists, for client c, the pool indexes it routes in order; the
	// client wraps around at the end.
	seq [][]int32
}

// Pool sizes. The fresh pool is walked in order, so a permutation recurs
// only after freshPool requests, by which time each 256-plan cache has
// taken 2048 other plans and evicted it. The warm-up sends every cache of a
// stack twice its nominal capacity: with two planes, 1024 routes give each
// plane (each shard's plane, in a cluster) 512 plans.
const (
	freshPool   = 4096
	warmPool    = 1024
	hotSet      = 64
	hotSeqLen   = 1 << 16
	zipfS       = 1.1
	clientCount = 2
)

// distinctPerms draws count distinct uniformly random permutations of n.
func distinctPerms(r *rand.Rand, n, count int) [][]int {
	seen := make(map[string]struct{}, count)
	key := make([]byte, 4*n)
	out := make([][]int, 0, count)
	for len(out) < count {
		p := r.Perm(n)
		for i, d := range p {
			binary.LittleEndian.PutUint32(key[4*i:], uint32(d))
		}
		if _, dup := seen[string(key)]; dup {
			continue
		}
		seen[string(key)] = struct{}{}
		out = append(out, p)
	}
	return out
}

func makeRequests(r *rand.Rand, perms [][]int) []request {
	out := make([]request, len(perms))
	for k, p := range perms {
		words := make([]bnbnet.Word, len(p))
		for i, d := range p {
			words[i] = bnbnet.Word{Addr: d, Data: r.Uint64()}
		}
		out[k] = request{perm: p, words: words}
	}
	return out
}

// freshInputs is the input set of fresh-m7, cluster-m5x4 and serve-tcp:
// warm-up and measured permutations all distinct, and the two clients
// interleaved over the pool so neither repeats what the other just routed.
func freshInputs(seed int64, n int) *inputs {
	r := rand.New(rand.NewSource(seed))
	perms := distinctPerms(r, n, warmPool+freshPool)
	reqs := makeRequests(r, perms)
	in := &inputs{n: n, warm: reqs[:warmPool], pool: reqs[warmPool:]}
	for c := 0; c < clientCount; c++ {
		seq := make([]int32, 0, freshPool/clientCount)
		for i := c; i < freshPool; i += clientCount {
			seq = append(seq, int32(i))
		}
		in.seq = append(in.seq, seq)
	}
	return in
}

// hotInputs is the input set of hot-m7: a 64-permutation working set, each
// client drawing from it by its own Zipf sequence. The working set doubles
// as the warm-up set.
func hotInputs(seed int64, n int) *inputs {
	r := rand.New(rand.NewSource(seed))
	reqs := makeRequests(r, distinctPerms(r, n, hotSet))
	in := &inputs{n: n, warm: reqs, pool: reqs}
	for c := 0; c < clientCount; c++ {
		in.seq = append(in.seq, zipfSeq(r, hotSet, hotSeqLen))
	}
	return in
}

// zipfSeq draws length indexes in [0, size) with Zipf exponent zipfS, so a
// few permutations dominate, as in a connection table with hot entries.
func zipfSeq(r *rand.Rand, size, length int) []int32 {
	z := rand.NewZipf(r, zipfS, 1, uint64(size-1))
	seq := make([]int32, length)
	for i := range seq {
		seq[i] = int32(z.Uint64())
	}
	return seq
}

// next returns the k-th request of client c.
func (in *inputs) next(c, k int) *request {
	s := in.seq[c]
	return &in.pool[s[k%len(s)]]
}
