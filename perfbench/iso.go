package main

import (
	"errors"
	"fmt"
	"time"

	bnbnet "repro"
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/plancache"
)

// The _iso metrics replay one layer's call on one thread over the
// workload's own permutations, so the layer's cost is measured without the
// engine, the other client or the health checker around it. The plan cache
// has no public surface of its own, so its loop is the only code here that
// imports internal packages (internal/plancache and the internal/core plans
// it stores).

// isoBudget bounds each timed iso loop.
const isoBudget = 300 * time.Millisecond

// timeLoop calls f(i) for i = 0, 1, ... until budget has passed and at least
// min calls were made, and returns the mean time per call.
func timeLoop(budget time.Duration, minCalls int, f func(i int) error) (time.Duration, int, error) {
	start := time.Now()
	n := 0
	for ; n < minCalls || time.Since(start) < budget; n++ {
		if err := f(n); err != nil {
			return 0, n, err
		}
	}
	return time.Since(start) / time.Duration(n), n, nil
}

// coreIso is the kernel measured alone on a bare New("bnb", m).
type coreIso struct {
	compile, route, replay time.Duration
	compileAllocB          float64
	calls                  int
}

func isoCore(m int, perms [][]int) (coreIso, error) {
	var iso coreIso
	netw, err := bnbnet.New("bnb", m)
	if err != nil {
		return iso, err
	}
	pr, okP := bnbnet.AsPlanRouter(netw)
	br, okB := bnbnet.AsBulkRouter(netw)
	if !okP || !okB {
		return iso, errors.New("bnb network lacks the plan or bulk surface")
	}
	n := 1 << uint(m)
	words := make([][]bnbnet.Word, len(perms))
	for k, p := range perms {
		words[k] = make([]bnbnet.Word, n)
		for i, d := range p {
			words[k][i] = bnbnet.Word{Addr: d, Data: uint64(i)}
		}
	}
	dst := make([]bnbnet.Word, n)
	a0 := readRuntime()
	var calls int
	iso.compile, calls, err = timeLoop(isoBudget, 64, func(i int) error {
		_, err := pr.Compile(perms[i%len(perms)])
		return err
	})
	if err != nil {
		return iso, fmt.Errorf("compile: %w", err)
	}
	iso.compileAllocB = (readRuntime().allocBytes - a0.allocBytes) / float64(calls)
	iso.calls = calls
	iso.route, _, err = timeLoop(isoBudget, 64, func(i int) error {
		w := words[i%len(words)]
		if err := br.RouteInto(dst, w); err != nil {
			return err
		}
		return checkRoute(dst, w)
	})
	if err != nil {
		return iso, fmt.Errorf("route: %w", err)
	}
	plans := make([]*bnbnet.Plan, min(len(perms), 256))
	for i := range plans {
		if plans[i], err = pr.Compile(perms[i]); err != nil {
			return iso, err
		}
	}
	iso.replay, _, err = timeLoop(isoBudget, 1024, func(i int) error {
		k := i % len(plans)
		return pr.Replay(plans[k], dst, words[k])
	})
	if err != nil {
		return iso, fmt.Errorf("replay: %w", err)
	}
	return iso, nil
}

// isoPlanCache feeds a plancache.New(256) the workload's stream of
// permutations on one thread. Lookup is timed against the cache in the
// workload's steady state: full of other plans for a stream of distinct
// permutations (every lookup misses), holding the working set for a
// repeating one (every lookup hits). Insert is timed by inserting the
// stream's plans in order, evicting once the cache is full.
func isoPlanCache(m int, stream [][]int) (lookup, insert time.Duration, err error) {
	netw, err := core.New(m, 0)
	if err != nil {
		return 0, 0, err
	}
	type entry struct {
		plan  *core.Plan
		words []core.Word
	}
	distinct := map[string]*entry{}
	seq := make([]*entry, len(stream))
	for k, p := range stream {
		key := fmt.Sprint(p)
		e := distinct[key]
		if e == nil {
			pl, err := netw.Compile(perm.Perm(p))
			if err != nil {
				return 0, 0, err
			}
			e = &entry{plan: pl, words: make([]core.Word, len(p))}
			for i, d := range p {
				e.words[i] = core.Word{Addr: d, Data: uint64(i)}
			}
			distinct[key] = e
		}
		seq[k] = e
	}
	// Steady state: the cache has taken the whole stream once.
	cache := plancache.New(256)
	for _, e := range seq {
		if cache.Lookup(e.words) == nil {
			cache.Insert(e.plan)
		}
	}
	repeating := len(distinct) < len(seq)
	probe := seq
	if !repeating {
		// Distinct stream: look up plans the cache no longer holds, the
		// first half of the stream, long since evicted.
		probe = seq[:len(seq)/2]
	}
	lookup, _, _ = timeLoop(isoBudget, 4096, func(i int) error {
		cache.Lookup(probe[i%len(probe)].words)
		return nil
	})
	insert, _, _ = timeLoop(isoBudget, 4096, func(i int) error {
		if i%len(seq) == 0 && repeating {
			// A repeating stream inserts each plan once; start over on an
			// empty cache so every insert adds a plan.
			cache = plancache.New(256)
		}
		cache.Insert(seq[i%len(seq)].plan)
		return nil
	})
	return lookup, insert, nil
}

// localPerms reads the shards' local permutations off Cluster.RouteTraced:
// snapshot 1 holds the words after the first exchange (global slot
// g·2^m + h is shard g's local port h), snapshot 2 after the shards routed,
// and each word's payload names its source. It returns every shard's
// permutations, or only shard 0's (one shard's request stream).
func localPerms(cl *bnbnet.Cluster, global []request, onlyShard0 bool) ([][]int, error) {
	l := 1 << uint(cl.ShardOrder())
	shards := cl.Shards()
	var out [][]int
	for _, req := range global {
		n := len(req.perm)
		words := make([]bnbnet.Word, n)
		for i, d := range req.perm {
			words[i] = bnbnet.Word{Addr: d, Data: uint64(i)}
		}
		_, snaps, err := cl.RouteTraced(words)
		if err != nil {
			return nil, err
		}
		if len(snaps) != 4 {
			return nil, fmt.Errorf("cluster trace has %d snapshots, want 4", len(snaps))
		}
		posA, posB := make([]int, n), make([]int, n)
		for j, w := range snaps[1] {
			posA[w.Data] = j
		}
		for j, w := range snaps[2] {
			posB[w.Data] = j
		}
		local := make([][]int, shards)
		for g := range local {
			local[g] = make([]int, l)
		}
		for i := 0; i < n; i++ {
			local[posA[i]/l][posA[i]%l] = posB[i] % l
		}
		if onlyShard0 {
			local = local[:1]
		}
		out = append(out, local...)
	}
	return out, nil
}

// diagnoserIso times fault.NewDiagnoser(5), the dictionary every m=5 shard
// builds at construction; median of three builds.
func diagnoserIso() (time.Duration, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := bnbnet.NewFaultDiagnoser(5); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts)), nil
}
