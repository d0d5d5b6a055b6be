package main

import (
	"errors"
	"fmt"
	"sync"

	bnbnet "repro"
)

// warmUp routes every warm-up request, split between two clients as in
// the measured phase, then requires every plan cache of the stack to have
// evicted: the steady state of a stack fed distinct permutations, where
// each new plan displaces an old one. The warm-up is a fixed amount of
// work, so set-up time does not depend on when a fill check happens to run.
func warmUp(warm []request, route func(c int, req *request) error, stats func() (bnbnet.Stats, error)) error {
	var wg sync.WaitGroup
	errs := make([]error, clientCount)
	for c := 0; c < clientCount; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += clientCount {
				if err := route(c, &warm[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up route: %w", err)
	}
	st, err := stats()
	if err != nil {
		return err
	}
	pcs := allCaches(st)
	for _, pc := range pcs {
		if pc.Evictions == 0 {
			return fmt.Errorf("a plan cache never filled during %d warm-up routes: %+v", len(warm), pcs)
		}
	}
	if len(pcs) == 0 {
		return errors.New("the stack reports no plan caches")
	}
	return nil
}

// allCaches lists every plan cache of a supervised stack or a cluster.
func allCaches(st bnbnet.Stats) []bnbnet.PlanCacheStats {
	pcs := append([]bnbnet.PlanCacheStats(nil), st.PlanCaches...)
	for _, sh := range st.Shards {
		pcs = append(pcs, sh.PlanCaches...)
	}
	return pcs
}

// cacheTotals sums hits, misses and evictions over every plan cache.
type cacheTotals struct{ hits, misses, evictions int64 }

func cacheCounts(st bnbnet.Stats) cacheTotals {
	var t cacheTotals
	for _, pc := range allCaches(st) {
		t.hits += pc.Hits
		t.misses += pc.Misses
		t.evictions += pc.Evictions
	}
	return t
}

func (a cacheTotals) minus(b cacheTotals) cacheTotals {
	return cacheTotals{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions}
}

func (a cacheTotals) hitRatio() float64 {
	if a.hits+a.misses == 0 {
		return 0
	}
	return float64(a.hits) / float64(a.hits+a.misses)
}

// allPlanes lists every plane of a supervised stack or a cluster.
func allPlanes(st bnbnet.Stats) []bnbnet.PlaneStats {
	ps := append([]bnbnet.PlaneStats(nil), st.Planes...)
	for _, sh := range st.Shards {
		ps = append(ps, sh.Planes...)
	}
	return ps
}

// planesHealthy checks that no plane failed, was repaired or left the
// healthy state: on these fault-free stacks any of those is a bug.
func planesHealthy(st bnbnet.Stats) (bool, string) {
	ps := allPlanes(st)
	var failures, repairs int64
	unhealthy := 0
	for _, p := range ps {
		failures += p.Failures
		repairs += p.Repairs
		if p.State != bnbnet.PlaneHealthy {
			unhealthy++
		}
	}
	ok := len(ps) > 0 && failures == 0 && repairs == 0 && unhealthy == 0
	return ok, fmt.Sprintf("planes=%d failures=%d repairs=%d unhealthy=%d", len(ps), failures, repairs, unhealthy)
}

// routeSupervised routes one request through the engine's Submit/Wait into
// dst and checks every word.
func routeSupervised(s *bnbnet.Supervised, dst []bnbnet.Word, req *request) error {
	t, err := s.Submit(dst, req.words)
	if err != nil {
		return err
	}
	out, err := t.Wait()
	if err != nil {
		return err
	}
	return checkRoute(out, req.words)
}

// routeCluster routes one request through the cluster and checks it.
func routeCluster(cl *bnbnet.Cluster, dst []bnbnet.Word, req *request) error {
	if err := cl.RouteInto(dst, req.words); err != nil {
		return err
	}
	return checkRoute(dst, req.words)
}

// newSupervised builds the m=7 stack of fresh-m7 and hot-m7 with every
// default: 2 planes, 4 workers, 256-plan caches, a 10 ms health sweep.
func newSupervised(opts ...bnbnet.Option) (*bnbnet.Supervised, error) {
	return bnbnet.NewSupervised("bnb", 7, opts...)
}

// newCluster builds bnbserve's default fabric in process: four m=5 shards.
func newCluster(opts ...bnbnet.Option) (*bnbnet.Cluster, error) {
	return bnbnet.NewCluster("bnb", 5, append([]bnbnet.Option{bnbnet.WithShards(4)}, opts...)...)
}

// warmFresh fills every plan cache of a stack fed distinct permutations:
// both planes of fresh-m7's stack, every shard's planes of a cluster.
func (st *stack) warmFresh(in *inputs) error {
	dsts := [clientCount][]bnbnet.Word{}
	for c := range dsts {
		dsts[c] = make([]bnbnet.Word, in.n)
	}
	return warmUp(in.warm,
		func(c int, req *request) error { return st.route(dsts[c], req) },
		func() (bnbnet.Stats, error) { return st.stats(), nil })
}

// warmHot compiles the working set on both planes: each permutation is
// routed twice in a row, and the plane rotor sends consecutive requests to
// alternate planes. A following round that compiles nothing proves it.
// The health checker's first probe pass on each plane compiles the probe
// set and can overlap the verifying rounds, so rounds repeat until one is
// clean.
func warmHot(s *bnbnet.Supervised, in *inputs) error {
	dst := make([]bnbnet.Word, in.n)
	var last cacheTotals
	for round := 0; round < hotWarmRounds; round++ {
		before := cacheCounts(s.Stats())
		for i := range in.warm {
			for rep := 0; rep < 2; rep++ {
				if err := routeSupervised(s, dst, &in.warm[i]); err != nil {
					return fmt.Errorf("warm-up route: %w", err)
				}
			}
		}
		last = cacheCounts(s.Stats()).minus(before)
		if round > 0 && last.misses == 0 {
			return nil
		}
	}
	return fmt.Errorf("working set still compiling after %d warm-up rounds (last round: %d hits, %d misses, %d evictions)",
		hotWarmRounds, last.hits, last.misses, last.evictions)
}

// hotWarmRounds bounds hot-m7's warm-up; a verifying round takes about
// half a millisecond, the probe set's first compile a few milliseconds.
const hotWarmRounds = 200
