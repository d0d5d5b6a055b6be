// Command fabricsim runs the input-queued switch-fabric simulation around
// any of the permutation networks, sweeping offered load and reporting
// throughput and mean queueing delay — the system-level workload of the
// paper's motivating "switching systems". With -metrics it also attaches the
// observability sink to the switch and reports each load point's network
// passes and their latency percentiles.
//
// With -chaos the network is wrapped in a fault injector striking whole
// passes with seeded transient faults, the switch runs in degraded mode —
// requeueing every failed or misdelivered cell instead of aborting — and the
// run reports eventual delivery after draining the backlog.
//
// With -planes the tool leaves the fabric loop and runs the availability
// experiment of DESIGN.md §9: K supervised redundant planes with -chaos
// injected into plane 0, versus an unsupervised single plane under the same
// fault schedule, reporting delivery rates and the supervisor's failover /
// repair / readmit counters. The run exits nonzero if the supervised stack
// drops or misroutes anything. -slow adds latency-fault chaos (stalled route
// passes) to plane 0 and -hedge auto arms tail-tolerant hedged routing with
// a delay that tracks observed latency.
//
// With -reconfig R (alongside -planes) the tool runs the hitless-rollout
// experiment of DESIGN.md §13 instead: while the request stream is in
// flight — and -chaos keeps striking plane 0 — the whole fleet is rolled
// onto freshly built planes R times via Reconfigure, pre-warming each new
// plan cache from the outgoing one. The run reports per-rollout wall time,
// the final drain latency, and the supervisor's reconfiguration counters,
// and exits nonzero if a single request is lost, failed or misrouted.
//
// With -cluster S the tool runs the multi-shard fabric experiment: S
// independent supervised shards of order m joined by edge-colored
// inter-shard exchange stages serve the request stream as one aggregate
// fabric of S·2^m ports — `-cluster 128 -m 7` demonstrates 16384 ports —
// while one shard is added and drained mid-stream to show hitless
// membership. Every delivery is verified word-for-word; the run exits
// nonzero on any loss or misroute.
//
//	fabricsim -net bnb -m 5 -traffic uniform -cycles 5000
//	fabricsim -net bnb -m 5 -traffic permutation -metrics
//	fabricsim -net batcher -m 5 -traffic hotspot -hotfrac 0.3
//	fabricsim -net bnb -m 5 -traffic permutation -cycles 1000 -chaos 0.01
//	fabricsim -net bnb -m 5 -planes 3 -chaos 0.01 -requests 10000
//	fabricsim -net bnb -m 5 -planes 3 -slow 300us -hedge auto -requests 10000
//	fabricsim -net bnb -m 5 -planes 3 -chaos 0.01 -reconfig 3 -requests 10000
//	fabricsim -net bnb -m 7 -cluster 128 -requests 2000
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	bnbnet "repro"
)

func main() {
	var (
		netName   = flag.String("net", "bnb", "network family: "+strings.Join(bnbnet.Families(), ", "))
		m         = flag.Int("m", 5, "network order (N = 2^m ports)")
		traffic   = flag.String("traffic", "uniform", "traffic: uniform, permutation, hotspot")
		cycles    = flag.Int("cycles", 3000, "cycles per load point")
		seed      = flag.Int64("seed", 42, "random seed")
		hotfrac   = flag.Float64("hotfrac", 0.3, "hotspot fraction (hotspot traffic)")
		voq       = flag.Bool("voq", false, "use virtual output queues instead of FIFO input queues")
		metrics   = flag.Bool("metrics", false, "attach the metrics sink and report network-pass latencies")
		chaos     = flag.Float64("chaos", 0, "per-cycle transient fault rate; > 0 enables fault injection and degraded mode")
		chaosHeal = flag.Int("chaos-heal", 1, "cycles a chaos fault lives before healing")
		chaosSeed = flag.Int64("chaos-seed", 2026, "seed of the deterministic chaos schedule")
		planes    = flag.Int("planes", 0, "run K >= 2 supervised redundant planes (with -chaos striking plane 0) instead of the fabric loop")
		requests  = flag.Int("requests", 10000, "requests for the -planes availability run")
		hedge     = flag.String("hedge", "", `with -planes: "auto" arms hedged routing, with the hedge delay derived from observed latency`)
		slow      = flag.Duration("slow", 0, "with -planes: latency-fault chaos on plane 0 — each struck cycle stalls a route pass by this much")
		slowRate  = flag.Float64("slow-rate", 0.1, "with -slow: per-cycle rate of the latency faults")
		reconfig  = flag.Int("reconfig", 0, "with -planes: perform R live Reconfigure rollouts while the request stream is in flight")
		cluster   = flag.Int("cluster", 0, "run S >= 2 supervised shards as one aggregate fabric of S*2^m ports instead of the fabric loop")
		warm      = flag.Int("warm", 16, "with -reconfig: hottest plans pre-warmed per rebuilt plane")
		debugAddr = flag.String("debug", "", `serve the debug bundle (metrics exposition, trace dump, pprof) on this address for the duration of the run, e.g. ":8080"`)
	)
	flag.Parse()
	// With -debug the whole run shares one sink and one tracer, exposed live
	// on the debug endpoint; the per-load-point tables then read cumulative.
	var dbg *debugState
	if *debugAddr != "" {
		var err error
		if dbg, err = startDebug(*debugAddr); err != nil {
			fmt.Fprintln(os.Stderr, "fabricsim:", err)
			os.Exit(1)
		}
		defer dbg.srv.Close()
	}
	var err error
	if *cluster > 0 {
		err = runCluster(*netName, *m, *cluster, *requests, *seed, dbg)
	} else if *planes > 0 && *reconfig > 0 {
		err = runReconfig(*netName, *m, *planes, *requests, *reconfig, *warm, *seed, *chaos, *chaosHeal, *chaosSeed, dbg)
	} else if *planes > 0 {
		err = runPlanes(*netName, *m, *planes, *requests, *seed, *chaos, *chaosHeal, *chaosSeed, *hedge, *slow, *slowRate, dbg)
	} else {
		err = run(*netName, *m, *traffic, *cycles, *seed, *hotfrac, *voq, *metrics, *chaos, *chaosHeal, *chaosSeed, dbg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fabricsim:", err)
		os.Exit(1)
	}
}

// debugState is the shared observability surface behind -debug: one metrics
// sink and one trace ring for the whole run, served over HTTP until exit.
type debugState struct {
	sink   *bnbnet.Metrics
	tracer *bnbnet.Tracer
	srv    *bnbnet.DebugServer
}

func startDebug(addr string) (*debugState, error) {
	d := &debugState{sink: bnbnet.NewMetrics(), tracer: bnbnet.NewTracer(4096)}
	srv, err := bnbnet.Serve(addr, d.sink, d.tracer)
	if err != nil {
		return nil, err
	}
	d.srv = srv
	fmt.Printf("debug: http://%s/debug/bnb/metrics (also /debug/bnb/traces, /debug/pprof/)\n", srv.Addr())
	return d, nil
}

// runCluster is the multi-shard fabric experiment: S supervised shards of
// order m are joined into one aggregate fabric of S·2^m ports, a random
// permutation stream is routed through it in three phases — the middle
// phase on a membership grown by one live AddShard, then shrunk back by a
// live RemoveShard — and every delivery is verified word-for-word. The
// run exits nonzero on any loss or misroute.
func runCluster(netName string, m, shards, requests int, seed int64, dbg *debugState) error {
	if shards < 2 {
		return fmt.Errorf("-cluster %d: need at least 2 shards", shards)
	}
	opts := []bnbnet.Option{bnbnet.WithShards(shards)}
	if dbg != nil {
		opts = append(opts, bnbnet.WithMetrics(dbg.sink), bnbnet.WithTracer(dbg.tracer))
	}
	cl, err := bnbnet.NewCluster(netName, m, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("cluster: %s, %d shards x %d ports = %d aggregate ports, %d requests\n",
		netName, shards, 1<<uint(m), cl.Inputs(), requests)

	rng := rand.New(rand.NewSource(seed))
	var delivered, misrouted int
	var words int64
	drive := func(count int) error {
		const batchMax = 64
		n := cl.Inputs()
		for done := 0; done < count; done += batchMax {
			size := batchMax
			if count-done < size {
				size = count - done
			}
			batch := make([][]bnbnet.Word, size)
			perms := make([]bnbnet.Perm, size)
			for i := range batch {
				perms[i] = bnbnet.RandomPerm(n, rng)
				batch[i] = make([]bnbnet.Word, n)
				for j, d := range perms[i] {
					batch[i][j] = bnbnet.Word{Addr: d, Data: uint64(j)}
				}
			}
			outs, errs := cl.RouteBatch(batch)
			for i := range errs {
				if errs[i] != nil {
					return fmt.Errorf("route: %w", errs[i])
				}
				ok := true
				for j, d := range perms[i] {
					if outs[i][d].Addr != d || outs[i][d].Data != uint64(j) {
						ok = false
						break
					}
				}
				if ok {
					delivered++
					words += int64(n)
				} else {
					misrouted++
				}
			}
		}
		return nil
	}

	// Three phases: steady state, grown by a live shard, shrunk back. The
	// membership changes happen between batches, so every single request
	// must deliver — there is no client race to excuse a rejection.
	phase := requests / 3
	start := time.Now()
	if err := drive(phase); err != nil {
		return err
	}
	if _, err := cl.AddShard(context.Background()); err != nil {
		return fmt.Errorf("live AddShard: %w", err)
	}
	fmt.Printf("grown live to %d shards (%d ports) mid-stream\n", cl.Shards(), cl.Inputs())
	if err := drive(phase); err != nil {
		return err
	}
	if _, err := cl.RemoveShard(context.Background()); err != nil {
		return fmt.Errorf("live RemoveShard: %w", err)
	}
	fmt.Printf("shrunk live to %d shards (%d ports) mid-stream\n", cl.Shards(), cl.Inputs())
	if err := drive(requests - 2*phase); err != nil {
		return err
	}
	elapsed := time.Since(start)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "requests\tdelivered\tmisrouted\televated shards\telapsed\troutes/s\twords/s")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\t%.0f\t%.0f\n",
		requests, delivered, misrouted, cl.ShardsAdded(),
		elapsed.Round(time.Millisecond),
		float64(requests)/elapsed.Seconds(), float64(words)/elapsed.Seconds())
	tw.Flush()
	if err := cl.Drain(context.Background()); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if delivered != requests || misrouted != 0 {
		return fmt.Errorf("cluster fabric delivered %d/%d requests (%d misrouted); reproduce with -seed %d",
			delivered, requests, misrouted, seed)
	}
	fmt.Println("every request was delivered word-for-word across the live membership changes.")
	return nil
}

// runPlanes is the availability experiment: the same request stream is
// offered to an unsupervised single plane carrying the chaos plan and to a
// K-plane supervised stack with the identical plan striking plane 0, and
// the two delivery rates are compared. The supervised run must be perfect.
func runPlanes(netName string, m, k, requests int, seed int64, chaos float64, chaosHeal int, chaosSeed int64, hedge string, slow time.Duration, slowRate float64, dbg *debugState) error {
	if k < 2 {
		return fmt.Errorf("-planes %d: need at least 2 planes", k)
	}
	var hedgeOpt bnbnet.Option
	switch hedge {
	case "":
	case "auto":
		hedgeOpt = bnbnet.WithHedgeAuto()
	default:
		return fmt.Errorf(`-hedge %q: want "auto" (the hedge delay is derived from observed latency)`, hedge)
	}
	var plan *bnbnet.FaultPlan
	if chaos > 0 || slow > 0 {
		plan = &bnbnet.FaultPlan{ChaosRate: chaos, ChaosHeal: chaosHeal, Seed: chaosSeed}
		if slow > 0 {
			plan.SlowRate = slowRate
			plan.SlowDelay = slow
			plan.SlowHeal = chaosHeal
		}
	}
	fmt.Printf("planes: %s, order %d (%d ports), %d supervised planes, %d requests\n",
		netName, m, 1<<uint(m), k, requests)
	if chaos > 0 {
		fmt.Printf("chaos: transient fault rate %v per cycle on plane 0, heal %d, seed %d\n",
			chaos, chaosHeal, chaosSeed)
	}
	if slow > 0 {
		fmt.Printf("slow chaos: +%v per struck pass on plane 0, rate %v per cycle, heal %d, seed %d\n",
			slow, slowRate, chaosHeal, chaosSeed)
	}
	if hedgeOpt != nil {
		fmt.Printf("hedging: %s\n", hedge)
	}

	type outcome struct {
		delivered, failed, misrouted int
		elapsed                      time.Duration
	}
	drive := func(route func([]bnbnet.Perm) ([][]bnbnet.Word, []error)) outcome {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << uint(m)
		var out outcome
		start := time.Now()
		const batch = 256
		for done := 0; done < requests; done += batch {
			size := batch
			if requests-done < size {
				size = requests - done
			}
			ps := make([]bnbnet.Perm, size)
			for i := range ps {
				ps[i] = bnbnet.RandomPerm(n, rng)
			}
			outs, errs := route(ps)
			for i := range errs {
				if errs[i] != nil {
					out.failed++
					if errors.Is(errs[i], bnbnet.ErrMisrouted) {
						out.misrouted++
					}
					continue
				}
				ok := true
				for j, w := range outs[i] {
					if w.Addr != j {
						ok = false
						break
					}
				}
				if ok {
					out.delivered++
				} else {
					out.misrouted++
				}
			}
		}
		out.elapsed = time.Since(start)
		return out
	}

	// Baseline: one plane, no supervision, the chaos plan striking it
	// directly. Failures surface to the caller.
	var baseOpts []bnbnet.Option
	if plan != nil {
		baseOpts = append(baseOpts, bnbnet.WithFaults(plan))
	}
	baseNet, err := bnbnet.New(netName, m, baseOpts...)
	if err != nil {
		return err
	}
	baseEng, err := bnbnet.NewEngine(baseNet, bnbnet.WithWorkers(4))
	if err != nil {
		return err
	}
	base := drive(baseEng.RoutePermBatch)
	if err := baseEng.Close(); err != nil {
		return err
	}

	// Supervised: K planes, the same plan striking plane 0 only.
	supOpts := []bnbnet.Option{bnbnet.WithPlanes(k), bnbnet.WithWorkers(4)}
	if plan != nil {
		supOpts = append(supOpts, bnbnet.WithPlaneFaults(0, plan))
	}
	if hedgeOpt != nil {
		supOpts = append(supOpts, hedgeOpt)
	}
	if dbg != nil {
		supOpts = append(supOpts, bnbnet.WithMetrics(dbg.sink), bnbnet.WithTracer(dbg.tracer))
	}
	sup, err := bnbnet.NewSupervised(netName, m, supOpts...)
	if err != nil {
		return err
	}
	supOut := drive(sup.RoutePermBatch)
	failovers, repairs, readmits := sup.Failovers(), sup.Repairs(), sup.Readmits()
	hedges, hedgeWins, slowQuars := sup.Hedges(), sup.HedgeWins(), sup.SlowQuarantines()
	states := sup.PlaneStates()
	if err := sup.Close(); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\trequests\tdelivered\tfailed\tmisrouted\tavailability\telapsed")
	fmt.Fprintf(tw, "single plane\t%d\t%d\t%d\t%d\t%.4f\t%v\n",
		requests, base.delivered, base.failed, base.misrouted,
		float64(base.delivered)/float64(requests), base.elapsed.Round(time.Millisecond))
	fmt.Fprintf(tw, "supervised x%d\t%d\t%d\t%d\t%d\t%.4f\t%v\n",
		k, requests, supOut.delivered, supOut.failed, supOut.misrouted,
		float64(supOut.delivered)/float64(requests), supOut.elapsed.Round(time.Millisecond))
	tw.Flush()
	fmt.Printf("supervisor: failovers=%d repairs=%d readmits=%d states=%v\n",
		failovers, repairs, readmits, states)
	if hedgeOpt != nil || slow > 0 {
		fmt.Printf("tail: hedges=%d hedge_wins=%d slow_quarantines=%d\n", hedges, hedgeWins, slowQuars)
	}
	if supOut.delivered != requests || supOut.misrouted != 0 {
		return fmt.Errorf("supervised stack delivered %d/%d requests (%d misrouted); redundancy must absorb a single faulty plane (reproduce with -seed %d -chaos-seed %d)",
			supOut.delivered, requests, supOut.misrouted, seed, chaosSeed)
	}
	if plan != nil {
		fmt.Println("the supervised stack delivered every request despite the faulty plane.")
	} else {
		fmt.Println("the supervised stack delivered every request.")
	}
	return nil
}

// runReconfig is the hitless-rollout experiment of DESIGN.md §13: a K-plane
// supervised stack serves the request stream (with -chaos striking plane 0)
// while the whole fleet is rolled onto freshly built planes R times, each
// rebuilt plan cache pre-warmed from its predecessor's hottest plans. The
// run must be perfect — every request delivered to its addressed output —
// or the tool exits nonzero.
func runReconfig(netName string, m, k, requests, rollouts, warmTopK int, seed int64, chaos float64, chaosHeal int, chaosSeed int64, dbg *debugState) error {
	if k < 2 {
		return fmt.Errorf("-planes %d: need at least 2 planes", k)
	}
	fmt.Printf("reconfig: %s, order %d (%d ports), %d supervised planes, %d requests, %d live rollouts, warm top-%d\n",
		netName, m, 1<<uint(m), k, requests, rollouts, warmTopK)
	supOpts := []bnbnet.Option{
		bnbnet.WithPlanes(k), bnbnet.WithWorkers(4),
		bnbnet.WithHealthInterval(time.Millisecond),
		bnbnet.WithPlanCache(256),
	}
	if chaos > 0 {
		supOpts = append(supOpts, bnbnet.WithPlaneFaults(0, &bnbnet.FaultPlan{
			ChaosRate: chaos, ChaosHeal: chaosHeal, Seed: chaosSeed,
		}))
		fmt.Printf("chaos: transient fault rate %v per cycle on plane 0, heal %d, seed %d\n",
			chaos, chaosHeal, chaosSeed)
	}
	sink := bnbnet.NewMetrics()
	if dbg != nil {
		sink = dbg.sink
		supOpts = append(supOpts, bnbnet.WithTracer(dbg.tracer))
	}
	supOpts = append(supOpts, bnbnet.WithMetrics(sink))
	sup, err := bnbnet.NewSupervised(netName, m, supOpts...)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	// The rollout goroutine waits for the first batch to land (so caches hold
	// real traffic to warm from), then runs the R rollouts back to back while
	// the main loop keeps the request stream flowing.
	started := make(chan struct{})
	type rolloutResult struct {
		durations []time.Duration
		err       error
	}
	rolloutCh := make(chan rolloutResult, 1)
	go func() {
		<-started
		res := rolloutResult{durations: make([]time.Duration, 0, rollouts)}
		for i := 0; i < rollouts; i++ {
			begin := time.Now()
			if err := sup.Reconfigure(ctx, bnbnet.ReconfigWarmPlans(warmTopK)); err != nil {
				res.err = fmt.Errorf("rollout %d: %w", i+1, err)
				break
			}
			res.durations = append(res.durations, time.Since(begin))
		}
		rolloutCh <- res
	}()

	rng := rand.New(rand.NewSource(seed))
	n := 1 << uint(m)
	var delivered, failed, misrouted int
	var res *rolloutResult
	start := time.Now()
	const batch = 250
	for done := 0; done < requests || res == nil; done += batch {
		size := batch
		if requests-done < size && requests-done > 0 {
			size = requests - done
		}
		ps := make([]bnbnet.Perm, size)
		for i := range ps {
			ps[i] = bnbnet.RandomPerm(n, rng)
		}
		outs, errs := sup.RoutePermBatch(ps)
		for i := range errs {
			if errs[i] != nil {
				failed++
				if errors.Is(errs[i], bnbnet.ErrMisrouted) {
					misrouted++
				}
				continue
			}
			ok := true
			for j, w := range outs[i] {
				if w.Addr != j {
					ok = false
					break
				}
			}
			if ok {
				delivered++
			} else {
				misrouted++
			}
		}
		if done == 0 {
			close(started)
		}
		if res == nil {
			select {
			case r := <-rolloutCh:
				res = &r
			default:
			}
		}
	}
	elapsed := time.Since(start)
	if res.err != nil {
		sup.Close()
		return res.err
	}

	// Drain latency: how long the lifecycle takes to stop admission and land
	// every in-flight ticket once the stream ends.
	drainStart := time.Now()
	if err := sup.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	drainLatency := time.Since(drainStart)
	snap := sink.Snapshot()
	reconfigs, warms := snap.Reconfigs, snap.PlanWarms
	failovers, readmits := sup.Failovers(), sup.Readmits()
	states := sup.PlaneStates()
	if err := sup.Close(); err != nil {
		return err
	}

	total := delivered + failed + misrouted
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "requests\tdelivered\tfailed\tmisrouted\tavailability\telapsed")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.4f\t%v\n",
		total, delivered, failed, misrouted,
		float64(delivered)/float64(total), elapsed.Round(time.Millisecond))
	tw.Flush()
	for i, d := range res.durations {
		fmt.Printf("rollout %d: %v\n", i+1, d.Round(time.Microsecond))
	}
	fmt.Printf("drain latency: %v\n", drainLatency.Round(time.Microsecond))
	fmt.Printf("supervisor: reconfigs=%d plan warms=%d failovers=%d readmits=%d states=%v\n",
		reconfigs, warms, failovers, readmits, states)
	if delivered != total || misrouted != 0 || reconfigs != int64(rollouts) {
		return fmt.Errorf("rollout was not hitless: %d/%d delivered, %d misrouted, %d/%d reconfigurations (reproduce with -seed %d -chaos-seed %d)",
			delivered, total, misrouted, reconfigs, rollouts, seed, chaosSeed)
	}
	fmt.Printf("every request was delivered across %d live rollouts; the reconfiguration was hitless.\n", rollouts)
	return nil
}

func run(netName string, m int, traffic string, cycles int, seed int64, hotfrac float64, voq, showMetrics bool, chaos float64, chaosHeal int, chaosSeed int64, dbg *debugState) error {
	var opts []bnbnet.Option
	if chaos > 0 {
		if voq {
			return fmt.Errorf("-chaos requires the FIFO switch; drop -voq (degraded mode requeues at the input queues)")
		}
		opts = append(opts, bnbnet.WithFaults(&bnbnet.FaultPlan{
			ChaosRate: chaos,
			ChaosHeal: chaosHeal,
			Seed:      chaosSeed,
		}))
	}
	net, err := bnbnet.New(netName, m, opts...)
	if err != nil {
		return err
	}
	ports := net.Inputs()
	queueing := "FIFO"
	if voq {
		queueing = "VOQ"
	}
	fmt.Printf("fabric: %s, %d ports, %s traffic, %s queueing, %d cycles per load point\n",
		net.Name(), ports, traffic, queueing, cycles)
	if chaos > 0 {
		fmt.Printf("chaos: transient fault rate %v per cycle, heal %d, seed %d; degraded mode on\n",
			chaos, chaosHeal, chaosSeed)
	}
	loads := []float64{0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	snapshots := make([]bnbnet.MetricsSnapshot, 0, len(loads))
	type chaosRow struct {
		load                                float64
		offered, delivered, requeued, fails int
		drain                               int
		eventual                            float64
	}
	var chaosRows []chaosRow
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "offered load\tthroughput\tmean wait\tp50\tp99\tmax queue\tbacklog")
	for _, load := range loads {
		gen, err := makeTraffic(traffic, load, hotfrac)
		if err != nil {
			return err
		}
		sink := bnbnet.NewMetrics()
		if dbg != nil {
			sink = dbg.sink
		}
		fopts := []bnbnet.Option{bnbnet.WithMetrics(sink)}
		if voq {
			fopts = append(fopts, bnbnet.WithVOQ())
		} else if chaos > 0 {
			fopts = append(fopts, bnbnet.WithDegraded())
		}
		sw, err := bnbnet.NewFabric(net, fopts...)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(seed))
		stats, err := sw.Run(gen, cycles, rng)
		if err != nil {
			return err
		}
		if !voq && chaos > 0 {
			// Drain with idle arrivals until every requeued cell lands.
			row := chaosRow{
				load: load, offered: stats.Offered, delivered: stats.Delivered,
				requeued: stats.Requeued, fails: stats.FailedPasses,
			}
			idle, err := makeTraffic(traffic, 0, hotfrac)
			if err != nil {
				return err
			}
			for chunk := 0; chunk < 20; chunk++ {
				d, err := sw.Run(idle, cycles, rng)
				if err != nil {
					return err
				}
				row.delivered += d.Delivered
				row.requeued += d.Requeued
				row.fails += d.FailedPasses
				row.drain += cycles
				if d.Backlog == 0 {
					break
				}
			}
			if row.offered > 0 {
				row.eventual = float64(row.delivered) / float64(row.offered)
			} else {
				row.eventual = 1
			}
			chaosRows = append(chaosRows, row)
		}
		snapshots = append(snapshots, sink.Snapshot())
		fmt.Fprintf(tw, "%.2f\t%.4f\t%.2f\t%d\t%d\t%d\t%d\n",
			load, stats.Throughput(ports), stats.MeanWait(),
			stats.WaitPercentile(0.50), stats.WaitPercentile(0.99),
			stats.MaxQueue, stats.Backlog)
	}
	tw.Flush()
	if chaos > 0 {
		fmt.Println("\neventual delivery under chaos (after backlog drain):")
		cw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(cw, "offered load\toffered\tdelivered\trequeued\tfailed passes\tdrain cycles\teventual delivery")
		allDelivered := true
		for _, row := range chaosRows {
			fmt.Fprintf(cw, "%.2f\t%d\t%d\t%d\t%d\t%d\t%.4f\n",
				row.load, row.offered, row.delivered, row.requeued, row.fails, row.drain, row.eventual)
			if row.delivered != row.offered {
				allDelivered = false
			}
		}
		cw.Flush()
		if fn, ok := net.(*bnbnet.FaultyNetwork); ok {
			fmt.Printf("injected faulty passes: %d\n", fn.InjectedPasses())
		}
		if allDelivered {
			fmt.Println("every offered cell was eventually delivered to its addressed output.")
		} else {
			return fmt.Errorf("some cells were never delivered; see the table above (reproduce with -seed %d -chaos-seed %d)", seed, chaosSeed)
		}
	}
	if showMetrics {
		fmt.Println("\nnetwork-pass metrics per load point:")
		mw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(mw, "offered load\tpasses\terrors\tcells switched\tmean pass\tp99 pass\tmax pass")
		for i, load := range loads {
			s := snapshots[i]
			fmt.Fprintf(mw, "%.2f\t%d\t%d\t%d\t%v\t%v\t%v\n",
				load, s.Routes, s.Errors, s.WordsSwitched, s.MeanLatency, s.P99, s.MaxLatency)
		}
		mw.Flush()
	}
	if traffic == "uniform" && !voq {
		fmt.Println("note: FIFO input queueing saturates near 2-sqrt(2) ~ 0.586 under uniform traffic;")
		fmt.Println("      permutation traffic sustains 1.0 because the network routes any permutation;")
		fmt.Println("      re-run with -voq to lift the head-of-line limit.")
	}
	return nil
}

// makeTraffic builds the named traffic generator at the given offered load.
func makeTraffic(traffic string, load, hotfrac float64) (bnbnet.Traffic, error) {
	switch traffic {
	case "uniform":
		return bnbnet.UniformTraffic{Load: load}, nil
	case "permutation":
		return bnbnet.PermutationTraffic{Load: load}, nil
	case "hotspot":
		return bnbnet.HotspotTraffic{Load: load, Frac: hotfrac, Target: 0}, nil
	default:
		return nil, fmt.Errorf("unknown traffic %q", traffic)
	}
}
