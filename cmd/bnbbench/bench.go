package main

// The measurement core of bnbbench. runBench is a pure function of its
// config — seeded workloads, no global state — so the test suite drives it
// in-process and the CLI just wires flags to it.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	bnbnet "repro"
)

// Report is the machine-readable result of one bnbbench run at one order —
// the BENCH_<m>.json payload. Schema "bnbbench/v9" (v2 added the compiled
// route-plan section; v3 the hitless-reconfiguration profile; v4 the
// tail-tolerance profile; v5 the sharded-queue engine counters; v6 the
// multi-shard cluster fabric sweep; v7 the host reference; v8 dropped the
// engine counters that one queue fixes; v9 measures the reconfig blackout
// from three probers' completions against a steady window); Validate
// checks an emitted file against it.
type Report struct {
	Schema string `json:"schema"`
	M      int    `json:"m"`
	N      int    `json:"n"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Quick  bool   `json:"quick"`
	// HostRef times the host before and after the measurements.
	HostRef HostRef `json:"host_ref_us"`

	Networks []NetworkResult `json:"networks"`
	Engine   []EngineResult  `json:"engine"`
	Planes   []PlaneResult   `json:"planes"`
	Plan     PlanResultV2    `json:"plan"`
	Reconfig ReconfigResult  `json:"reconfig"`
	Tail     TailResult      `json:"tail"`
	Cluster  ClusterResult   `json:"cluster"`
}

// HostRef times a fixed pure-Go loop that calls no repository code —
// perfbench's host.ref_us, the median of 15 timings in microseconds —
// before and after the measurements. Where two BENCH files' host
// references differ, their untouched rows (Batcher, Beneš) move with them.
type HostRef struct {
	Before float64 `json:"before"`
	After  float64 `json:"after"`
}

func hostRef() float64 {
	buf := make([]uint64, 1024)
	times := make([]int64, 15)
	for k := range times {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for pass := 0; pass < 64; pass++ {
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] += x
			}
		}
		sort.Slice(buf[:256], func(i, j int) bool { return buf[i] < buf[j] })
		times[k] = time.Since(t0).Nanoseconds()
		refSink += buf[0]
	}
	_, p50, _ := summarize(times)
	return float64(p50) / 1e3
}

// refSink keeps the compiler from discarding hostRef's loop.
var refSink uint64

// ClusterResult profiles the multi-shard cluster fabric added by
// bnbbench/v6: a shard-count sweep at fixed shard order m, so the
// aggregate port count S·2^m grows with the fleet. Each point measures the
// end-to-end route latency and batched aggregate throughput of the whole
// fabric, plus the two cluster-specific costs: the matching stage
// (Compile — the Kőnig edge coloring that decomposes one aggregate
// permutation into inter-shard matchings and per-shard locals) and the
// replay of a compiled assignment.
type ClusterResult struct {
	ShardOrder int            `json:"shard_order"`
	Sweep      []ClusterPoint `json:"sweep"`
}

// ClusterPoint is one shard count's profile in the cluster sweep.
type ClusterPoint struct {
	Shards   int `json:"shards"`
	Inputs   int `json:"inputs"`
	Requests int `json:"requests"`
	// End-to-end closed-loop route latency through the aggregate fabric.
	NsPerOp float64 `json:"ns_per_op"`
	P50Ns   int64   `json:"p50_ns"`
	P99Ns   int64   `json:"p99_ns"`
	// Batched aggregate throughput; words/sec = routes/sec x inputs.
	RoutesPerSec float64 `json:"routes_per_sec"`
	WordsPerSec  float64 `json:"words_per_sec"`
	// DecomposeNsPerOp is the matching-stage latency (Cluster.Compile), the
	// median of its samples.
	DecomposeNsPerOp float64 `json:"decompose_ns_per_op"`
	// ReplayNsPerOp replays the compiled assignment through the shards.
	ReplayNsPerOp float64 `json:"replay_ns_per_op"`
}

// TailResult profiles the tail-tolerant serving path added by bnbbench/v4:
// the request p99 of a supervised stack with one plane under slow chaos
// (latency faults that stall route passes), measured healthy, unhedged, and
// with auto hedging racing the tail — plus the hedge fire rate — and the
// per-class shed rates of a deliberately saturated one-worker engine, which
// pin the QoS contract: background sheds before critical.
type TailResult struct {
	Planes      int     `json:"planes"`
	SlowDelayNs int64   `json:"slow_delay_ns"`
	SlowRate    float64 `json:"slow_rate"`
	// The p99 of the same request stream under the three serving modes.
	HealthyP99Ns  int64 `json:"healthy_p99_ns"`
	UnhedgedP99Ns int64 `json:"unhedged_p99_ns"`
	HedgedP99Ns   int64 `json:"hedged_p99_ns"`
	// Hedge counters of the hedged run.
	Hedges        int64   `json:"hedges"`
	HedgeWins     int64   `json:"hedge_wins"`
	HedgeFireRate float64 `json:"hedge_fire_rate"`
	// Classes is the saturation profile, one entry per admission class in
	// priority order (background, standard, critical).
	Classes []ClassPoint `json:"classes"`
}

// ClassPoint is one admission class's outcome under saturation.
type ClassPoint struct {
	Class     string  `json:"class"`
	Submitted int64   `json:"submitted"`
	Sheds     int64   `json:"sheds"`
	ShedRate  float64 `json:"shed_rate"`
}

// ReconfigResult profiles the hitless live-rollout path: one full
// Reconfigure of a two-plane supervised stack while three closed-loop
// probers keep routing. RolloutNs is Reconfigure's own time from call to
// return. SwapBlackoutNs is the longest stretch of the rollout without a
// completion (all probers merged, the rollout's start and end counted as
// edges), and OutsideGapNs the same measure over a steady window just
// before it; CompletionsInside counts the completions inside the rollout,
// and BlackoutResolved records whether the rollout outlasts the steady
// window's longest gap, without which the blackout cannot tell a stalled
// rollout from ordinary gaps. WarmHitRatio is the fraction of the first
// post-rollout requests served from the pre-warmed plan caches, and
// DrainNs the latency of the final drain on the idle engine.
type ReconfigResult struct {
	Planes            int     `json:"planes"`
	RolloutNs         int64   `json:"rollout_ns"`
	SwapBlackoutNs    int64   `json:"swap_blackout_ns"`
	OutsideGapNs      int64   `json:"outside_gap_ns"`
	CompletionsInside int     `json:"completions_inside"`
	BlackoutResolved  bool    `json:"blackout_resolved"`
	DrainNs           int64   `json:"drain_ns"`
	PlanWarms         int64   `json:"plan_warms"`
	WarmHitRatio      float64 `json:"warm_hit_ratio"`
}

// NetworkResult is the single-threaded route latency profile of one family.
type NetworkResult struct {
	Family       string  `json:"family"`
	Samples      int     `json:"samples"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	RoutesPerSec float64 `json:"routes_per_sec"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	// PooledNsPerOp is the zero-allocation RouteInto path, present only for
	// families offering the BulkRouter surface (0 otherwise).
	PooledNsPerOp float64 `json:"pooled_ns_per_op,omitempty"`
}

// EngineResult is one point of the serving-engine throughput sweep. The
// queue counters count the run's dequeues and how often workers parked. A
// worker takes one request per dequeue, so the validator requires exactly
// one dequeue per served request (batch_dequeues == requests).
type EngineResult struct {
	Workers      int     `json:"workers"`
	Requests     int     `json:"requests"`
	RoutesPerSec float64 `json:"routes_per_sec"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`

	BatchDequeues int64 `json:"batch_dequeues"`
	WorkerParks   int64 `json:"worker_parks"`
}

// PlanResultV2 profiles the compiled route-plan path added by bnbbench/v2:
// the one-off compile cost (a full live arbiter pass plus recording), the
// steady-state replay latency and allocations, the break-even repeat count
// where compiling amortizes over live routing, and a cache sweep showing how
// the engine's lock-free plan cache converts workload repetition into hits.
type PlanResultV2 struct {
	// CompileNsPerOp and ReplayNsPerOp are medians over the samples.
	CompileNsPerOp    float64 `json:"compile_ns_per_op"`
	ReplayNsPerOp     float64 `json:"replay_ns_per_op"`
	ReplayAllocsPerOp float64 `json:"replay_allocs_per_op"`
	// BreakEvenRoutes is compile / (live - replay): the number of repeats of
	// one permutation after which compile-then-replay beats routing each
	// batch live (0 when replay does not undercut the live path).
	BreakEvenRoutes float64 `json:"break_even_routes"`
	// HitSweep drives the cached engine with workloads of increasing
	// repetition (50%, 95%, 100% repeated permutations).
	HitSweep []HitPoint `json:"hit_sweep"`
}

// HitPoint is one cache sweep point: a workload where repeat_ratio of the
// requests reuse a permutation from a small working set, and the measured
// cache hit ratio plus throughput the cached engine achieved on it.
type HitPoint struct {
	RepeatRatio  float64 `json:"repeat_ratio"`
	HitRatio     float64 `json:"hit_ratio"`
	RoutesPerSec float64 `json:"routes_per_sec"`
}

// PlaneResult is one point of the supervised multi-plane sweep.
type PlaneResult struct {
	Planes       int     `json:"planes"`
	Workers      int     `json:"workers"`
	Requests     int     `json:"requests"`
	RoutesPerSec float64 `json:"routes_per_sec"`
	P50Ns        int64   `json:"p50_ns"`
	P99Ns        int64   `json:"p99_ns"`
	Failovers    int64   `json:"failovers"`
}

// benchConfig sizes one run. The zero value is not useful; build with
// defaultConfig.
type benchConfig struct {
	m        int
	families []string
	workers  []int
	quick    bool
	seed     int64

	routeSamples   int // per-family latency samples
	engineRequests int // per sweep point
}

func defaultConfig(m int, families []string, workers []int, quick bool) benchConfig {
	cfg := benchConfig{
		m:              m,
		families:       families,
		workers:        workers,
		quick:          quick,
		seed:           1991, // the paper's year; fixed so runs are comparable
		routeSamples:   1500,
		engineRequests: 4000,
	}
	if quick {
		cfg.routeSamples = 300
		cfg.engineRequests = 800
	}
	return cfg
}

// runBench measures every configured family and sweep at order cfg.m.
func runBench(cfg benchConfig) (Report, error) {
	rep := Report{
		Schema: "bnbbench/v9",
		M:      cfg.m,
		N:      1 << uint(cfg.m),
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Quick:  cfg.quick,
	}
	rep.HostRef.Before = hostRef()
	for _, family := range cfg.families {
		nr, err := benchNetwork(family, cfg)
		if err != nil {
			return Report{}, err
		}
		rep.Networks = append(rep.Networks, nr)
	}
	for _, w := range cfg.workers {
		er, err := benchEngine(w, cfg)
		if err != nil {
			return Report{}, err
		}
		rep.Engine = append(rep.Engine, er)
	}
	pr, err := benchPlanes(cfg)
	if err != nil {
		return Report{}, err
	}
	rep.Planes = append(rep.Planes, pr)
	plan, err := benchPlan(cfg)
	if err != nil {
		return Report{}, err
	}
	rep.Plan = plan
	rc, err := benchReconfig(cfg)
	if err != nil {
		return Report{}, err
	}
	rep.Reconfig = rc
	tl, err := benchTail(cfg)
	if err != nil {
		return Report{}, err
	}
	rep.Tail = tl
	cr, err := benchCluster(cfg)
	if err != nil {
		return Report{}, err
	}
	rep.Cluster = cr
	rep.HostRef.After = hostRef()
	return rep, nil
}

// benchCluster runs the v6 shard-count sweep: for each fleet size the
// aggregate fabric of S·2^m ports serves a closed-loop latency probe, a
// batched throughput drive, and the compile/replay pair isolating the
// matching-stage cost from the steady-state path.
func benchCluster(cfg benchConfig) (ClusterResult, error) {
	res := ClusterResult{ShardOrder: cfg.m}
	sweep := []int{2, 4, 8}
	if cfg.quick {
		sweep = []int{2, 4}
	}
	requests := cfg.engineRequests / 4
	samples := cfg.routeSamples / 4
	const compileSamples = 64
	rng := rand.New(rand.NewSource(cfg.seed))
	for _, shards := range sweep {
		point, err := func() (ClusterPoint, error) {
			cl, err := bnbnet.NewCluster("bnb", cfg.m, bnbnet.WithShards(shards))
			if err != nil {
				return ClusterPoint{}, err
			}
			defer cl.Close()
			n := cl.Inputs()
			point := ClusterPoint{Shards: shards, Inputs: n, Requests: requests}

			lat := make([]int64, samples)
			for i := range lat {
				p := bnbnet.RandomPerm(n, rng)
				start := time.Now()
				if _, err := cl.RoutePerm(p); err != nil {
					return ClusterPoint{}, fmt.Errorf("cluster %d shards: %w", shards, err)
				}
				lat[i] = time.Since(start).Nanoseconds()
			}
			mean, p50, p99 := summarize(lat)
			point.NsPerOp, point.P50Ns, point.P99Ns = mean, p50, p99

			elapsed, err := driveBatches(cl.RoutePermBatch, n, requests, cfg.seed)
			if err != nil {
				return ClusterPoint{}, fmt.Errorf("cluster %d shards: %w", shards, err)
			}
			point.RoutesPerSec = float64(requests) / elapsed.Seconds()
			point.WordsPerSec = point.RoutesPerSec * float64(n)

			// The matching stage in isolation: Compile decomposes an aggregate
			// permutation without touching a shard.
			var plan *bnbnet.Plan
			var planPerm bnbnet.Perm
			comp := make([]int64, compileSamples)
			for i := range comp {
				p := bnbnet.RandomPerm(n, rng)
				start := time.Now()
				pl, err := cl.Compile(p)
				if err != nil {
					return ClusterPoint{}, fmt.Errorf("cluster %d shards compile: %w", shards, err)
				}
				comp[i] = time.Since(start).Nanoseconds()
				plan, planPerm = pl, p
			}
			point.DecomposeNsPerOp = medianNs(comp)

			src := make([]bnbnet.Word, n)
			dst := make([]bnbnet.Word, n)
			for i, d := range planPerm {
				src[i] = bnbnet.Word{Addr: d, Data: uint64(i)}
			}
			rep := make([]int64, compileSamples)
			for i := range rep {
				start := time.Now()
				if err := cl.Replay(plan, dst, src); err != nil {
					return ClusterPoint{}, fmt.Errorf("cluster %d shards replay: %w", shards, err)
				}
				rep[i] = time.Since(start).Nanoseconds()
			}
			point.ReplayNsPerOp, _, _ = summarize(rep)
			return point, nil
		}()
		if err != nil {
			return ClusterResult{}, err
		}
		res.Sweep = append(res.Sweep, point)
	}
	return res, nil
}

// benchTail measures the tail-tolerance profile: the same seeded request
// stream over a three-plane supervised stack, first fully healthy, then with
// plane 0 under slow chaos (stalled route passes) and no hedging — the raw
// tail — then under the same chaos with auto hedging racing it. A final
// saturation run drives a one-worker shedding engine with all three
// admission classes interleaved and reads the per-class shed rates.
func benchTail(cfg benchConfig) (TailResult, error) {
	// The stall must dwarf the platform's timer granularity: both the
	// injected sleep and the hedge timer round up to the scheduler's tick
	// (over a millisecond on some kernels), so a sub-tick stall would be
	// indistinguishable from a hedged recovery. At 20ms the unhedged tail
	// sits an order of magnitude above the worst hedge-timer overshoot.
	const (
		planes    = 3
		slowDelay = 20 * time.Millisecond
		slowRate  = 0.1
	)
	slowPlan := &bnbnet.FaultPlan{SlowRate: slowRate, SlowDelay: slowDelay, SlowHeal: 1, Seed: cfg.seed}
	// The tail is a per-request property, so the driver is closed-loop with
	// one request in flight: the engine's latency clock starts at submit, and
	// any queueing ahead of a request would fold scheduling delay into the
	// percentiles and bury the stall signal. The floor keeps enough requests
	// that the ~slowRate/planes strike fraction reliably lands above P99.
	tailRequests := cfg.engineRequests
	if tailRequests < 400 {
		tailRequests = 400
	}
	p99 := func(opts ...bnbnet.Option) (int64, int64, int64, error) {
		sink := bnbnet.NewMetrics()
		all := append([]bnbnet.Option{
			bnbnet.WithPlanes(planes), bnbnet.WithWorkers(4), bnbnet.WithMetrics(sink),
		}, opts...)
		sup, err := bnbnet.NewSupervised("bnb", cfg.m, all...)
		if err != nil {
			return 0, 0, 0, err
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		n := sup.Inputs()
		for i := 0; i < tailRequests; i++ {
			_, errs := sup.RoutePermBatch([]bnbnet.Perm{bnbnet.RandomPerm(n, rng)})
			if errs[0] != nil {
				sup.Close() //nolint:errcheck // the route error is the one to report
				return 0, 0, 0, errs[0]
			}
		}
		if err := sup.Close(); err != nil {
			return 0, 0, 0, err
		}
		snap := sink.Snapshot()
		return snap.P99.Nanoseconds(), snap.Hedges, snap.HedgeWins, nil
	}
	healthy, _, _, err := p99()
	if err != nil {
		return TailResult{}, fmt.Errorf("tail healthy: %w", err)
	}
	unhedged, _, _, err := p99(bnbnet.WithPlaneFaults(0, slowPlan))
	if err != nil {
		return TailResult{}, fmt.Errorf("tail unhedged: %w", err)
	}
	hedged, hedges, wins, err := p99(bnbnet.WithPlaneFaults(0, slowPlan), bnbnet.WithHedgeAuto())
	if err != nil {
		return TailResult{}, fmt.Errorf("tail hedged: %w", err)
	}
	res := TailResult{
		Planes:        planes,
		SlowDelayNs:   slowDelay.Nanoseconds(),
		SlowRate:      slowRate,
		HealthyP99Ns:  healthy,
		UnhedgedP99Ns: unhedged,
		HedgedP99Ns:   hedged,
		Hedges:        hedges,
		HedgeWins:     wins,
		HedgeFireRate: float64(hedges) / float64(tailRequests),
	}
	classes, err := benchClasses(cfg)
	if err != nil {
		return TailResult{}, fmt.Errorf("tail classes: %w", err)
	}
	res.Classes = classes
	return res, nil
}

// classDeadlineFactor sets the class sweep's deadline as a multiple of the
// one-request latency measured at the same order. The deadline must also
// cover the wait of an admitted request while eight open-loop submitters
// hold the CPUs: on 2 vCPUs, 4x shed 0.93–1.00 of critical at m=3 and m=7,
// as much as background; 32x left critical below background at every m.
const classDeadlineFactor = 32

// benchClasses saturates a one-worker shedding engine with an equal mix of
// the three admission classes and reports each class's shed rate. The
// deadline is classDeadlineFactor times the closed-loop p50 of one request
// at this m, so it scales with the service time and whether the shedder
// admits a request depends on how much same-or-higher-class work is ahead
// of it; a fixed deadline shed every class alike at large m. The QoS
// contract under test: background sheds at least as hard as critical.
func benchClasses(cfg benchConfig) ([]ClassPoint, error) {
	net, err := bnbnet.New("bnb", cfg.m)
	if err != nil {
		return nil, err
	}
	n := net.Inputs()
	batches := workload(n, 64, cfg.seed)
	p50, err := closedLoopP50(net, batches)
	if err != nil {
		return nil, err
	}
	sink := bnbnet.NewMetrics()
	eng, err := bnbnet.NewEngine(net,
		bnbnet.WithWorkers(1), bnbnet.WithQueue(64),
		bnbnet.WithShedding(), bnbnet.WithTimeout(classDeadlineFactor*p50),
		bnbnet.WithMetrics(sink))
	if err != nil {
		return nil, err
	}
	// Warm the service-time EWMA so the deadline shedder has an estimate.
	for _, b := range batches[:8] {
		if t, err := eng.Submit(nil, b); err == nil {
			t.Wait() //nolint:errcheck // warm-up; expiries are expected under the tight deadline
		}
	}
	order := []bnbnet.Class{bnbnet.ClassBackground, bnbnet.ClassStandard, bnbnet.ClassCritical}
	var wg sync.WaitGroup
	workers := 8
	perWorker := cfg.engineRequests / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Open loop: fire the whole allotment before waiting on any
			// ticket, so the class queues genuinely fill. A full background
			// queue sheds at the door while critical exerts backpressure —
			// the structural half of the QoS contract — and the deadline
			// shedder sees a depth estimate well past the deadline.
			tickets := make([]*bnbnet.Ticket, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				class := order[(w+i)%len(order)]
				t, err := eng.SubmitClass(context.Background(), class, nil, batches[(w*perWorker+i)%len(batches)])
				if err != nil {
					continue // shed: counted by the sink
				}
				tickets = append(tickets, t)
			}
			for _, t := range tickets {
				t.Wait() //nolint:errcheck // expiries are the saturation signal, not a failure
			}
		}(w)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		return nil, err
	}
	snap := sink.Snapshot()
	out := make([]ClassPoint, len(order))
	for i, class := range order {
		sub, sheds := snap.ClassSubmitted[int(class)], snap.ClassSheds[int(class)]
		rate := 0.0
		if sub > 0 {
			rate = float64(sheds) / float64(sub)
		}
		out[i] = ClassPoint{Class: class.String(), Submitted: sub, Sheds: sheds, ShedRate: rate}
	}
	return out, nil
}

// closedLoopP50 is the median submit-to-completion latency of one request at
// a time through a one-worker engine: the service time a request costs with
// nothing queued ahead of it.
func closedLoopP50(net bnbnet.Network, batches [][]bnbnet.Word) (time.Duration, error) {
	eng, err := bnbnet.NewEngine(net, bnbnet.WithWorkers(1))
	if err != nil {
		return 0, err
	}
	samples := make([]int64, 0, 2*len(batches))
	for pass := 0; pass < 2; pass++ { // the first pass warms pools and caches
		samples = samples[:0]
		for _, b := range batches {
			start := time.Now()
			t, err := eng.Submit(nil, b)
			if err == nil {
				_, err = t.Wait()
			}
			if err != nil {
				eng.Close() //nolint:errcheck // the route error is the one to report
				return 0, err
			}
			samples = append(samples, time.Since(start).Nanoseconds())
		}
	}
	if err := eng.Close(); err != nil {
		return 0, err
	}
	return time.Duration(medianNs(samples)), nil
}

// reconfigProbers is the number of closed-loop Submit+Wait clients that
// keep routing through the rollout; reconfigSteady is the window before
// the rollout whose longest gap between completions is the reference.
const (
	reconfigProbers = 3
	reconfigSteady  = 5 * time.Millisecond
)

// benchReconfig measures the hitless-rollout path: a two-plane supervised
// stack serves a hot working set (filling both plan caches), then
// reconfigProbers closed-loop clients route the hot set through a steady
// window and a rollout of the whole fleet onto fresh planes with
// ReconfigWarmPlans, recording the time of every completion. The first
// post-rollout requests measure how much of the working set the pre-warm
// carried over, and a final Drain on the idle engine gives the drain
// latency. The background health prober is parked (the rolling swap
// verifies replacements synchronously) so the cache counters reflect only
// this workload.
func benchReconfig(cfg benchConfig) (ReconfigResult, error) {
	const planes = 2
	sink := bnbnet.NewMetrics()
	sup, err := bnbnet.NewSupervised("bnb", cfg.m,
		bnbnet.WithPlanes(planes), bnbnet.WithWorkers(2),
		bnbnet.WithPlanCache(256),
		bnbnet.WithHealthInterval(time.Hour),
		bnbnet.WithMetrics(sink))
	if err != nil {
		return ReconfigResult{}, err
	}
	n := sup.Inputs()
	rng := rand.New(rand.NewSource(cfg.seed))
	hot := make([][]bnbnet.Word, 8)
	for i := range hot {
		hot[i] = make([]bnbnet.Word, n)
		for j, d := range bnbnet.RandomPerm(n, rng) {
			hot[i][j] = bnbnet.Word{Addr: d, Data: uint64(j)}
		}
	}
	routeOne := func(src, dst []bnbnet.Word) error {
		tk, err := sup.Submit(dst, src)
		if err != nil {
			return err
		}
		_, err = tk.Wait()
		return err
	}
	// Fill both plan caches with the working set: enough sequential passes
	// that the rotor lands every hot permutation on every plane.
	fill := 8
	if cfg.quick {
		fill = 4
	}
	dst := make([]bnbnet.Word, n)
	for r := 0; r < fill; r++ {
		for _, src := range hot {
			if err := routeOne(src, dst); err != nil {
				return ReconfigResult{}, fmt.Errorf("cache fill: %w", err)
			}
		}
	}

	// The probers record each completion as an offset from base; the
	// steady window is [steady, start) and the rollout [start, end].
	base := time.Now()
	var stop atomic.Bool
	done := make([][]time.Duration, reconfigProbers)
	errs := make([]error, reconfigProbers)
	var wg sync.WaitGroup
	for g := range done {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]bnbnet.Word, n)
			times := make([]time.Duration, 0, 4096)
			for i := g; !stop.Load(); i++ {
				if err := routeOne(hot[i%len(hot)], out); err != nil {
					errs[g] = fmt.Errorf("probe during rollout: %w", err)
					break
				}
				times = append(times, time.Since(base))
				// Yield between probes: the probers' requests are mostly
				// claimed on their own goroutines, which never park, so
				// without it the rollout goroutine could wait for the
				// scheduler's preemption instead of running.
				runtime.Gosched()
			}
			done[g] = times
		}(g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	steady := time.Since(base)
	time.Sleep(reconfigSteady)
	start := time.Since(base)
	rerr := sup.Reconfigure(ctx, bnbnet.ReconfigWarmPlans(len(hot)))
	end := time.Since(base)
	stop.Store(true)
	wg.Wait()
	if rerr != nil {
		return ReconfigResult{}, fmt.Errorf("reconfigure: %w", rerr)
	}
	var all []time.Duration
	for g, times := range done {
		if errs[g] != nil {
			return ReconfigResult{}, errs[g]
		}
		all = append(all, times...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	outside, _ := largestGap(all, steady, start)
	blackout, inside := largestGap(all, start, end)

	// Warm-hit ratio: the share of the first post-rollout working-set
	// requests the pre-warmed caches serve without a compile.
	var hitsBefore int64
	for _, cs := range sup.Stats().PlanCaches {
		hitsBefore += cs.Hits
	}
	post := 8 * len(hot)
	for i := 0; i < post; i++ {
		if err := routeOne(hot[i%len(hot)], dst); err != nil {
			return ReconfigResult{}, fmt.Errorf("post-rollout: %w", err)
		}
	}
	var hitsAfter int64
	for _, cs := range sup.Stats().PlanCaches {
		hitsAfter += cs.Hits
	}

	drainStart := time.Now()
	if err := sup.Drain(ctx); err != nil {
		return ReconfigResult{}, fmt.Errorf("drain: %w", err)
	}
	drain := time.Since(drainStart)
	warms := sink.Snapshot().PlanWarms
	if err := sup.Close(); err != nil {
		return ReconfigResult{}, err
	}
	rollout := end - start
	return ReconfigResult{
		Planes:            planes,
		RolloutNs:         rollout.Nanoseconds(),
		SwapBlackoutNs:    blackout.Nanoseconds(),
		OutsideGapNs:      outside.Nanoseconds(),
		CompletionsInside: inside,
		BlackoutResolved:  rollout > outside,
		DrainNs:           drain.Nanoseconds(),
		PlanWarms:         warms,
		WarmHitRatio:      float64(hitsAfter-hitsBefore) / float64(post),
	}, nil
}

// largestGap returns the longest stretch of the window [from, to] without a
// completion — the largest difference between consecutive sorted
// completion times strictly inside the window, with the window's edges
// counted as completions — and the number of completions inside. With
// none inside, the gap is the whole window.
func largestGap(sorted []time.Duration, from, to time.Duration) (gap time.Duration, inside int) {
	last := from
	for _, t := range sorted {
		if t <= from || t >= to {
			continue
		}
		gap = max(gap, t-last)
		last = t
		inside++
	}
	return max(gap, to-last), inside
}

// benchPlan measures the compiled-plan path: compile cost across the sample
// permutations, steady-state replay latency and allocations on one plan, and
// the cached engine's hit ratio and throughput as workload repetition grows.
func benchPlan(cfg benchConfig) (PlanResultV2, error) {
	net, err := bnbnet.New("bnb", cfg.m)
	if err != nil {
		return PlanResultV2{}, err
	}
	pr, ok := bnbnet.AsPlanRouter(net)
	if !ok {
		return PlanResultV2{}, fmt.Errorf("bnb offers no PlanRouter surface")
	}
	n := net.Inputs()
	rng := rand.New(rand.NewSource(cfg.seed))
	perms := make([]bnbnet.Perm, cfg.routeSamples)
	for i := range perms {
		perms[i] = bnbnet.RandomPerm(n, rng)
	}
	// Compile cost: one live arbiter pass plus switch recording per perm.
	if _, err := pr.Compile(perms[0]); err != nil { // warm-up
		return PlanResultV2{}, err
	}
	compile := make([]int64, len(perms))
	for i, p := range perms {
		start := time.Now()
		if _, err := pr.Compile(p); err != nil {
			return PlanResultV2{}, fmt.Errorf("compile: %w", err)
		}
		compile[i] = time.Since(start).Nanoseconds()
	}
	compileNs := medianNs(compile)

	// Replay: pure wire-following over one compiled plan.
	pl, err := pr.Compile(perms[0])
	if err != nil {
		return PlanResultV2{}, err
	}
	src := make([]bnbnet.Word, n)
	for i, d := range perms[0] {
		src[i] = bnbnet.Word{Addr: d, Data: uint64(i)}
	}
	dst := make([]bnbnet.Word, n)
	if err := pr.Replay(pl, dst, src); err != nil { // warm-up
		return PlanResultV2{}, err
	}
	replay := make([]int64, cfg.routeSamples)
	for i := range replay {
		start := time.Now()
		if err := pr.Replay(pl, dst, src); err != nil {
			return PlanResultV2{}, fmt.Errorf("replay: %w", err)
		}
		replay[i] = time.Since(start).Nanoseconds()
	}
	replayNs := medianNs(replay)
	res := PlanResultV2{
		CompileNsPerOp:    compileNs,
		ReplayNsPerOp:     replayNs,
		ReplayAllocsPerOp: allocsPerOp(64, func() { pr.Replay(pl, dst, src) }), //nolint:errcheck // measured above
	}

	// Break-even against the live pooled path: after this many repeats of
	// one permutation, compiling first is the cheaper strategy.
	if br, ok := bnbnet.AsBulkRouter(net); ok {
		live := make([]int64, cfg.routeSamples)
		for i := range live {
			start := time.Now()
			if err := br.RouteInto(dst, src); err != nil {
				return PlanResultV2{}, fmt.Errorf("live: %w", err)
			}
			live[i] = time.Since(start).Nanoseconds()
		}
		liveNs := medianNs(live)
		if liveNs > replayNs {
			res.BreakEvenRoutes = compileNs / (liveNs - replayNs)
		}
	}

	// Cache sweep: the cached engine on workloads of rising repetition.
	for _, repeat := range []float64{0.50, 0.95, 1.00} {
		hp, err := benchPlanCache(cfg, repeat)
		if err != nil {
			return PlanResultV2{}, err
		}
		res.HitSweep = append(res.HitSweep, hp)
	}
	return res, nil
}

// benchPlanCache drives a plan-cached engine with a workload in which
// `repeat` of the requests reuse one of 8 hot permutations and the rest are
// fresh, then reads the hit ratio off the cache counters.
func benchPlanCache(cfg benchConfig, repeat float64) (HitPoint, error) {
	net, err := bnbnet.New("bnb", cfg.m)
	if err != nil {
		return HitPoint{}, err
	}
	workers := cfg.workers[len(cfg.workers)-1]
	eng, err := bnbnet.NewEngine(net, bnbnet.WithWorkers(workers), bnbnet.WithPlanCache(256))
	if err != nil {
		return HitPoint{}, err
	}
	n := net.Inputs()
	rng := rand.New(rand.NewSource(cfg.seed))
	hot := make([]bnbnet.Perm, 8)
	for i := range hot {
		hot[i] = bnbnet.RandomPerm(n, rng)
	}
	elapsed, err := driveBatches(func(ps []bnbnet.Perm) ([][]bnbnet.Word, []error) {
		for i := range ps {
			if rng.Float64() < repeat {
				ps[i] = hot[rng.Intn(len(hot))]
			}
		}
		return eng.RoutePermBatch(ps)
	}, n, cfg.engineRequests, cfg.seed+1)
	stats := eng.Stats().PlanCaches[0]
	cerr := eng.Close()
	if err != nil {
		return HitPoint{}, err
	}
	if cerr != nil {
		return HitPoint{}, cerr
	}
	return HitPoint{
		RepeatRatio:  repeat,
		HitRatio:     stats.HitRatio(),
		RoutesPerSec: float64(cfg.engineRequests) / elapsed.Seconds(),
	}, nil
}

// workload pre-generates the sample permutations as word batches so
// generation cost stays out of the timed region.
func workload(n, samples int, seed int64) [][]bnbnet.Word {
	rng := rand.New(rand.NewSource(seed))
	batches := make([][]bnbnet.Word, samples)
	for i := range batches {
		p := bnbnet.RandomPerm(n, rng)
		words := make([]bnbnet.Word, n)
		for j, d := range p {
			words[j] = bnbnet.Word{Addr: d, Data: uint64(j)}
		}
		batches[i] = words
	}
	return batches
}

// summarize turns raw per-op nanosecond samples into the latency triple.
func summarize(samples []int64) (mean float64, p50, p99 int64) {
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, s := range sorted {
		sum += s
	}
	mean = float64(sum) / float64(len(sorted))
	pick := func(q float64) int64 {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	return mean, pick(0.50), pick(0.99)
}

// medianNs is the middle sample. The decompose figure and the plan
// section's compile, replay and live figures are medians, because the
// validator gates them (decompose against the route's p50, replay against
// compile) and a mean lets one host stall fail a whole regeneration.
func medianNs(samples []int64) float64 {
	_, p50, _ := summarize(samples)
	return float64(p50)
}

// allocsPerOp measures the steady-state heap allocations of fn, the
// ReadMemStats-delta analogue of testing.AllocsPerRun.
func allocsPerOp(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm pools and lazy initialization outside the measured window
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

func benchNetwork(family string, cfg benchConfig) (NetworkResult, error) {
	net, err := bnbnet.New(family, cfg.m)
	if err != nil {
		return NetworkResult{}, err
	}
	n := net.Inputs()
	batches := workload(n, cfg.routeSamples, cfg.seed)
	// Warm-up: scratch pools, allocator, branch predictors.
	for i := 0; i < len(batches) && i < 16; i++ {
		if _, err := net.Route(batches[i]); err != nil {
			return NetworkResult{}, fmt.Errorf("%s warm-up: %w", family, err)
		}
	}
	samples := make([]int64, len(batches))
	for i, words := range batches {
		start := time.Now()
		if _, err := net.Route(words); err != nil {
			return NetworkResult{}, fmt.Errorf("%s: %w", family, err)
		}
		samples[i] = time.Since(start).Nanoseconds()
	}
	mean, p50, p99 := summarize(samples)
	res := NetworkResult{
		Family:       family,
		Samples:      len(samples),
		NsPerOp:      mean,
		RoutesPerSec: 1e9 / mean,
		P50Ns:        p50,
		P99Ns:        p99,
	}
	res.AllocsPerOp = allocsPerOp(64, func() { net.Route(batches[0]) }) //nolint:errcheck // measured above

	if br, ok := bnbnet.AsBulkRouter(net); ok {
		dst := make([]bnbnet.Word, n)
		pooled := make([]int64, len(batches))
		for i, words := range batches {
			start := time.Now()
			if err := br.RouteInto(dst, words); err != nil {
				return NetworkResult{}, fmt.Errorf("%s pooled: %w", family, err)
			}
			pooled[i] = time.Since(start).Nanoseconds()
		}
		pmean, _, _ := summarize(pooled)
		res.PooledNsPerOp = pmean
	}
	return res, nil
}

func benchEngine(workers int, cfg benchConfig) (EngineResult, error) {
	net, err := bnbnet.New("bnb", cfg.m)
	if err != nil {
		return EngineResult{}, err
	}
	sink := bnbnet.NewMetrics()
	eng, err := bnbnet.NewEngine(net, bnbnet.WithWorkers(workers), bnbnet.WithMetrics(sink))
	if err != nil {
		return EngineResult{}, err
	}
	elapsed, err := driveBatches(eng.RoutePermBatch, net.Inputs(), cfg.engineRequests, cfg.seed)
	cerr := eng.Close()
	if err != nil {
		return EngineResult{}, err
	}
	if cerr != nil {
		return EngineResult{}, cerr
	}
	s := sink.Snapshot()
	return EngineResult{
		Workers:      workers,
		Requests:     cfg.engineRequests,
		RoutesPerSec: float64(cfg.engineRequests) / elapsed.Seconds(),
		P50Ns:        s.P50.Nanoseconds(),
		P99Ns:        s.P99.Nanoseconds(),

		BatchDequeues: s.BatchDequeues,
		WorkerParks:   s.WorkerParks,
	}, nil
}

func benchPlanes(cfg benchConfig) (PlaneResult, error) {
	const planes = 2
	workers := cfg.workers[len(cfg.workers)-1]
	sink := bnbnet.NewMetrics()
	sup, err := bnbnet.NewSupervised("bnb", cfg.m,
		bnbnet.WithPlanes(planes), bnbnet.WithWorkers(workers), bnbnet.WithMetrics(sink))
	if err != nil {
		return PlaneResult{}, err
	}
	n := 1 << uint(cfg.m)
	elapsed, err := driveBatches(sup.RoutePermBatch, n, cfg.engineRequests, cfg.seed)
	failovers := sup.Failovers()
	cerr := sup.Close()
	if err != nil {
		return PlaneResult{}, err
	}
	if cerr != nil {
		return PlaneResult{}, cerr
	}
	s := sink.Snapshot()
	return PlaneResult{
		Planes:       planes,
		Workers:      workers,
		Requests:     cfg.engineRequests,
		RoutesPerSec: float64(cfg.engineRequests) / elapsed.Seconds(),
		P50Ns:        s.P50.Nanoseconds(),
		P99Ns:        s.P99.Nanoseconds(),
		Failovers:    failovers,
	}, nil
}

// driveBatches pushes `requests` random permutations through the serving
// front in fixed-size batches and returns the wall-clock time.
func driveBatches(route func([]bnbnet.Perm) ([][]bnbnet.Word, []error), n, requests int, seed int64) (time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	const batch = 128
	start := time.Now()
	for done := 0; done < requests; done += batch {
		size := batch
		if requests-done < size {
			size = requests - done
		}
		ps := make([]bnbnet.Perm, size)
		for i := range ps {
			ps[i] = bnbnet.RandomPerm(n, rng)
		}
		_, errs := route(ps)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}
