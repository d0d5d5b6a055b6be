package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig keeps in-process runs fast: one small order, minimal samples.
func tinyConfig() benchConfig {
	cfg := defaultConfig(3, []string{"bnb", "batcher", "benes"}, []int{1, 2}, true)
	cfg.routeSamples = 40
	cfg.engineRequests = 100
	return cfg
}

func TestRunBenchProducesValidReport(t *testing.T) {
	rep, err := runBench(tinyConfig())
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	if err := checkReport(rep); err != nil {
		t.Fatalf("checkReport: %v", err)
	}
	if len(rep.Networks) != 3 {
		t.Fatalf("got %d network results, want 3", len(rep.Networks))
	}
	if len(rep.Engine) != 2 {
		t.Fatalf("got %d engine points, want 2", len(rep.Engine))
	}
	if len(rep.Planes) != 1 || rep.Planes[0].Planes != 2 {
		t.Fatalf("plane sweep %+v, want one 2-plane point", rep.Planes)
	}
	// bnb offers the pooled BulkRouter path; batcher does not.
	for _, nr := range rep.Networks {
		switch nr.Family {
		case "bnb":
			if nr.PooledNsPerOp <= 0 {
				t.Errorf("bnb: pooled_ns_per_op = %v, want > 0", nr.PooledNsPerOp)
			}
		case "batcher":
			if nr.PooledNsPerOp != 0 {
				t.Errorf("batcher: pooled_ns_per_op = %v, want 0", nr.PooledNsPerOp)
			}
		}
	}
	// The v2 plan section: replay is the whole point — it must undercut the
	// compile pass and allocate nothing, and repetition must become hits.
	if rep.Plan.ReplayNsPerOp >= rep.Plan.CompileNsPerOp {
		t.Errorf("plan replay %v ns/op not below compile %v", rep.Plan.ReplayNsPerOp, rep.Plan.CompileNsPerOp)
	}
	if rep.Plan.ReplayAllocsPerOp != 0 {
		t.Errorf("plan replay allocates %v per op, want 0", rep.Plan.ReplayAllocsPerOp)
	}
	if len(rep.Plan.HitSweep) != 3 {
		t.Fatalf("got %d hit sweep points, want 3", len(rep.Plan.HitSweep))
	}
	full := rep.Plan.HitSweep[2]
	if full.RepeatRatio != 1.0 || full.HitRatio < 0.9 {
		t.Errorf("fully repeated workload hit ratio = %v, want >= 0.9", full.HitRatio)
	}
	// The v3 reconfig section: the rollout must pre-warm the working set
	// into the fresh caches, so the first post-rollout requests mostly hit.
	rc := rep.Reconfig
	if rc.Planes != 2 || rc.RolloutNs <= 0 || rc.DrainNs <= 0 {
		t.Errorf("reconfig profile incomplete: %+v", rc)
	}
	if rc.SwapBlackoutNs < 0 || rc.SwapBlackoutNs > rc.RolloutNs {
		t.Errorf("swap blackout %dns outside [0, rollout %dns]", rc.SwapBlackoutNs, rc.RolloutNs)
	}
	if rc.PlanWarms < 8 {
		t.Errorf("plan warms = %d, want >= 8 (8 hot plans carried onto at least one plane)", rc.PlanWarms)
	}
	// Each of the two planes donates the half of the working set the rotor
	// parked on it, so a hot plan can cost at most one post-rollout miss
	// before its compile refills the cache: 56/64 = 0.875 is the floor.
	if rc.WarmHitRatio < 0.8 {
		t.Errorf("warm hit ratio = %v, want >= 0.8 (working set pre-warmed before admission)", rc.WarmHitRatio)
	}
	// The v6 cluster section: quick mode sweeps 2 and 4 shards, the port
	// count scales with the fleet, and decomposing an aggregate permutation
	// (pure matching bookkeeping) undercuts routing it through the shards.
	cl := rep.Cluster
	if cl.ShardOrder != 3 || len(cl.Sweep) != 2 {
		t.Fatalf("cluster sweep %+v, want 2 points at shard order 3", cl)
	}
	for _, cp := range cl.Sweep {
		if cp.Inputs != cp.Shards<<3 {
			t.Errorf("cluster %d shards: %d inputs, want %d", cp.Shards, cp.Inputs, cp.Shards<<3)
		}
		if cp.DecomposeNsPerOp >= float64(cp.P50Ns) {
			t.Errorf("cluster %d shards: decompose median %v ns not below end-to-end p50 %d",
				cp.Shards, cp.DecomposeNsPerOp, cp.P50Ns)
		}
	}
}

func TestValidateRoundTrip(t *testing.T) {
	rep, err := runBench(tinyConfig())
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Validate(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got.M != rep.M || got.N != rep.N || len(got.Networks) != len(rep.Networks) {
		t.Fatalf("round trip mutated report: %+v vs %+v", got, rep)
	}
}

func TestValidateRejections(t *testing.T) {
	rep, err := runBench(tinyConfig())
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	marshal := func(r Report) []byte {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return buf
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unknown field", []byte(`{"schema":"bnbbench/v9","bogus":1}`), "decode"},
		{"wrong schema", marshal(func() Report { r := rep; r.Schema = "bnbbench/v2"; return r }()), "schema"},
		{"n mismatch", marshal(func() Report { r := rep; r.N = 7; return r }()), "2^m"},
		{"missing family", marshal(func() Report {
			r := rep
			r.Networks = r.Networks[:1] // bnb only
			return r
		}()), "required family"},
		{"inverted percentiles", marshal(func() Report {
			r := rep
			nets := append([]NetworkResult(nil), r.Networks...)
			nets[0].P99Ns = nets[0].P50Ns - 1
			r.Networks = nets
			return r
		}()), "out of order"},
		{"empty stamp", marshal(func() Report { r := rep; r.Go = ""; return r }()), "machine stamp"},
		{"missing host reference", marshal(func() Report { r := rep; r.HostRef.After = 0; return r }()), "host reference"},
		{"replay above compile", marshal(func() Report {
			r := rep
			r.Plan.ReplayNsPerOp = r.Plan.CompileNsPerOp + 1
			return r
		}()), "arbiter"},
		{"hit ratio out of range", marshal(func() Report {
			r := rep
			sweep := append([]HitPoint(nil), r.Plan.HitSweep...)
			sweep[0].HitRatio = 1.5
			r.Plan.HitSweep = sweep
			return r
		}()), "out of [0,1]"},
		{"blackout above rollout", marshal(func() Report {
			r := rep
			r.Reconfig.SwapBlackoutNs = r.Reconfig.RolloutNs + 1
			return r
		}()), "swap blackout"},
		{"negative blackout", marshal(func() Report {
			r := rep
			r.Reconfig.SwapBlackoutNs = -1
			return r
		}()), "swap blackout"},
		{"completions inside a whole-rollout blackout", marshal(func() Report {
			r := rep
			r.Reconfig.SwapBlackoutNs = r.Reconfig.RolloutNs
			r.Reconfig.CompletionsInside = 1
			return r
		}()), "completions inside"},
		{"no completions inside a shorter blackout", marshal(func() Report {
			r := rep
			r.Reconfig.SwapBlackoutNs = r.Reconfig.RolloutNs - 1
			r.Reconfig.CompletionsInside = 0
			return r
		}()), "completions inside"},
		{"resolved flag contradicts the gaps", marshal(func() Report {
			r := rep
			r.Reconfig.OutsideGapNs = r.Reconfig.RolloutNs + 1
			r.Reconfig.BlackoutResolved = true
			return r
		}()), "blackout_resolved"},
		{"unresolved flag contradicts the gaps", marshal(func() Report {
			r := rep
			r.Reconfig.OutsideGapNs = r.Reconfig.RolloutNs - 1
			r.Reconfig.BlackoutResolved = false
			return r
		}()), "blackout_resolved"},
		{"no plan warms", marshal(func() Report {
			r := rep
			r.Reconfig.PlanWarms = 0
			return r
		}()), "plan warms"},
		{"hedging inflates the tail", marshal(func() Report {
			r := rep
			r.Tail.HedgedP99Ns = r.Tail.UnhedgedP99Ns + 1
			return r
		}()), "cut the slow-plane tail"},
		{"more wins than hedges", marshal(func() Report {
			r := rep
			r.Tail.Hedges = 1
			r.Tail.HedgeWins = 2
			return r
		}()), "hedge wins"},
		{"dequeue accounting broken", marshal(func() Report {
			r := rep
			eng := append([]EngineResult(nil), r.Engine...)
			eng[0].BatchDequeues++
			r.Engine = eng
			return r
		}()), "dequeues"},
		{"inverted QoS order", marshal(func() Report {
			r := rep
			classes := append([]ClassPoint(nil), r.Tail.Classes...)
			classes[0].ShedRate = 0.0
			classes[2].ShedRate = 0.5
			r.Tail.Classes = classes
			return r
		}()), "QoS order"},
		{"cluster sweep too short", marshal(func() Report {
			r := rep
			r.Cluster.Sweep = r.Cluster.Sweep[:1]
			return r
		}()), "sweep points"},
		{"cluster inputs off", marshal(func() Report {
			r := rep
			sweep := append([]ClusterPoint(nil), r.Cluster.Sweep...)
			sweep[0].Inputs++
			r.Cluster.Sweep = sweep
			return r
		}()), "aggregate ports"},
		{"decompose above end-to-end", marshal(func() Report {
			r := rep
			sweep := append([]ClusterPoint(nil), r.Cluster.Sweep...)
			sweep[0].DecomposeNsPerOp = float64(sweep[0].P50Ns + 1)
			r.Cluster.Sweep = sweep
			return r
		}()), "decompose"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate(bytes.NewReader(tc.payload))
			if err == nil {
				t.Fatal("Validate accepted a bad report")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecomposeStallPassesValidation pins that one host stall among the
// decompose samples cannot fail a regeneration: with one of 64 samples
// stalled 100x, their mean lies above the route's p50, but the recorded
// median stays below it and the report validates.
func TestDecomposeStallPassesValidation(t *testing.T) {
	rep, err := runBench(tinyConfig())
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	sweep := append([]ClusterPoint(nil), rep.Cluster.Sweep...)
	base := sweep[0].P50Ns * 6 / 10
	comp := make([]int64, 64)
	for i := range comp {
		comp[i] = base
	}
	comp[17] = 100 * base
	if mean, _, _ := summarize(comp); mean <= float64(sweep[0].P50Ns) {
		t.Fatalf("stalled mean %v ns not above the route p50 %d ns; the stall tests nothing", mean, sweep[0].P50Ns)
	}
	sweep[0].DecomposeNsPerOp = medianNs(comp)
	rep.Cluster.Sweep = sweep
	if err := checkReport(rep); err != nil {
		t.Fatalf("one stalled decompose sample failed validation: %v", err)
	}
}

// TestPlanStallPassesValidation pins the same for the plan section. A quick
// run takes 300 replay samples; one stalled 1000x (a 1.2 ms host stall is
// several thousand replays at m=3) lifts their mean above the compile
// figure, but the recorded median stays below it and the report validates,
// while a replay median at the compile median is still rejected.
func TestPlanStallPassesValidation(t *testing.T) {
	rep, err := runBench(tinyConfig())
	if err != nil {
		t.Fatalf("runBench: %v", err)
	}
	compile := int64(rep.Plan.CompileNsPerOp)
	base := compile * 6 / 10
	replay := make([]int64, 300)
	for i := range replay {
		replay[i] = base
	}
	replay[17] = 1000 * base
	if mean, _, _ := summarize(replay); mean <= float64(compile) {
		t.Fatalf("stalled mean %v ns not above the compile median %d ns; the stall tests nothing", mean, compile)
	}
	rep.Plan.ReplayNsPerOp = medianNs(replay)
	if err := checkReport(rep); err != nil {
		t.Fatalf("one stalled replay sample failed validation: %v", err)
	}
	for i := range replay {
		replay[i] = compile
	}
	rep.Plan.ReplayNsPerOp = medianNs(replay)
	if err := checkReport(rep); err == nil || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("replay median at the compile median: err = %v, want a replay rejection", err)
	}
}

func TestCLIRunEmitsAndValidatesFile(t *testing.T) {
	dir := t.TempDir()
	if err := run("3", "bnb,batcher,benes", "1", true, dir, "", 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	path := filepath.Join(dir, "BENCH_3.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("expected %s: %v", path, err)
	}
	defer f.Close()
	rep, err := Validate(f)
	if err != nil {
		t.Fatalf("emitted file fails validation: %v", err)
	}
	if rep.M != 3 || !rep.Quick {
		t.Fatalf("got m=%d quick=%v, want m=3 quick=true", rep.M, rep.Quick)
	}
	// The -validate mode must accept its own output.
	if err := run("", "", "", false, "", path, 0); err != nil {
		t.Fatalf("run -validate: %v", err)
	}
}

func TestCheckScaling(t *testing.T) {
	mk := func(w int, rps float64, p50, p99 int64) EngineResult {
		return EngineResult{Workers: w, Requests: 100, RoutesPerSec: rps, P50Ns: p50, P99Ns: p99}
	}
	good := Report{Engine: []EngineResult{mk(1, 1000, 100, 200), mk(4, 2000, 120, 300)}}
	if err := checkScaling(good, 1.5); err != nil {
		t.Fatalf("scaling report rejected: %v", err)
	}
	flat := Report{Engine: []EngineResult{mk(1, 1000, 100, 200), mk(4, 1200, 120, 300)}}
	if err := checkScaling(flat, 1.5); err == nil {
		t.Fatal("flat sweep accepted at minscale 1.5")
	}
	tailed := Report{Engine: []EngineResult{mk(1, 1000, 100, 200), mk(4, 2000, 100, 500)}}
	if err := checkScaling(tailed, 1.5); err == nil {
		t.Fatal("p99 above 4x p50 accepted")
	}
	single := Report{Engine: []EngineResult{mk(1, 1000, 100, 200)}}
	if err := checkScaling(single, 1.5); err == nil {
		t.Fatal("single-point sweep accepted — nothing to compare")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts(" 3, 5 ,7")
	if err != nil || len(got) != 3 || got[0] != 3 || got[2] != 7 {
		t.Fatalf("parseInts: got %v, %v", got, err)
	}
	for _, bad := range []string{"", "3,x", "0", "-1,3"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}
