// Command bnbbench records the repository's performance trajectory: it
// measures route latency (mean, P50, P99, allocations) for the configured
// network families, sweeps the serving engine across worker counts, and runs
// the supervised two-plane stack, writing one machine-readable
// BENCH_<m>.json per order. Committed alongside the code, successive files
// document how the implementation's throughput evolves; CI regenerates and
// validates them on every push.
//
//	bnbbench -quick -m 5                 # one fast order, BENCH_5.json
//	bnbbench -m 3,5,7 -out bench/        # the full trajectory set
//	bnbbench -validate BENCH_5.json      # strict schema + sanity check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	bnbnet "repro"
)

func main() {
	var (
		ms       = flag.String("m", "3,5,7", "comma-separated network orders (N = 2^m)")
		nets     = flag.String("nets", "bnb,batcher,benes", "comma-separated families to profile: "+strings.Join(bnbnet.Families(), ", "))
		workers  = flag.String("workers", "1,2,4", "comma-separated worker counts for the engine sweep")
		quick    = flag.Bool("quick", false, "reduced sample counts for CI smoke runs")
		out      = flag.String("out", ".", "directory the BENCH_<m>.json files are written to")
		validate = flag.String("validate", "", "validate an existing report file and exit")
		minScale = flag.Float64("minscale", 0, "with -validate: require max-worker throughput >= minscale x 1-worker (multi-core runners only)")
	)
	flag.Parse()
	if err := run(*ms, *nets, *workers, *quick, *out, *validate, *minScale); err != nil {
		fmt.Fprintln(os.Stderr, "bnbbench:", err)
		os.Exit(1)
	}
}

func run(ms, nets, workers string, quick bool, out, validate string, minScale float64) error {
	if validate != "" {
		f, err := os.Open(validate)
		if err != nil {
			return err
		}
		defer f.Close()
		rep, err := Validate(f)
		if err != nil {
			return fmt.Errorf("%s: %w", validate, err)
		}
		if minScale > 0 {
			if err := checkScaling(rep, minScale); err != nil {
				return fmt.Errorf("%s: %w", validate, err)
			}
		}
		fmt.Printf("%s: valid bnbbench/v9 report (m=%d, %d families, %d engine points, %d plan sweep points, %d cluster points, reconfig blackout %dns, host reference %.1f/%.1fus)\n",
			validate, rep.M, len(rep.Networks), len(rep.Engine), len(rep.Plan.HitSweep), len(rep.Cluster.Sweep), rep.Reconfig.SwapBlackoutNs,
			rep.HostRef.Before, rep.HostRef.After)
		return nil
	}
	if minScale > 0 {
		return fmt.Errorf("-minscale applies only with -validate")
	}
	orders, err := parseInts(ms)
	if err != nil {
		return fmt.Errorf("-m: %w", err)
	}
	wl, err := parseInts(workers)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	families := strings.Split(nets, ",")
	for i := range families {
		families[i] = strings.TrimSpace(families[i])
	}
	for _, m := range orders {
		cfg := defaultConfig(m, families, wl, quick)
		rep, err := runBench(cfg)
		if err != nil {
			return fmt.Errorf("m=%d: %w", m, err)
		}
		if err := checkReport(rep); err != nil {
			return fmt.Errorf("m=%d: self-check: %w", m, err)
		}
		path := filepath.Join(out, fmt.Sprintf("BENCH_%d.json", m))
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		best := rep.Engine[0]
		for _, er := range rep.Engine {
			if er.RoutesPerSec > best.RoutesPerSec {
				best = er
			}
		}
		fmt.Printf("%s: %d families, engine peak %.0f routes/sec at %d workers\n",
			path, len(rep.Networks), best.RoutesPerSec, best.Workers)
	}
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
