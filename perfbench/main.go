// Command perfbench is the repository's end-to-end benchmark. It runs one
// of four closed-loop workloads against the public API or the real
// bnbserve binary, checks every routed word, and prints the end-to-end
// metrics, or with -trace 1 the per-layer ledger. See README.md.
//
//	perfbench -workload fresh-m7 -seed 1 -seconds 10 -trace 0 -bnbserve path/to/bnbserve
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

type config struct {
	seed     int64
	seconds  int
	bnbserve string // built cmd/bnbserve binary, for serve-tcp
	outDir   string // where the traced run writes its spans
}

type workload struct {
	run    func(cfg config) (*result, error)
	traced func(cfg config) (*result, error)
}

var workloads = map[string]workload{
	"fresh-m7": {
		run:    func(cfg config) (*result, error) { return runInproc("fresh-m7", freshSpec, cfg) },
		traced: func(cfg config) (*result, error) { return tracedSupervised("fresh-m7", freshSpec, cfg) },
	},
	"hot-m7": {
		run:    func(cfg config) (*result, error) { return runInproc("hot-m7", hotSpec, cfg) },
		traced: func(cfg config) (*result, error) { return tracedSupervised("hot-m7", hotSpec, cfg) },
	},
	"cluster-m5x4": {
		run:    func(cfg config) (*result, error) { return runInproc("cluster-m5x4", clusterSpec, cfg) },
		traced: tracedCluster,
	},
	"serve-tcp": {run: runServe, traced: tracedServe},
}

func main() {
	var cfg config
	name := flag.String("workload", "", "fresh-m7, hot-m7, cluster-m5x4 or serve-tcp")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase, in one-second windows")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced per-layer run")
	flag.StringVar(&cfg.bnbserve, "bnbserve", "", "path of a built cmd/bnbserve binary (serve-tcp)")
	flag.StringVar(&cfg.outDir, "out", ".", "directory the traced run writes its span file to")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || cfg.seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload fresh-m7|hot-m7|cluster-m5x4|serve-tcp, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d cpus=%d gomaxprocs=%d host.ref_us=%.3f\n",
		*name, cfg.seed, cfg.seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), hostRef())
	run := w.run
	if *traced == 1 {
		run = w.traced
	}
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	// The reference loop again: a reader compares the two to see whether
	// the host's speed changed during the run.
	fmt.Printf("perfbench: host.ref_us at end=%.3f\n", hostRef())
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !r.correct() {
		os.Exit(1)
	}
}
