package bnbnet

// The root benchmark harness regenerates every quantitative artifact of the
// paper's evaluation as benchmarks, one per table/figure/claim (see
// DESIGN.md §4 and EXPERIMENTS.md):
//
//	BenchmarkTable1Hardware  — Table 1 rows (counted hardware as metrics)
//	BenchmarkTable2Delay     — Table 2 rows (measured critical paths)
//	BenchmarkHeadlineRatios  — the abstract's 1/3 and 2/3 ratios
//	BenchmarkRoute*          — routing throughput of all five networks
//	BenchmarkBenesSelfRoute  — intro claim C2 (self-routing success rate)
//	BenchmarkFabric*         — system-level throughput (figure-style series)
//	BenchmarkClusterRoute    — a 4-shard cluster route, two callers
//	BenchmarkFigures         — figure regeneration cost
//
// Absolute nanoseconds depend on the host; the reproduced artifacts are the
// reported custom metrics (switches, delay units, ratios, throughput).

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

var benchSizes = []int{4, 6, 8, 10}

func benchName(m int) string { return fmt.Sprintf("N=%d", 1<<uint(m)) }

// BenchmarkTable1Hardware regenerates Table 1: it constructs each network
// and reports its counted component totals as metrics.
func BenchmarkTable1Hardware(b *testing.B) {
	for _, m := range benchSizes {
		for _, build := range []struct {
			name string
			fn   func() (Network, error)
		}{
			{"Batcher", func() (Network, error) { return New("batcher", m, WithDataBits(8)) }},
			{"Koppelman", func() (Network, error) { return New("koppelman", m, WithDataBits(8)) }},
			{"BNB", func() (Network, error) { return NewBNB(m, 8) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", build.name, benchName(m)), func(b *testing.B) {
				var c Cost
				for i := 0; i < b.N; i++ {
					n, err := build.fn()
					if err != nil {
						b.Fatal(err)
					}
					c = n.Cost()
				}
				b.ReportMetric(float64(c.Switches), "switches")
				b.ReportMetric(float64(c.FunctionSlices), "fn-slices")
				b.ReportMetric(float64(c.AdderSlices), "adder-slices")
			})
		}
	}
}

// BenchmarkTable2Delay regenerates Table 2: measured critical paths in unit
// device delays.
func BenchmarkTable2Delay(b *testing.B) {
	for _, m := range benchSizes {
		for _, build := range []struct {
			name string
			fn   func() (Network, error)
		}{
			{"Batcher", func() (Network, error) { return New("batcher", m) }},
			{"Koppelman", func() (Network, error) { return New("koppelman", m) }},
			{"BNB", func() (Network, error) { return NewBNB(m, 0) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", build.name, benchName(m)), func(b *testing.B) {
				var d Delay
				for i := 0; i < b.N; i++ {
					n, err := build.fn()
					if err != nil {
						b.Fatal(err)
					}
					d = n.Delay()
				}
				b.ReportMetric(d.Units(1, 1), "delay-units")
			})
		}
	}
}

// BenchmarkHeadlineRatios regenerates claim C1: the BNB/Batcher hardware and
// delay ratios from the exact formulas.
func BenchmarkHeadlineRatios(b *testing.B) {
	for _, m := range []int{6, 10, 14, 18} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var hw, d float64
			var err error
			for i := 0; i < b.N; i++ {
				hw, d, err = HeadlineRatios(m, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(hw, "hw-ratio")
			b.ReportMetric(d, "delay-ratio")
		})
	}
}

func benchmarkRoute(b *testing.B, build func(m int) (Network, error)) {
	for _, m := range benchSizes {
		n, err := build(m)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		p := RandomPerm(n.Inputs(), rng)
		words := make([]Word, n.Inputs())
		for i, d := range p {
			words[i] = Word{Addr: d, Data: uint64(i)}
		}
		b.Run(benchName(m), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n.Inputs()))
			for i := 0; i < b.N; i++ {
				if _, err := n.Route(words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteBNB measures the simulated routing throughput of the BNB
// network (the paper's primary artifact).
func BenchmarkRouteBNB(b *testing.B) {
	benchmarkRoute(b, func(m int) (Network, error) { return NewBNB(m, 16) })
}

// BenchmarkRouteBNBPooled measures the pooled zero-allocation hot path:
// RouteInto on a warm scratch pool. After warm-up it reports 0 allocs/op at
// every size (the tentpole guarantee TestRouteAllocs pins at N=1024).
func BenchmarkRouteBNBPooled(b *testing.B) {
	for _, m := range benchSizes {
		n, err := NewBNB(m, 16)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		p := RandomPerm(n.Inputs(), rng)
		words := make([]Word, n.Inputs())
		for i, d := range p {
			words[i] = Word{Addr: d, Data: uint64(i)}
		}
		dst := make([]Word, n.Inputs())
		if err := n.RouteInto(dst, words); err != nil { // warm the pool
			b.Fatal(err)
		}
		b.Run(benchName(m), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n.Inputs()))
			for i := 0; i < b.N; i++ {
				if err := n.RouteInto(dst, words); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineThroughput measures served routing throughput through the
// bounded worker pool at varying worker counts (requests per second emerges
// from ns/op; each op is one complete request).
func BenchmarkEngineThroughput(b *testing.B) {
	const m = 8
	n, err := NewBNB(m, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := make([]Word, n.Inputs())
	for i, d := range RandomPerm(n.Inputs(), rng) {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := NewEngine(n, WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			b.ReportAllocs()
			b.SetBytes(int64(n.Inputs()))
			b.RunParallel(func(pb *testing.PB) {
				dst := make([]Word, n.Inputs())
				for pb.Next() {
					tk, err := e.Submit(dst, words)
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := tk.Wait(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkClusterRoute measures a 4-shard cluster of m=5 shards routing
// distinct permutations from two goroutines, so nearly every shard route
// compiles its local plan; one op is one cluster route, decomposition and
// both exchanges included.
func BenchmarkClusterRoute(b *testing.B) {
	const callers = 2
	c, err := NewCluster("bnb", 5, WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	n := c.Inputs()
	rng := rand.New(rand.NewSource(1))
	srcs := make([][]Word, 4096)
	for i := range srcs {
		srcs[i] = permWords(RandomPerm(n, rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]Word, n)
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				if err := c.RouteInto(dst, srcs[i%int64(len(srcs))]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRouteBatcher measures the Batcher baseline.
func BenchmarkRouteBatcher(b *testing.B) {
	benchmarkRoute(b, func(m int) (Network, error) { return New("batcher", m, WithDataBits(16)) })
}

// BenchmarkRouteKoppelman measures the Koppelman analogue.
func BenchmarkRouteKoppelman(b *testing.B) {
	benchmarkRoute(b, func(m int) (Network, error) { return New("koppelman", m, WithDataBits(16)) })
}

// BenchmarkRouteBenes measures the Beneš network including the per-call
// global looping set-up — the centralized overhead the introduction
// contrasts with self-routing.
func BenchmarkRouteBenes(b *testing.B) {
	benchmarkRoute(b, func(m int) (Network, error) { return New("benes", m) })
}

// BenchmarkRouteCrossbar measures the crossbar reference.
func BenchmarkRouteCrossbar(b *testing.B) {
	benchmarkRoute(b, func(m int) (Network, error) { return NewCrossbar(1 << uint(m)) })
}

// BenchmarkBenesSelfRoute regenerates claim C2: bit-controlled self-routing
// success rate on random permutations (reported as a metric).
func BenchmarkBenesSelfRoute(b *testing.B) {
	for _, m := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			var rate float64
			for i := 0; i < b.N; i++ {
				r, _, err := BenesSelfRouting(m, 100, rng)
				if err != nil {
					b.Fatal(err)
				}
				rate = r
			}
			b.ReportMetric(rate, "route-rate")
		})
	}
}

// BenchmarkFabricPermutation measures system-level throughput under
// conflict-free permutation traffic (sustains 1.0).
func BenchmarkFabricPermutation(b *testing.B) {
	benchmarkFabric(b, PermutationTraffic{Load: 1.0}, "permutation")
}

// BenchmarkFabricUniform measures system-level throughput under saturating
// uniform traffic (the HOL-limited series).
func BenchmarkFabricUniform(b *testing.B) {
	benchmarkFabric(b, UniformTraffic{Load: 1.0}, "uniform")
}

func benchmarkFabric(b *testing.B, traffic Traffic, name string) {
	n, err := NewBNB(5, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(name, func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var tp float64
		for i := 0; i < b.N; i++ {
			sw, err := NewFabric(n)
			if err != nil {
				b.Fatal(err)
			}
			stats, err := sw.Run(traffic, 200, rng)
			if err != nil {
				b.Fatal(err)
			}
			tp = stats.Throughput(n.Inputs())
		}
		b.ReportMetric(tp, "throughput")
	})
}

// BenchmarkFigures regenerates the structural figures.
func BenchmarkFigures(b *testing.B) {
	b.Run("Fig1-GBN", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FigGBN(3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fig3-BNBProfile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FigBNBProfile(3, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fig4-Splitter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FigSplitter(3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fig5-FunctionNode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = FigFunctionNode()
		}
	})
}

// BenchmarkRouteWaksman measures the minimum-switch rearrangeable baseline
// (looping set-up per call).
func BenchmarkRouteWaksman(b *testing.B) {
	benchmarkRoute(b, func(m int) (Network, error) { return New("waksman", m) })
}

// BenchmarkOmegaBlocking regenerates extension X4: the omega network's
// sampled pass rate (reported as a metric).
func BenchmarkOmegaBlocking(b *testing.B) {
	for _, m := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			var rate float64
			for i := 0; i < b.N; i++ {
				r, err := OmegaStudy(m, 200, rng)
				if err != nil {
					b.Fatal(err)
				}
				rate = r.SampledPassRate
			}
			b.ReportMetric(rate, "pass-rate")
		})
	}
}

// BenchmarkGateLevelBSN regenerates extension X3: gate counts and critical
// path of the compiled bit-sorter network.
func BenchmarkGateLevelBSN(b *testing.B) {
	for _, k := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var r GateReport
			for i := 0; i < b.N; i++ {
				var err error
				r, err = GateLevelBSN(k)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.LogicGates), "gates")
			b.ReportMetric(float64(r.CriticalPathGates), "gate-depth")
		})
	}
}

// BenchmarkFabricVOQ regenerates extension X4b: saturated uniform throughput
// under virtual output queues (contrast with BenchmarkFabricUniform's FIFO).
func BenchmarkFabricVOQ(b *testing.B) {
	n, err := NewBNB(5, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var tp float64
	for i := 0; i < b.N; i++ {
		sw, err := NewFabric(n, WithVOQ())
		if err != nil {
			b.Fatal(err)
		}
		stats, err := sw.Run(UniformTraffic{Load: 1.0}, 200, rng)
		if err != nil {
			b.Fatal(err)
		}
		tp = stats.Throughput(n.Inputs())
	}
	b.ReportMetric(tp, "throughput")
}

// BenchmarkLowerBound regenerates extension X1 (factors as metrics).
func BenchmarkLowerBound(b *testing.B) {
	for _, m := range []int{8, 12} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var rows []LowerBoundRow
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = LowerBoundComparison(m)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows[1:4] { // waksman, benes, bnb
				b.ReportMetric(r.Factor, r.Network+"-factor")
			}
		})
	}
}
