// Benchmarks: one per reproduction experiment E1–E12 (DESIGN.md §5). Each
// benchmark runs the experiment's measured core and reports the paper's
// complexity quantities (rounds, messages per node, peak message bits) as
// custom metrics, so `go test -bench=. -benchmem` regenerates the headline
// numbers of every table. Full tables: `go run ./cmd/experiments`.
package gossipq

import (
	"fmt"
	"runtime"
	"testing"

	"gossipq/internal/dist"
	"gossipq/internal/exact"
	"gossipq/internal/kdg"
	"gossipq/internal/lowerbound"
	"gossipq/internal/sampling"
	"gossipq/internal/sim"
	"gossipq/internal/sketch"
	"gossipq/internal/stats"
	"gossipq/internal/tokens"
	"gossipq/internal/tournament"
	"gossipq/internal/xrand"
)

func reportGossip(b *testing.B, m sim.Metrics, n int) {
	b.ReportMetric(float64(m.Rounds), "rounds")
	b.ReportMetric(float64(m.Messages)/float64(n), "msgs/node")
	b.ReportMetric(float64(m.MaxMessageBits), "maxMsgBits")
}

// BenchmarkE1ExactQuantile measures Theorem 1.1's O(log n) exact algorithm
// across population sizes.
func BenchmarkE1ExactQuantile(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		values := dist.Generate(dist.Sequential, n, uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+1)
				if _, err := exact.Quantile(e, values, 0.5, exact.Options{}); err != nil {
					b.Fatal(err)
				}
				m = e.Metrics()
			}
			reportGossip(b, m, n)
		})
	}
}

// BenchmarkE2ApproxQuantile measures Theorem 1.2's O(log log n + log 1/ε)
// algorithm across n (fixed ε) and across ε (fixed n).
func BenchmarkE2ApproxQuantile(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		values := dist.Generate(dist.Uniform, n, uint64(n))
		b.Run(fmt.Sprintf("n=%d/eps=0.05", n), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+1)
				tournament.ApproxQuantile(e, values, 0.3, 0.05, tournament.Options{})
				m = e.Metrics()
			}
			reportGossip(b, m, n)
		})
	}
	n := 1 << 16
	values := dist.Generate(dist.Uniform, n, 5)
	for _, eps := range []float64{1.0 / 8, 1.0 / 32, 1.0 / 64} {
		b.Run(fmt.Sprintf("n=%d/eps=%g", n, eps), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+1)
				tournament.ApproxQuantile(e, values, 0.3, eps, tournament.Options{})
				m = e.Metrics()
			}
			reportGossip(b, m, n)
		})
	}
}

// BenchmarkE3ExactVsKDG races the Theorem 1.1 algorithm against the KDG03
// randomized-selection baseline at the same population size.
func BenchmarkE3ExactVsKDG(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 15} {
		values := dist.Generate(dist.Sequential, n, uint64(n)*3)
		b.Run(fmt.Sprintf("new/n=%d", n), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+7)
				if _, err := exact.Quantile(e, values, 0.5, exact.Options{}); err != nil {
					b.Fatal(err)
				}
				m = e.Metrics()
			}
			reportGossip(b, m, n)
		})
		b.Run(fmt.Sprintf("kdg/n=%d", n), func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+7)
				if _, err := kdg.Quantile(e, values, 0.5, kdg.Options{}); err != nil {
					b.Fatal(err)
				}
				m = e.Metrics()
			}
			reportGossip(b, m, n)
		})
	}
}

// BenchmarkE4ApproxBaselines compares the tournament with the Appendix A
// sampling algorithms at a fixed design point.
func BenchmarkE4ApproxBaselines(b *testing.B) {
	const n = 1 << 13
	const eps = 0.1
	values := dist.Generate(dist.Uniform, n, 11)
	algos := []struct {
		name string
		run  func(e *sim.Engine)
	}{
		{"tournament", func(e *sim.Engine) {
			tournament.ApproxQuantile(e, values, 0.5, eps, tournament.Options{})
		}},
		{"direct", func(e *sim.Engine) { sampling.Direct(e, values, 0.5, eps) }},
		{"doubling", func(e *sim.Engine) { sampling.Doubling(e, values, 0.5, eps) }},
		{"compacted", func(e *sim.Engine) { sampling.Compacted(e, values, 0.5, eps) }},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+3)
				a.run(e)
				m = e.Metrics()
			}
			reportGossip(b, m, n)
		})
	}
}

// BenchmarkE5LowerBound measures the §4 information-spreading process that
// lower-bounds every gossip quantile algorithm.
func BenchmarkE5LowerBound(b *testing.B) {
	for _, c := range []struct {
		n   int
		eps float64
	}{{1 << 14, 0.05}, {1 << 17, 0.05}, {1 << 17, 0.002}} {
		b.Run(fmt.Sprintf("n=%d/eps=%g", c.n, c.eps), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				e := sim.New(c.n, uint64(i)+13)
				good := lowerbound.InitialGood(e, c.eps)
				rounds, _ = lowerbound.Spread(e, good, 0)
			}
			b.ReportMetric(float64(rounds), "spreadRounds")
		})
	}
}

// BenchmarkE6Robustness measures the robust variant across failure rates.
func BenchmarkE6Robustness(b *testing.B) {
	const n = 1 << 14
	values := dist.Generate(dist.Uniform, n, 17)
	for _, mu := range []float64{0, 0.3, 0.6} {
		b.Run(fmt.Sprintf("mu=%g", mu), func(b *testing.B) {
			var m sim.Metrics
			var covered int
			for i := 0; i < b.N; i++ {
				opts := []sim.Option{}
				if mu > 0 {
					opts = append(opts, sim.WithFailures(sim.UniformFailures(mu)))
				}
				e := sim.New(n, uint64(i)+19, opts...)
				res := tournament.RobustApproxQuantile(e, values, 0.5, 0.1,
					tournament.RobustOptions{Mu: mu})
				m = e.Metrics()
				covered = res.Covered()
			}
			reportGossip(b, m, n)
			b.ReportMetric(float64(covered)/float64(n), "coverage")
		})
	}
}

// BenchmarkE7OwnQuantile measures Corollary 1.5's every-node-its-own-rank
// computation.
func BenchmarkE7OwnQuantile(b *testing.B) {
	const n = 1 << 13
	values := dist.Generate(dist.Uniform, n, 23)
	for _, eps := range []float64{0.25, 0.125} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := OwnQuantiles(values, eps, Config{Seed: uint64(i) + 29})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Metrics.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkE8IterationBounds measures schedule computation (pure math; the
// interesting output is the iteration counts as metrics).
func BenchmarkE8IterationBounds(b *testing.B) {
	for _, eps := range []float64{0.125, 0.01, 0.001} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			var it2, it3 int
			for i := 0; i < b.N; i++ {
				it2 = tournament.NewPlan2(0, eps).Iterations() // worst-case phi
				it3 = tournament.NewPlan3(eps, 1<<20).Iterations()
			}
			b.ReportMetric(float64(it2), "iters2T")
			b.ReportMetric(float64(it3), "iters3T")
		})
	}
}

// BenchmarkE9Concentration runs an instrumented tournament and reports the
// worst relative deviation of |H_i|/n from the analytic recursion.
func BenchmarkE9Concentration(b *testing.B) {
	const n = 1 << 14
	const phi, eps = 0.25, 0.05
	values := dist.Generate(dist.Uniform, n, 31)
	o := stats.NewOracle(values)
	plan := tournament.NewPlan2(phi, eps)
	b.Run("phase1", func(b *testing.B) {
		var worst float64
		for i := 0; i < b.N; i++ {
			worst = 0
			e := sim.New(n, uint64(i)+37)
			tournament.ApproxQuantile(e, values, phi, eps, tournament.Options{
				OnIteration: func(phase, iter int, vals []int64) {
					if phase != 1 || iter == plan.Iterations()-1 {
						return
					}
					h := 0
					for _, x := range vals {
						if o.QuantileOf(x) > phi+eps {
							h++
						}
					}
					frac := float64(h) / float64(n)
					want := plan.H[iter+1]
					if dev := abs(frac-want) / want; dev > worst {
						worst = dev
					}
				},
			})
		}
		b.ReportMetric(worst, "maxRelDev")
	})
}

// BenchmarkE10Tokens measures the Algorithm 3 Step 7 token protocol.
func BenchmarkE10Tokens(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 16} {
		valued := make([]bool, n)
		values := make([]int64, n)
		const seeds = 64
		for i := 0; i < seeds; i++ {
			valued[i] = true
			values[i] = int64(i + 1)
		}
		copies := tokens.ChooseCopies(seeds, n/2, n-n/8)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var m sim.Metrics
			var load int
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+41)
				res, err := tokens.Distribute(e, valued, values, copies, 0)
				if err != nil {
					b.Fatal(err)
				}
				m = e.Metrics()
				load = res.MaxLoad
			}
			reportGossip(b, m, n)
			b.ReportMetric(float64(load), "maxLoad")
		})
	}
}

// BenchmarkE11Sketch measures compactor merge throughput and the realized
// rank error against the Corollary A.4 bound.
func BenchmarkE11Sketch(b *testing.B) {
	const nPrime, k = 1024, 32
	b.Run(fmt.Sprintf("nprime=%d/k=%d", nPrime, k), func(b *testing.B) {
		rng := xrand.New(43)
		var worst float64
		for i := 0; i < b.N; i++ {
			exactVals := make([]int64, nPrime)
			bufs := make([]*sketch.Buffer, nPrime)
			for j := range bufs {
				x := rng.Int64() % 1000000
				exactVals[j] = x
				bufs[j] = sketch.NewSeeded(k, x)
			}
			for len(bufs) > 1 {
				next := bufs[:0]
				for j := 0; j+1 < len(bufs); j += 2 {
					bufs[j].Merge(bufs[j+1])
					next = append(next, bufs[j])
				}
				bufs = next
			}
			o := stats.NewOracle(exactVals)
			worst = 0
			for _, z := range exactVals {
				if e := abs(float64(bufs[0].WeightedRank(z) - int64(o.Rank(z)))); e > worst {
					worst = e
				}
			}
		}
		b.ReportMetric(worst, "maxRankErr")
		b.ReportMetric(sketch.ErrorBound(nPrime, k), "corA4Bound")
	})
}

// BenchmarkE12MessageSize records the peak message size of each algorithm.
func BenchmarkE12MessageSize(b *testing.B) {
	const n = 1 << 12
	values := dist.Generate(dist.Sequential, n, 47)
	algos := []struct {
		name string
		run  func(e *sim.Engine)
	}{
		{"tournament", func(e *sim.Engine) {
			tournament.ApproxQuantile(e, values, 0.3, 0.05, tournament.Options{})
		}},
		{"exact", func(e *sim.Engine) { _, _ = exact.Quantile(e, values, 0.5, exact.Options{}) }},
		{"doubling", func(e *sim.Engine) { sampling.Doubling(e, values, 0.5, 0.1) }},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			var m sim.Metrics
			for i := 0; i < b.N; i++ {
				e := sim.New(n, uint64(i)+53)
				a.run(e)
				m = e.Metrics()
			}
			b.ReportMetric(float64(m.MaxMessageBits), "maxMsgBits")
		})
	}
}

// BenchmarkE13MedianRule measures the [DGM+11] median-rule comparator at
// its Θ(log n)-iteration operating point.
func BenchmarkE13MedianRule(b *testing.B) {
	const n = 1 << 14
	values := dist.Generate(dist.Uniform, n, 59)
	b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
		var m sim.Metrics
		for i := 0; i < b.N; i++ {
			e := sim.New(n, uint64(i)+61)
			tournament.MedianRule(e, values, 0, tournament.Options{})
			m = e.Metrics()
		}
		reportGossip(b, m, n)
	})
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkGridBuild measures the protocol layer of a snapshot refresh: one
// buildSummaryInto grid build (every grid point's ApproxQuantile, keeping
// one row as Session.build does) at ε = 0.05, on one engine worker
// and on every CPU. The num_cpu metric records the box the row came from;
// the two worker counts coincide on a one-CPU box, which then runs one row.
func BenchmarkGridBuild(b *testing.B) {
	cpus := runtime.NumCPU()
	workers := []int{1}
	if cpus > 1 {
		workers = append(workers, cpus)
	}
	for _, n := range []int{1 << 14, 1 << 16} {
		values := dist.Generate(dist.Uniform, n, 1)
		for _, w := range workers {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				e := sim.New(n, 1, sim.WithWorkers(w))
				sc := tournament.NewScratch(e)
				buildSummaryInto(sc, values, 0.05, 0, 1) // warm-up: scratch buffers, worker gang
				b.ReportAllocs()
				b.ResetTimer()
				var sum *Summary
				for i := 0; i < b.N; i++ {
					e.Reset(uint64(i))
					sum = buildSummaryInto(sc, values, 0.05, 0, 1)
				}
				b.ReportMetric(float64(sum.Metrics.Rounds), "rounds")
				b.ReportMetric(float64(cpus), "num_cpu")
			})
		}
	}
}
