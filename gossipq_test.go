package gossipq

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"gossipq/internal/dist"
	"gossipq/internal/sim"
	"gossipq/internal/stats"
)

func TestApproxQuantilePublicAPI(t *testing.T) {
	values := dist.Generate(dist.Uniform, 10000, 1)
	res, err := ApproxQuantile(values, 0.9, 0.05, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered() != len(values) {
		t.Fatalf("covered %d/%d", res.Covered(), len(values))
	}
	for _, x := range res.Outputs {
		if !Verify(values, x, 0.9, 0.05) {
			t.Fatalf("output %d not a 0.05-approximate 0.9-quantile", x)
		}
	}
	if res.Metrics.Rounds != PredictApproxRounds(len(values), 0.9, 0.05, Config{}) {
		t.Errorf("rounds %d != prediction", res.Metrics.Rounds)
	}
	if res.Metrics.MaxMessageBits > 128 {
		t.Errorf("message size %d bits breaks the O(log n) discipline", res.Metrics.MaxMessageBits)
	}
}

func TestApproxQuantileTinyEpsRoutesToExact(t *testing.T) {
	// eps far below the tournament validity region must still produce an
	// (automatically exact) answer.
	values := dist.Generate(dist.Sequential, 2048, 2)
	res, err := ApproxQuantile(values, 0.5, 1e-9, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(stats.TargetRank(0.5, len(values)))
	for _, x := range res.Outputs {
		if x != want {
			t.Fatalf("tiny-eps output %d, want exact %d", x, want)
		}
	}
}

func TestMedian(t *testing.T) {
	values := dist.Generate(dist.Gaussian, 8000, 3)
	res, err := Median(values, 0.05, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Outputs {
		if !Verify(values, x, 0.5, 0.05) {
			t.Fatalf("median output %d rejected", x)
		}
	}
}

func TestExactQuantilePublicAPI(t *testing.T) {
	values := dist.Generate(dist.Uniform, 4096, 4)
	o := stats.NewOracle(values)
	for _, phi := range []float64{0.25, 0.5} {
		res, err := ExactQuantile(values, phi, Config{Seed: 4})
		if err != nil {
			t.Fatalf("phi=%v: %v", phi, err)
		}
		if want := o.Quantile(phi); res.Value != want {
			t.Errorf("phi=%v: got %d, want %d", phi, res.Value, want)
		}
		if len(res.Outputs) != len(values) || res.Outputs[0] != res.Value {
			t.Error("per-node outputs inconsistent")
		}
	}
}

func TestExactQuantileWithDuplicates(t *testing.T) {
	// Duplicate-heavy input exercises the tie-breaking reduction.
	values := dist.Generate(dist.DuplicateHeavy, 3000, 5)
	o := stats.NewOracle(values)
	res, err := ExactQuantile(values, 0.5, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := o.Quantile(0.5); res.Value != want {
		t.Errorf("median of duplicate-heavy input = %d, want %d", res.Value, want)
	}
}

func TestExactQuantileNegativeValues(t *testing.T) {
	values := dist.Generate(dist.Gaussian, 2048, 6) // has negatives
	o := stats.NewOracle(values)
	res, err := ExactQuantile(values, 0.1, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if want := o.Quantile(0.1); res.Value != want {
		t.Errorf("got %d, want %d", res.Value, want)
	}
}

func TestApproxUnderFailures(t *testing.T) {
	values := dist.Generate(dist.Uniform, 8000, 7)
	res, err := ApproxQuantile(values, 0.5, 0.08, Config{
		Seed:        7,
		Failures:    UniformFailures(0.4),
		ExtraRounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cov := float64(res.Covered()) / float64(len(values)); cov < 0.9 {
		t.Fatalf("coverage %.3f under failures", cov)
	}
	for v, x := range res.Outputs {
		if res.Has[v] && !Verify(values, x, 0.5, 0.08) {
			t.Fatalf("covered node %d wrong under failures", v)
		}
	}
}

func TestExactUnderFailures(t *testing.T) {
	values := dist.Generate(dist.Sequential, 2048, 8)
	res, err := ExactQuantile(values, 0.5, Config{Seed: 8, Failures: UniformFailures(0.2)})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(stats.TargetRank(0.5, len(values))); res.Value != want {
		t.Errorf("exact under failures = %d, want %d", res.Value, want)
	}
}

func TestOwnQuantiles(t *testing.T) {
	const n = 8192
	const eps = 0.125
	values := dist.Generate(dist.Uniform, n, 9)
	o := stats.NewOracle(values)
	res, err := OwnQuantiles(values, eps, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for v, q := range res.Quantile {
		truth := o.QuantileOf(values[v])
		if math.Abs(q-truth) > eps {
			bad++
		}
	}
	if frac := float64(bad) / n; frac > 0.001 {
		t.Errorf("%.4f of nodes estimated own quantile worse than ±%v", frac, eps)
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := ApproxQuantile([]int64{1}, 0.5, 0.1, Config{}); err == nil {
		t.Error("single value accepted")
	}
	if _, err := ApproxQuantile([]int64{1, 2}, -0.1, 0.1, Config{}); err == nil {
		t.Error("negative phi accepted")
	}
	if _, err := ApproxQuantile([]int64{1, 2}, 1.1, 0.1, Config{}); err == nil {
		t.Error("phi > 1 accepted")
	}
	if _, err := ApproxQuantile([]int64{1, 2}, 0.5, 0, Config{}); err == nil {
		t.Error("eps = 0 accepted")
	}
	if _, err := ApproxQuantile([]int64{1, 2}, math.NaN(), 0.1, Config{}); err == nil {
		t.Error("NaN phi accepted")
	}
	if _, err := ExactQuantile(nil, 0.5, Config{}); err == nil {
		t.Error("nil values accepted")
	}
	if _, err := OwnQuantiles([]int64{1, 2, 3}, 0, Config{}); err == nil {
		t.Error("OwnQuantiles eps=0 accepted")
	}
	if _, err := OwnQuantiles([]int64{1, 2, 3}, 2, Config{}); err == nil {
		t.Error("OwnQuantiles eps=2 accepted")
	}
}

// workerTranscript hashes everything TestDeterministicAcrossWorkers
// compares: outputs, Metrics, round events, cut tables and the exact answer.
type workerTranscript struct{ hash.Hash64 }

func (tr workerTranscript) ints(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		tr.Write(b[:])
	}
}

func (tr workerTranscript) metrics(m Metrics) {
	tr.ints(int64(m.Rounds), m.Messages, m.Bits, int64(m.MaxMessageBits))
}

// ObserveRound folds every round event, in order, into the hash.
func (tr workerTranscript) ObserveRound(ev RoundEvent) {
	tr.ints(int64(ev.Round), int64(ev.Rounds), ev.Messages, ev.Deliveries, ev.Bits, int64(ev.MsgBits))
	tr.Write([]byte(ev.Phase))
}

// TestDeterministicAcrossWorkers pins the transcript across engine worker
// counts at a population every count shards (n/2048 = 8 shards at most):
// the approximate outputs, Metrics, the full RoundObserver event stream, the
// BuildSummary cut tables and the exact answer hash identically for Workers
// 1, 2, 4 and 8, to values recorded before the tournament's per-node step
// ran on the engine's worker gang. It runs failure-free and under a round-
// and node-dependent failure model that is silent in rounds 0-7, the window
// sim.MaxProb probes, so the facade still runs the failure-free tournament
// while coins fire in every later round: a round that drew its failure
// coins at the wrong round index, or emitted its events out of order, fails
// here.
func TestDeterministicAcrossWorkers(t *testing.T) {
	const n = 16384
	values := dist.Generate(dist.Uniform, n, 10)
	roundDependent := sim.FailureFunc(func(v, r int) float64 {
		if r >= 8 && (v+r)%5 == 0 {
			return 0.3
		}
		return 0
	})
	cases := []struct {
		name string
		fail FailureModel
		want uint64
	}{
		{"failure-free", nil, 0x0a17196e8468aa27},
		{"round-dependent", roundDependent, 0xaea235143fc746cf},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			tr := workerTranscript{fnv.New64a()}
			cfg := Config{Seed: 11, Workers: workers, Failures: c.fail, RoundObserver: tr}
			a, err := ApproxQuantile(values, 0.3, 0.05, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if failed := a.Metrics.Messages < int64(a.Metrics.Rounds)*n; failed != (c.fail != nil) {
				t.Fatalf("%s Workers=%d: pulls failed = %t (%+v)", c.name, workers, failed, a.Metrics)
			}
			tr.ints(a.Outputs...)
			tr.metrics(a.Metrics)
			cfg.RoundObserver = nil
			sum, err := BuildSummary(values, 0.1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for g := range sum.cuts {
				tr.ints(sum.cuts[g]...)
				tr.ints(sum.env[g]...)
			}
			tr.metrics(sum.Metrics)
			x, err := ExactQuantile(values, 0.7, cfg)
			if err != nil {
				tr.Write([]byte(err.Error()))
			}
			tr.ints(x.Value)
			tr.metrics(x.Metrics)
			if got := tr.Sum64(); got != c.want {
				t.Errorf("%s Workers=%d: transcript hash %#x, want %#x", c.name, workers, got, c.want)
			}
		}
	}
}

func TestMetricsAreReported(t *testing.T) {
	values := dist.Generate(dist.Uniform, 4096, 11)
	res, err := ApproxQuantile(values, 0.5, 0.1, Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Rounds <= 0 || m.Messages <= 0 || m.Bits <= 0 || m.MaxMessageBits <= 0 {
		t.Errorf("empty metrics: %+v", m)
	}
	if m.Bits != m.Messages*64 {
		t.Errorf("bits %d != messages %d * 64", m.Bits, m.Messages)
	}
}

func TestVerify(t *testing.T) {
	values := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if !Verify(values, 5, 0.5, 0) {
		t.Error("exact median rejected")
	}
	if Verify(values, 10, 0.5, 0.1) {
		t.Error("max accepted as near-median")
	}
}
