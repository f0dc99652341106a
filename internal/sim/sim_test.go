package sim

import (
	"fmt"
	"math"
	"testing"
)

func TestNewPanicsOnTinyPopulation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1) did not panic")
		}
	}()
	New(1, 0)
}

func TestPullNeverSelf(t *testing.T) {
	e := New(100, 1)
	dst := make([]int32, 100)
	for r := 0; r < 50; r++ {
		e.Pull(dst, 64)
		for v, p := range dst {
			if p == NoPeer {
				t.Fatalf("pull failed without failure model at node %d", v)
			}
			if int(p) == v {
				t.Fatalf("node %d pulled from itself", v)
			}
			if p < 0 || int(p) >= 100 {
				t.Fatalf("peer %d out of range", p)
			}
		}
	}
}

func TestPullUniform(t *testing.T) {
	const n = 50
	const rounds = 4000
	e := New(n, 2)
	dst := make([]int32, n)
	counts := make([]int, n)
	for r := 0; r < rounds; r++ {
		e.Pull(dst, 64)
		counts[dst[0]]++
	}
	// Node 0 contacts each of the other n-1 nodes ~rounds/(n-1) times.
	want := float64(rounds) / float64(n-1)
	for v := 1; v < n; v++ {
		if math.Abs(float64(counts[v])-want) > 6*math.Sqrt(want) {
			t.Errorf("peer %d chosen %d times, want ~%.0f", v, counts[v], want)
		}
	}
	if counts[0] != 0 {
		t.Errorf("node 0 contacted itself %d times", counts[0])
	}
}

func TestPullAccounting(t *testing.T) {
	e := New(10, 3)
	dst := make([]int32, 10)
	e.Pull(dst, 64)
	e.Pull(dst, 128)
	m := e.Metrics()
	if m.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", m.Rounds)
	}
	if m.Messages != 20 {
		t.Errorf("messages = %d, want 20", m.Messages)
	}
	if m.Bits != 10*64+10*128 {
		t.Errorf("bits = %d", m.Bits)
	}
	if m.MaxMessageBits != 128 {
		t.Errorf("max bits = %d, want 128", m.MaxMessageBits)
	}
}

func TestPullWrongLengthPanics(t *testing.T) {
	e := New(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Pull with wrong dst length did not panic")
		}
	}()
	e.Pull(make([]int32, 9), 64)
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = 20000 // above the parallel threshold
	run := func(workers int, fail FailureModel) []int32 {
		opts := []Option{WithWorkers(workers)}
		if fail != nil {
			opts = append(opts, WithFailures(fail))
		}
		e := New(n, 42, opts...)
		dst := make([]int32, n)
		out := make([]int32, 0, 3*n)
		for r := 0; r < 3; r++ {
			e.Pull(dst, 64)
			out = append(out, dst...)
		}
		return out
	}
	models := []struct {
		name string
		fail FailureModel
	}{
		{"nofail", nil},
		{"uniform", UniformFailures(0.3)},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			a := run(1, m.fail)
			for _, workers := range []int{2, 3, 8, 16} {
				b := run(workers, m.fail)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("workers=%d: transcripts diverge at %d: %d vs %d",
							workers, i, a[i], b[i])
					}
				}
			}
		})
	}
}

// TestResetMatchesFreshAcrossWorkerCounts pins that the parallel reseed path
// (Reset runs on the engine's shard partition) reproduces New bit-for-bit
// for every worker count, including after the engine has consumed stream
// state.
func TestResetMatchesFreshAcrossWorkerCounts(t *testing.T) {
	const n = 20000
	for _, workers := range []int{1, 2, 8} {
		fresh := New(n, 5, WithWorkers(workers))
		reused := New(n, 99, WithWorkers(workers))
		dst := make([]int32, n)
		reused.Pull(dst, 64) // consume state so Reset has real work to undo
		reused.Reset(5)
		want := make([]int32, n)
		for r := 0; r < 3; r++ {
			fresh.Pull(want, 64)
			reused.Pull(dst, 64)
			for i := range want {
				if want[i] != dst[i] {
					t.Fatalf("workers=%d round %d: Reset transcript diverges at %d: %d vs %d",
						workers, r, i, want[i], dst[i])
				}
			}
		}
		if fresh.Metrics() != reused.Metrics() {
			t.Fatalf("workers=%d: metrics diverge: %+v vs %+v",
				workers, fresh.Metrics(), reused.Metrics())
		}
	}
}

func TestFailureRate(t *testing.T) {
	const n = 2000
	const p = 0.3
	e := New(n, 7, WithFailures(UniformFailures(p)))
	dst := make([]int32, n)
	failures := 0
	const rounds = 50
	for r := 0; r < rounds; r++ {
		e.Pull(dst, 64)
		for _, d := range dst {
			if d == NoPeer {
				failures++
			}
		}
	}
	got := float64(failures) / (n * rounds)
	if math.Abs(got-p) > 0.01 {
		t.Errorf("failure rate %.4f, want ~%.2f", got, p)
	}
	m := e.Metrics()
	if m.Messages != int64(n*rounds-failures) {
		t.Errorf("messages %d inconsistent with failures %d", m.Messages, failures)
	}
}

func TestPerNodeFailures(t *testing.T) {
	const n = 1000
	ps := make([]float64, n)
	for i := n / 2; i < n; i++ {
		ps[i] = 1 // second half always fails
	}
	e := New(n, 9, WithFailures(PerNodeFailures(ps)))
	dst := make([]int32, n)
	for r := 0; r < 10; r++ {
		e.Pull(dst, 64)
		for v := 0; v < n/2; v++ {
			if dst[v] == NoPeer {
				t.Fatalf("reliable node %d failed", v)
			}
		}
		for v := n / 2; v < n; v++ {
			if dst[v] != NoPeer {
				t.Fatalf("always-failing node %d succeeded", v)
			}
		}
	}
}

func TestFailureFuncRoundDependence(t *testing.T) {
	// Nodes fail only in even rounds.
	m := FailureFunc(func(_, round int) float64 {
		if round%2 == 0 {
			return 1
		}
		return 0
	})
	e := New(100, 11, WithFailures(m))
	dst := make([]int32, 100)
	e.Pull(dst, 64) // round 0: all fail
	for _, d := range dst {
		if d != NoPeer {
			t.Fatal("node succeeded in an all-fail round")
		}
	}
	e.Pull(dst, 64) // round 1: none fail
	for _, d := range dst {
		if d == NoPeer {
			t.Fatal("node failed in a no-fail round")
		}
	}
}

func TestMaxProb(t *testing.T) {
	if mu := MaxProb(NoFailures(), 100); mu != 0 {
		t.Errorf("MaxProb(NoFailures) = %v", mu)
	}
	if mu := MaxProb(UniformFailures(0.4), 100); mu != 0.4 {
		t.Errorf("MaxProb(Uniform 0.4) = %v", mu)
	}
	ps := make([]float64, 5000)
	ps[700] = 0.9
	if mu := MaxProb(PerNodeFailures(ps), 5000); mu != 0.9 {
		t.Errorf("MaxProb(per-node) = %v, want 0.9", mu)
	}
}

func TestPushDelivery(t *testing.T) {
	const n = 100
	e := New(n, 13)
	received := make([]int, n)
	NewWorkspace[int](e).Push(64,
		func(v int) (int, bool) { return v * 10, true },
		func(v int, in []Delivery[int]) {
			for _, d := range in {
				if d.Msg != int(d.From)*10 {
					t.Errorf("node %d got corrupted message %d from %d", v, d.Msg, d.From)
				}
				received[v]++
			}
		})
	total := 0
	for _, c := range received {
		total += c
	}
	if total != n {
		t.Errorf("delivered %d messages, want %d", total, n)
	}
	if e.Rounds() != 1 {
		t.Errorf("rounds = %d, want 1", e.Rounds())
	}
}

func TestPushSenderOrder(t *testing.T) {
	const n = 500
	e := New(n, 17)
	NewWorkspace[int](e).Push(64,
		func(v int) (int, bool) { return v, true },
		func(v int, in []Delivery[int]) {
			for i := 1; i < len(in); i++ {
				if in[i].From <= in[i-1].From {
					t.Errorf("inbox of %d not sender-ordered: %v then %v", v, in[i-1].From, in[i].From)
				}
			}
		})
}

func TestPushConditionalSend(t *testing.T) {
	const n = 100
	e := New(n, 19)
	delivered := 0
	NewWorkspace[int](e).Push(64,
		func(v int) (int, bool) { return v, v%2 == 0 }, // only even nodes send
		func(v int, in []Delivery[int]) {
			for _, d := range in {
				if d.From%2 != 0 {
					t.Errorf("odd node %d sent", d.From)
				}
				delivered++
			}
		})
	if delivered != n/2 {
		t.Errorf("delivered %d, want %d", delivered, n/2)
	}
	if e.Metrics().Messages != int64(n/2) {
		t.Errorf("messages = %d", e.Metrics().Messages)
	}
}

func TestPushUnderTotalFailure(t *testing.T) {
	e := New(50, 23, WithFailures(UniformFailures(1)))
	NewWorkspace[int](e).Push(64,
		func(v int) (int, bool) { return v, true },
		func(v int, in []Delivery[int]) {
			t.Error("delivery under total failure")
		})
	if e.Metrics().Messages != 0 {
		t.Errorf("messages = %d under total failure", e.Metrics().Messages)
	}
}

func TestPushBatchRoundsChargedByMaxOut(t *testing.T) {
	const n = 100
	e := New(n, 29)
	rounds := NewWorkspace[int](e).PushBatch(64,
		func(v int) []int {
			if v == 7 {
				return []int{1, 2, 3, 4, 5} // node 7 sends 5 messages
			}
			return []int{v}
		},
		func(v int, in []Delivery[int]) {}, nil)
	if rounds != 5 {
		t.Errorf("phase rounds = %d, want 5", rounds)
	}
	if e.Rounds() != 5 {
		t.Errorf("engine rounds = %d, want 5", e.Rounds())
	}
	if e.Metrics().Messages != int64(n-1+5) {
		t.Errorf("messages = %d, want %d", e.Metrics().Messages, n-1+5)
	}
}

func TestPushBatchEmptySendsStillOneRound(t *testing.T) {
	e := New(10, 31)
	rounds := NewWorkspace[int](e).PushBatch(64,
		func(v int) []int { return nil },
		func(v int, in []Delivery[int]) { t.Error("unexpected delivery") }, nil)
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1", rounds)
	}
}

func TestPushBatchDeliveryCompleteness(t *testing.T) {
	const n = 300
	e := New(n, 37)
	got := 0
	NewWorkspace[int](e).PushBatch(64,
		func(v int) []int { return []int{v, v, v} },
		func(v int, in []Delivery[int]) { got += len(in) }, nil)
	if got != 3*n {
		t.Errorf("delivered %d, want %d", got, 3*n)
	}
}

func TestAlgorithmRNGIndependentOfPeerSampling(t *testing.T) {
	// Drawing from the algorithm RNG must not perturb peer choices.
	runPeers := func(consumeAlg bool) []int32 {
		e := New(64, 101)
		if consumeAlg {
			r := e.AlgorithmRNG(5)
			for i := 0; i < 100; i++ {
				r.Uint64()
			}
		}
		dst := make([]int32, 64)
		e.Pull(dst, 64)
		return dst
	}
	a := runPeers(false)
	b := runPeers(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("algorithm RNG consumption changed peer sampling")
		}
	}
}

func TestChargeRounds(t *testing.T) {
	e := New(10, 0)
	e.ChargeRounds(5)
	e.ChargeRounds(-3) // ignored
	if e.Rounds() != 5 {
		t.Errorf("rounds = %d, want 5", e.Rounds())
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for x, want := range cases {
		if got := CeilLog2(x); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestMetricsSub(t *testing.T) {
	a := Metrics{Rounds: 10, Messages: 100, Bits: 6400, MaxMessageBits: 64}
	b := Metrics{Rounds: 4, Messages: 40, Bits: 2560, MaxMessageBits: 64}
	d := a.Sub(b)
	if d.Rounds != 6 || d.Messages != 60 || d.Bits != 3840 {
		t.Errorf("Sub = %+v", d)
	}
}

func BenchmarkPullRound(b *testing.B) {
	e := New(100000, 1)
	dst := make([]int32, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Pull(dst, 64)
	}
}

func BenchmarkPushRound(b *testing.B) {
	e := New(100000, 1)
	ws := NewWorkspace[int64](e)
	vals := make([]int64, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Push(64,
			func(v int) (int64, bool) { return vals[v], true },
			func(v int, in []Delivery[int64]) { vals[v] = in[0].Msg })
	}
}

func TestPushDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = 20000 // above the parallel threshold
	run := func(workers int) []int64 {
		e := New(n, 77, WithWorkers(workers))
		ws := NewWorkspace[int64](e)
		sums := make([]int64, n)
		for r := 0; r < 3; r++ {
			ws.Push(64,
				func(v int) (int64, bool) { return int64(v), true },
				func(v int, in []Delivery[int64]) {
					for _, d := range in {
						sums[v] += d.Msg
					}
				})
		}
		return sums
	}
	a := run(1)
	b := run(16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("push transcripts diverge at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPushBatchOnDropUnderFailures(t *testing.T) {
	const n = 500
	const p = 0.5
	e := New(n, 83, WithFailures(UniformFailures(p)))
	delivered, dropped := 0, 0
	NewWorkspace[int](e).PushBatch(64,
		func(v int) []int { return []int{v, v} },
		func(v int, in []Delivery[int]) { delivered += len(in) },
		func(v int, msg int) { dropped++ })
	if delivered+dropped != 2*n {
		t.Fatalf("delivered %d + dropped %d != %d sent", delivered, dropped, 2*n)
	}
	frac := float64(dropped) / float64(2*n)
	if math.Abs(frac-p) > 0.08 {
		t.Errorf("drop fraction %.3f, want ~%.1f", frac, p)
	}
}

// TestPullRoundsMatchesPull pins PullRounds to the transcript of k
// successive Pull calls: the same peers, the same Metrics and the same
// observer events, for every worker count, failure-free and under a failure
// model whose probabilities depend on the round, so a fused round that drew
// its coins at the wrong round index diverges. n is not a multiple of the
// peer block size, so every shard ends in a short block, and the leading
// single round offsets the fused rounds' base index from zero.
func TestPullRoundsMatchesPull(t *testing.T) {
	const n = 20000
	roundDependent := FailureFunc(func(v, r int) float64 {
		if (v+r)%3 == 0 {
			return 0.4
		}
		return 0
	})
	models := []struct {
		name string
		fail FailureModel
	}{{"none", NoFailures()}, {"round-dependent", roundDependent}}
	for _, m := range models {
		for _, k := range []int{1, 3, 40} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("failures=%s/k=%d/workers=%d", m.name, k, workers)
				want, got := &recordingObserver{}, &recordingObserver{}
				ref := New(n, 17, WithWorkers(workers), WithFailures(m.fail), WithObserver(want))
				e := New(n, 17, WithWorkers(workers), WithFailures(m.fail), WithObserver(got))
				dst := make([]int32, n)
				ref.Pull(dst, 64)
				e.Pull(dst, 64)
				peers := make([][]int32, k)
				for r := range peers {
					ref.Pull(dst, 32)
					peers[r] = append([]int32(nil), dst...)
				}
				seen := make([]int32, n)
				e.PullRounds(k, 32, func(_, lo, hi int, block []int32) {
					for i, p := range block {
						v, r := lo+i%(hi-lo), i/(hi-lo)
						if w := peers[r][v]; p != w {
							t.Errorf("%s: node %d round %d peer %d, want %d", name, v, r, p, w)
						}
					}
					for v := lo; v < hi; v++ {
						seen[v]++
					}
				})
				for v, c := range seen {
					if c != 1 {
						t.Fatalf("%s: node %d reached the span %d times, want 1", name, v, c)
					}
				}
				if e.Metrics() != ref.Metrics() {
					t.Errorf("%s: metrics %+v, want %+v", name, e.Metrics(), ref.Metrics())
				}
				if len(got.events) != len(want.events) {
					t.Fatalf("%s: %d events, want %d", name, len(got.events), len(want.events))
				}
				for i := range want.events {
					if got.events[i] != want.events[i] {
						t.Errorf("%s: event %d = %+v, want %+v", name, i, got.events[i], want.events[i])
					}
				}
			}
		}
	}
}
