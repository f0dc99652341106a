package gossipq_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"gossipq"
	"gossipq/internal/dist"
)

// Golden seed-stability pins for the public API: every facade entry point's
// full output vector and Metrics are hashed for a fixed (workload, n, seed)
// table. Engine or protocol refactors that silently change transcripts must
// fail here, at the facade level users observe, not only in the engine's
// own golden tests (internal/sim/golden_test.go). The hashes were recorded
// from the PR-2 workspace engine; re-record them only for a change that
// deliberately alters transcripts, and say so in the commit.

func apiHash64(h *uint64, x uint64) {
	for i := 0; i < 8; i++ {
		*h ^= x & 0xff
		*h *= 1099511628211
		x >>= 8
	}
}

func apiHashInts(xs []int64) uint64 {
	h := fnv.New64a().Sum64()
	for _, x := range xs {
		apiHash64(&h, uint64(x))
	}
	return h
}

func apiHashBools(h *uint64, bs []bool) {
	for _, b := range bs {
		if b {
			apiHash64(h, 1)
		} else {
			apiHash64(h, 0)
		}
	}
}

func apiHashFloats(xs []float64) uint64 {
	h := fnv.New64a().Sum64()
	for _, x := range xs {
		apiHash64(&h, math.Float64bits(x))
	}
	return h
}

func TestGoldenFacadeTranscripts(t *testing.T) {
	type golden struct {
		name    string
		hash    uint64
		metrics gossipq.Metrics
	}
	want := []golden{
		{"approx/tournament",
			0xfb6a4bc4cd43b4bb, gossipq.Metrics{Rounds: 41, Messages: 41984, Bits: 2686976, MaxMessageBits: 64}},
		{"approx/substituted-exact",
			0x3a5fb4cffb83c325, gossipq.Metrics{Rounds: 1307, Messages: 612791, Bits: 48552832, MaxMessageBits: 128}},
		{"median",
			0xa222222b9eceb646, gossipq.Metrics{Rounds: 39, Messages: 39936, Bits: 2555904, MaxMessageBits: 64}},
		{"approx/robust",
			0x56c8bccf940202cd, gossipq.Metrics{Rounds: 282, Messages: 202081, Bits: 12933184, MaxMessageBits: 64}},
		{"exact/duplicate-heavy",
			0x8a0d37f737489ba5, gossipq.Metrics{Rounds: 1597, Messages: 888275, Bits: 70844800, MaxMessageBits: 128}},
		{"exact/sequential",
			0x04f89b73a33e0325, gossipq.Metrics{Rounds: 1472, Messages: 706639, Bits: 56371072, MaxMessageBits: 128}},
		{"own",
			0xe355604e593bf87f, gossipq.Metrics{Rounds: 293, Messages: 300032, Bits: 19202048, MaxMessageBits: 64}},
	}

	got := map[string]golden{}
	record := func(name string, hash uint64, m gossipq.Metrics) {
		got[name] = golden{name, hash, m}
	}

	// Tournament path: ε inside the validity region at n=1024.
	v := dist.Generate(dist.Uniform, 1024, 101)
	a, err := gossipq.ApproxQuantile(v, 0.3, 0.1, gossipq.Config{Seed: 201})
	if err != nil {
		t.Fatal(err)
	}
	record("approx/tournament", apiHashInts(a.Outputs), a.Metrics)

	// Small-ε regime: the facade must substitute the exact algorithm.
	v = dist.Generate(dist.Gaussian, 512, 102)
	a, err = gossipq.ApproxQuantile(v, 0.25, 0.01, gossipq.Config{Seed: 202})
	if err != nil {
		t.Fatal(err)
	}
	record("approx/substituted-exact", apiHashInts(a.Outputs), a.Metrics)

	v = dist.Generate(dist.Zipf, 1024, 103)
	a, err = gossipq.Median(v, 0.1, gossipq.Config{Seed: 203})
	if err != nil {
		t.Fatal(err)
	}
	record("median", apiHashInts(a.Outputs), a.Metrics)

	// Robust path: Has is part of the pinned transcript.
	v = dist.Generate(dist.Uniform, 1024, 104)
	a, err = gossipq.ApproxQuantile(v, 0.3, 0.1, gossipq.Config{Seed: 204,
		Failures: gossipq.UniformFailures(0.3), ExtraRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	hh := apiHashInts(a.Outputs)
	apiHashBools(&hh, a.Has)
	record("approx/robust", hh, a.Metrics)

	v = dist.Generate(dist.DuplicateHeavy, 600, 105)
	e, err := gossipq.ExactQuantile(v, 0.7, gossipq.Config{Seed: 205})
	if err != nil {
		t.Fatal(err)
	}
	record("exact/duplicate-heavy", apiHashInts(e.Outputs), e.Metrics)

	v = dist.Generate(dist.Sequential, 512, 106)
	e, err = gossipq.ExactQuantile(v, 0.5, gossipq.Config{Seed: 206})
	if err != nil {
		t.Fatal(err)
	}
	record("exact/sequential", apiHashInts(e.Outputs), e.Metrics)

	v = dist.Generate(dist.Uniform, 1024, 107)
	o, err := gossipq.OwnQuantiles(v, 0.25, gossipq.Config{Seed: 207})
	if err != nil {
		t.Fatal(err)
	}
	record("own", apiHashFloats(o.Quantile), o.Metrics)

	for _, w := range want {
		g, ok := got[w.name]
		if !ok {
			t.Errorf("%s: no result recorded", w.name)
			continue
		}
		if g.hash != w.hash {
			t.Errorf("%s: output hash %#016x, golden %#016x — the facade transcript changed",
				w.name, g.hash, w.hash)
		}
		if g.metrics != w.metrics {
			t.Errorf("%s: metrics %+v, golden %+v", w.name, g.metrics, w.metrics)
		}
	}
}

// TestSnapshotGoldenTranscripts pins the snapshot serving tier bit for bit:
// a Session's answers over a 201-point φ sweep plus each build's Metrics
// after two forced refreshes, the same for S ∈ {2, 4} sharded sessions
// before and after a dirty-shard repair, and every node view and rank of an
// all-node BuildSummary. The hashes were recorded before the snapshot tier
// switched to one-row storage; a change to how snapshots are stored must
// leave every one of them unchanged.
func TestSnapshotGoldenTranscripts(t *testing.T) {
	const eps = 0.1
	want := map[string]uint64{
		"session":     0xe9ce1805d4874095,
		"sharded/S=2": 0xcf1d76dda66ba312,
		"sharded/S=4": 0x93d81533c76d7ac0,
		"summary":     0x876a1025470af626,
	}
	hashMetrics := func(h *uint64, m gossipq.Metrics) {
		apiHash64(h, uint64(m.Rounds))
		apiHash64(h, uint64(m.Messages))
		apiHash64(h, uint64(m.Bits))
		apiHash64(h, uint64(m.MaxMessageBits))
	}
	sweep := func(h *uint64, info gossipq.SnapshotInfo, ask func(gossipq.Query) (gossipq.Answer, error)) {
		t.Helper()
		apiHash64(h, info.Version)
		apiHash64(h, uint64(info.N))
		hashMetrics(h, info.BuildMetrics)
		for i := 0; i <= 200; i++ {
			a, err := ask(gossipq.Query{Phi: float64(i) / 200, Eps: eps, Mode: gossipq.ServeSnapshot})
			if err != nil {
				t.Fatal(err)
			}
			if a.Mode != gossipq.ServeSnapshot {
				t.Fatalf("phi=%v served %v, want snapshot", float64(i)/200, a.Mode)
			}
			apiHash64(h, uint64(a.Value))
			apiHash64(h, a.SnapshotVersion)
			apiHash64(h, a.Generation)
			apiHash64(h, uint64(a.Covered))
		}
	}
	got := map[string]uint64{}

	s, err := gossipq.NewSession(dist.Generate(dist.Uniform, 4096, 111), gossipq.Config{Seed: 211})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a().Sum64()
	for r := 0; r < 2; r++ {
		info, err := s.ForceRefresh(eps)
		if err != nil {
			t.Fatal(err)
		}
		sweep(&h, info, s.Ask)
	}
	got["session"] = h

	values := dist.Generate(dist.Zipf, 8192, 112)
	for _, shards := range []int{2, 4} {
		ss, err := gossipq.NewShardedSession(values, shards, gossipq.Config{Seed: 212})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a().Sum64()
		info, err := ss.ForceRefresh(eps)
		if err != nil {
			t.Fatal(err)
		}
		sweep(&h, info, ss.Ask)
		// Over-budget churn on shard 0 only: the gated Refresh rebuilds it
		// and merges the other shards from cache.
		muts := make([]gossipq.Mutation, 150)
		for i := range muts {
			muts[i] = gossipq.Mutation{Op: gossipq.OpUpdate, Index: i, Value: int64(1000 * i)}
		}
		if _, err := ss.Mutate(muts); err != nil {
			t.Fatal(err)
		}
		if info, err = ss.Refresh(eps); err != nil {
			t.Fatal(err)
		}
		sweep(&h, info, ss.Ask)
		ss.Close()
		got[fmt.Sprintf("sharded/S=%d", shards)] = h
	}

	v := dist.Generate(dist.Gaussian, 1024, 113)
	sum, err := gossipq.BuildSummary(v, eps, gossipq.Config{Seed: 213})
	if err != nil {
		t.Fatal(err)
	}
	h = fnv.New64a().Sum64()
	hashMetrics(&h, sum.Metrics)
	for node := 0; node < len(v); node++ {
		for _, c := range sum.NodeView(node) {
			apiHash64(&h, uint64(c))
		}
		apiHash64(&h, math.Float64bits(sum.Rank(node, v[node])))
		apiHash64(&h, uint64(sum.Query(node, float64(node)/float64(len(v)))))
	}
	got["summary"] = h

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: snapshot hash %#016x, golden %#016x — snapshot answers changed", name, got[name], w)
		}
	}
}
