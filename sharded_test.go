package gossipq

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gossipq/internal/dist"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
	"gossipq/internal/stats"
)

// publishedEnvelope snapshots the published merged summary's cut envelope
// (plus its width and weight) for bit-exact cross-deployment comparison.
func publishedEnvelope(t *testing.T, ss *ShardedSession) (float64, int, []int64) {
	t.Helper()
	p := ss.snap.Load()
	if p == nil {
		t.Fatal("no published snapshot")
	}
	return p.sum.eps, p.n, p.sum.EnvelopeView(0, nil)
}

// TestSnapshotsKeepOneRow pins the snapshot tier's storage: a published
// session snapshot, each shard worker's snapshot, and a merged sharded
// snapshot all keep exactly one entry per cut and envelope row — node 0's,
// the only one a read or a shard's wire envelope uses — so a generation
// holds Θ(1/ε) words however large the population.
func TestSnapshotsKeepOneRow(t *testing.T) {
	const eps = 0.1
	values := dist.Generate(dist.Uniform, 2048, 131)
	oneRow := func(name string, p *snapshot) {
		t.Helper()
		if p == nil {
			t.Fatalf("%s: no published snapshot", name)
		}
		if len(p.sum.cuts) != len(p.sum.grid) || len(p.sum.env) != len(p.sum.grid) {
			t.Fatalf("%s: %d cut rows, %d env rows, want %d each", name, len(p.sum.cuts), len(p.sum.env), len(p.sum.grid))
		}
		for g := range p.sum.grid {
			if len(p.sum.cuts[g]) != 1 || len(p.sum.env[g]) != 1 {
				t.Fatalf("%s: row %d has %d cuts and %d env entries, want 1 each",
					name, g, len(p.sum.cuts[g]), len(p.sum.env[g]))
			}
		}
	}

	s, err := NewSession(values, Config{Seed: 137})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if _, err := s.ForceRefresh(eps); err != nil {
			t.Fatal(err)
		}
		oneRow("session", s.snap.Load())
	}

	ss, err := NewShardedSession(values, 2, Config{Seed: 139})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}
	oneRow("merged", ss.snap.Load())
	for i, sess := range ss.sessions {
		oneRow(fmt.Sprintf("shard %d", i), sess.snap.Load())
	}
}

// TestShardedMatchesOracle is the headline guarantee: the merged summary of
// an S-way sharded population answers quantile queries within ±εn of the
// whole-population exact oracle, for every shard count and workload.
func TestShardedMatchesOracle(t *testing.T) {
	const n = 4096
	const eps = 0.15
	for _, kind := range []dist.Kind{dist.Uniform, dist.Gaussian, dist.Sequential} {
		values := dist.Generate(kind, n, 71)
		oracle := stats.NewOracle(values)
		for _, S := range []int{1, 2, 4, 8} {
			ss, err := NewShardedSession(values, S, Config{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ss.Refresh(eps); err != nil {
				t.Fatalf("%v S=%d: %v", kind, S, err)
			}
			for _, phi := range mergeProbePhis {
				ans, err := ss.Ask(Query{Phi: phi, Eps: eps})
				if err != nil {
					t.Fatalf("%v S=%d phi=%v: %v", kind, S, phi, err)
				}
				if ans.Mode != ServeSnapshot || ans.Covered != n {
					t.Fatalf("%v S=%d phi=%v: answer %+v not snapshot-served over %d", kind, S, phi, ans, n)
				}
				if !oracle.WithinEpsilon(ans.Value, phi, eps) {
					t.Errorf("%v S=%d phi=%v: %d outside +-eps*n", kind, S, phi, ans.Value)
				}
			}
			ss.Close()
		}
	}
}

// TestShardedDeterministicAcrossWorkers pins the deployment-shape
// determinism: the same population sharded the same way publishes a
// bit-identical merged summary whatever the engine worker count.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	values := dist.Generate(dist.Uniform, 2048, 19)
	var envs [][]int64
	for _, workers := range []int{1, 4} {
		ss, err := NewShardedSession(values, 3, Config{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ss.ForceRefresh(0.2); err != nil {
			t.Fatal(err)
		}
		_, _, cuts := publishedEnvelope(t, ss)
		envs = append(envs, cuts)
		ss.Close()
	}
	if len(envs[0]) == 0 {
		t.Fatal("empty envelope")
	}
	for g := range envs[0] {
		if envs[0][g] != envs[1][g] {
			t.Fatalf("cut %d differs across worker counts: %d vs %d", g, envs[0][g], envs[1][g])
		}
	}
}

// TestShardedGangMatchesTCPClient runs the same shards once as an in-process
// gang and once as TCP peer workers behind NewShardedClient (the
// separate-process shape on loopback), and requires bit-identical merged
// summaries — the shard.SeedFor contract end to end.
func TestShardedGangMatchesTCPClient(t *testing.T) {
	const S = 3
	const eps = 0.2
	values := dist.Generate(dist.Gaussian, 1536, 33)
	cfg := Config{Seed: 77}

	gang, err := NewShardedSession(values, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gang.Close()
	if _, err := gang.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}
	gEps, gN, gCuts := publishedEnvelope(t, gang)

	// TCP shape: each worker owns a PeerTransport and a Session on its
	// partition slice with the same derived seed the gang uses.
	addrs := make([]string, S+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	peers := make([]*livenet.PeerTransport, S+1)
	for i := range peers {
		p, err := livenet.NewTCPPeerTransport(i, addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
		addrs[i] = p.Addr()
	}
	for _, p := range peers {
		p.SetPeerAddrs(addrs)
	}
	for i := 0; i < S; i++ {
		lo, hi := shard.Partition(len(values), S, i)
		scfg := cfg
		scfg.Seed = shard.SeedFor(cfg.Seed, i)
		sess, err := NewSession(values[lo:hi], scfg)
		if err != nil {
			t.Fatal(err)
		}
		go shard.NewWorker(i, peers[i], NewSessionBackend(sess), nil).Run()
	}
	client, err := NewShardedClient(peers[S], S, addrs[:S], 30*time.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}
	cEps, cN, cCuts := publishedEnvelope(t, client)
	// Close before the deferred peer Closes tear down the transports.
	client.Close()

	if gEps != cEps || gN != cN || len(gCuts) != len(cCuts) {
		t.Fatalf("shape mismatch: gang (%v, %d, %d cuts) vs client (%v, %d, %d cuts)",
			gEps, gN, len(gCuts), cEps, cN, len(cCuts))
	}
	for g := range gCuts {
		if gCuts[g] != cCuts[g] {
			t.Fatalf("cut %d differs: gang %d vs client %d", g, gCuts[g], cCuts[g])
		}
	}
}

// TestShardedDirtyRepair pins the two-level drift gate: an unmutated session
// skips the rebuild entirely, sub-budget drift on one shard still skips, and
// budget-reaching drift on one shard rebuilds exactly that shard.
func TestShardedDirtyRepair(t *testing.T) {
	const S = 3
	const eps = 0.2                                // shard width 0.1, per-shard budget 0.05*n_i
	values := dist.Generate(dist.Uniform, 1200, 5) // 400 per shard, budget 20
	ss, err := NewShardedSession(values, S, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	info1, err := ss.Refresh(eps)
	if err != nil {
		t.Fatal(err)
	}
	// No drift: the standing snapshot serves.
	info2, err := ss.Refresh(eps)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Version != info1.Version {
		t.Fatalf("unmutated refresh republished: v%d -> v%d", info1.Version, info2.Version)
	}
	if st := ss.Stats(); st.RefreshesSkipped != 1 || st.Epochs != 1 {
		t.Fatalf("stats after clean refresh: %+v", st)
	}

	// 25 updates at global index 5 -> all routed to shard 0, over its
	// budget of 20; shards 1 and 2 stay clean.
	for k := 0; k < 25; k++ {
		if _, err := ss.Update(5, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	info3, err := ss.Refresh(eps)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Version != info1.Version+1 {
		t.Fatalf("drifted refresh did not republish: v%d", info3.Version)
	}
	if info3.Drift != 0 || info3.N != 1200 {
		t.Fatalf("republished info %+v", info3)
	}
	for i, sess := range ss.sessions {
		want := uint64(1)
		if i == 0 {
			want = 2
		}
		if got := sess.Stats().Refreshes; got != want {
			t.Errorf("shard %d built %d summaries, want %d", i, got, want)
		}
	}
	if st := ss.Stats(); st.Epochs != 2 || st.HopsPerEpoch != 2 {
		t.Fatalf("stats after repair: %+v", st)
	}
}

// TestShardedMutateRouting drives the global index space: inserts land on
// the smallest shard, deletes and updates are translated to shard-local
// indices, and the check mirror tracks every shard's real values exactly.
func TestShardedMutateRouting(t *testing.T) {
	values := dist.Generate(dist.Sequential, 300, 13)
	ss, err := NewShardedSession(values, 3, Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ss.EnableCheck(values)

	gen, err := ss.Mutate([]Mutation{
		{Op: OpInsert, Value: 10_000},        // smallest shard = 0 (tie)
		{Op: OpInsert, Value: 10_001},        // now shard 1
		{Op: OpDelete, Index: 0},             // shard 0, local 0
		{Op: OpUpdate, Index: 150, Value: 7}, // shard 1 after shard 0 shrank to 100
		{Op: OpDelete, Index: 299},           // shard 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation %d after one batch", gen)
	}
	if n := ss.N(); n != 300 {
		t.Fatalf("N=%d after +2/-2", n)
	}
	// The mirror must match each shard session's actual values bit for bit.
	for i, sess := range ss.sessions {
		sess.popMu.RLock()
		real := append([]int64(nil), sess.values...)
		sess.popMu.RUnlock()
		if len(real) != len(ss.mirror[i]) {
			t.Fatalf("shard %d: mirror %d values, session %d", i, len(ss.mirror[i]), len(real))
		}
		for k := range real {
			if real[k] != ss.mirror[i][k] {
				t.Fatalf("shard %d value %d: mirror %d, session %d", i, k, ss.mirror[i][k], real[k])
			}
		}
	}
	// And the oracle answers from the mirrored union.
	med, err := ss.OracleQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ss.Verify(med, 0.5, 0.01)
	if err != nil || !ok {
		t.Fatalf("Verify(oracle median): %v %v", ok, err)
	}

	// Validation failures apply nothing.
	if _, err := ss.Mutate([]Mutation{{Op: OpDelete, Index: 9999}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if _, err := ss.Mutate([]Mutation{{Op: MutOp(9)}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if g := ss.Generation(); g != 1 {
		t.Fatalf("failed batches bumped generation to %d", g)
	}
}

// TestShardedAskRepairsOnDemand: a query the standing snapshot cannot serve
// triggers exactly one synchronous refresh.
func TestShardedAskRepairsOnDemand(t *testing.T) {
	values := dist.Generate(dist.Uniform, 600, 29)
	ss, err := NewShardedSession(values, 2, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	// No snapshot yet: Ask must refresh and then serve.
	ans, err := ss.ApproxQuantile(0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Mode != ServeSnapshot || ans.SnapshotVersion != 1 {
		t.Fatalf("first answer %+v", ans)
	}
	// Narrower width than published: refresh again at the new width.
	if _, err := ss.ApproxQuantile(0.5, 0.125); err != nil {
		t.Fatal(err)
	}
	st := ss.Stats()
	if st.QueryRefreshes != 2 || st.Refreshes != 2 || st.SnapshotQueries != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Covered width: served straight from the standing snapshot.
	if _, err := ss.ApproxQuantile(0.9, 0.25); err != nil {
		t.Fatal(err)
	}
	if st := ss.Stats(); st.QueryRefreshes != 2 || st.SnapshotQueries != 3 {
		t.Fatalf("stats after covered ask: %+v", st)
	}

	if _, err := ss.Ask(Query{Phi: 0.5, Exact: true}); !errors.Is(err, errShardedExact) {
		t.Fatalf("exact query: %v", err)
	}
	if _, err := ss.Ask(Query{Phi: 2, Eps: 0.1}); err == nil {
		t.Fatal("phi=2 accepted")
	}
	answers, err := ss.Batch([]Query{{Phi: 0.25, Eps: 0.25}, {Phi: 0.75, Eps: 0.25}})
	if err != nil || len(answers) != 2 {
		t.Fatalf("batch: %v (%d answers)", err, len(answers))
	}
}

// TestShardedRefresherAndClose covers the TTL refresher lifecycle and the
// closed-session behavior: published answers outlive Close, new work fails.
func TestShardedRefresherAndClose(t *testing.T) {
	values := dist.Generate(dist.Uniform, 400, 31)
	ss, err := NewShardedSession(values, 2, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.StartRefresher(0.25, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.StartRefresher(0.25, time.Hour); !errors.Is(err, errRefresherActive) {
		t.Fatalf("second refresher: %v", err)
	}
	if _, ok := ss.Snapshot(); !ok {
		t.Fatal("refresher published nothing")
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Refresh(0.25); !errors.Is(err, errSessionClosed) {
		t.Fatalf("refresh after close: %v", err)
	}
	if _, err := ss.Mutate([]Mutation{{Op: OpInsert}}); !errors.Is(err, errSessionClosed) {
		t.Fatalf("mutate after close: %v", err)
	}
	// The published snapshot keeps serving.
	if ans, err := ss.ApproxQuantile(0.5, 0.25); err != nil || ans.Mode != ServeSnapshot {
		t.Fatalf("post-close ask: %+v %v", ans, err)
	}
}

// TestShardedConstructionValidation rejects impossible shapes up front.
func TestShardedConstructionValidation(t *testing.T) {
	values := dist.Generate(dist.Uniform, 16, 1)
	if _, err := NewShardedSession(values, 0, Config{}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := NewShardedSession(values, 9, Config{}); !errors.Is(err, errShardTooSmall) {
		t.Errorf("9 shards over 16 values: %v", err)
	}
	if _, err := NewShardedSession(values, 2, Config{Failures: UniformFailures(0.5)}); !errors.Is(err, errShardedFailures) {
		t.Errorf("failing config: %v", err)
	}
	ss, err := NewShardedSession(values, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := ss.Refresh(0.9); err == nil {
		t.Error("eps=0.9 accepted")
	}
	if _, err := ss.Verify(0, 0.5, 0.1); !errors.Is(err, errShardedNoCheck) {
		t.Errorf("verify without mirror: %v", err)
	}
}
