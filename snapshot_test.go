package gossipq_test

import (
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gossipq"
	"gossipq/internal/dist"
)

// TestSnapshotServingBasics covers the snapshot read contract: before any
// refresh, ServeSnapshot queries fall back to live; after Refresh they are
// served locally (version stamped, zero metrics, no query id consumed) and
// verify against the oracle; uncovered widths and exact queries keep
// running live.
func TestSnapshotServingBasics(t *testing.T) {
	values := dist.Generate(dist.Zipf, 4096, 51)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}

	// No snapshot yet: must fall back to a live run.
	a, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: 0.1, Mode: gossipq.ServeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != gossipq.ServeLive || a.SnapshotVersion != 0 {
		t.Fatalf("pre-refresh snapshot query served as %v version %d, want live fallback", a.Mode, a.SnapshotVersion)
	}
	if _, ok := s.Snapshot(); ok {
		t.Fatal("Snapshot() reports a snapshot before any refresh")
	}

	info, err := s.Refresh(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Eps != 0.05 || info.GridSize < 2 {
		t.Fatalf("first refresh info = %+v", info)
	}
	if info.BuildMetrics.Rounds <= 0 || info.BuildMetrics.Messages <= 0 {
		t.Fatalf("build metrics empty: %+v", info.BuildMetrics)
	}
	if got, ok := s.Snapshot(); !ok || got.Version != 1 {
		t.Fatalf("Snapshot() = %+v, %v after refresh", got, ok)
	}

	issued := s.QueriesIssued()
	for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.9, 1} {
		a, err := s.Ask(gossipq.Query{Phi: phi, Eps: 0.05, Mode: gossipq.ServeSnapshot})
		if err != nil {
			t.Fatal(err)
		}
		if a.Mode != gossipq.ServeSnapshot || a.SnapshotVersion != 1 {
			t.Fatalf("phi=%v served as %v version %d, want snapshot v1", phi, a.Mode, a.SnapshotVersion)
		}
		if a.Metrics != (gossipq.Metrics{}) {
			t.Fatalf("phi=%v: snapshot answer has non-zero metrics %+v", phi, a.Metrics)
		}
		if a.Covered != s.N() {
			t.Fatalf("phi=%v: covered %d, want %d", phi, a.Covered, s.N())
		}
		if !s.Verify(a.Value, phi, 0.05) {
			t.Errorf("phi=%v: snapshot answer %d outside ±εn", phi, a.Value)
		}
	}
	if got := s.QueriesIssued(); got != issued {
		t.Errorf("snapshot reads consumed %d query ids", got-issued)
	}

	// Width below the summary's eps is not covered: live fallback.
	a, err = s.Ask(gossipq.Query{Phi: 0.5, Eps: 0.01, Mode: gossipq.ServeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != gossipq.ServeLive {
		t.Errorf("eps=0.01 below summary eps served from snapshot")
	}
	// Exact queries always run live.
	a, err = s.Ask(gossipq.Query{Phi: 0.5, Exact: true, Mode: gossipq.ServeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != gossipq.ServeLive {
		t.Errorf("exact query served from snapshot")
	}
	if want := s.OracleQuantile(0.5); a.Value != want {
		t.Errorf("exact through snapshot mode: %d, oracle %d", a.Value, want)
	}

	// Batches mix snapshot and live answers per query.
	answers, err := s.Batch([]gossipq.Query{
		{Phi: 0.25, Eps: 0.05, Mode: gossipq.ServeSnapshot},
		{Phi: 0.25, Eps: 0.05},
		{Phi: 0.75, Eps: 0.05, Mode: gossipq.ServeSnapshot},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []gossipq.ServeMode{gossipq.ServeSnapshot, gossipq.ServeLive, gossipq.ServeSnapshot}
	for i, a := range answers {
		if a.Err != nil {
			t.Fatalf("batch answer %d: %v", i, a.Err)
		}
		if a.Mode != wantModes[i] {
			t.Errorf("batch answer %d served as %v, want %v", i, a.Mode, wantModes[i])
		}
	}
}

// TestSnapshotRefreshDeterminism is the conformance lens's core claim at
// unit scope: refresh r is a pure function of (session seed, r) — two
// sessions with the same Config publish bit-identical snapshots at every
// generation, no matter what live traffic ran on each in between.
func TestSnapshotRefreshDeterminism(t *testing.T) {
	values := dist.Generate(dist.Gaussian, 2048, 53)
	phis := []float64{0.05, 0.3, 0.5, 0.77, 0.95}
	const generations = 3

	record := func(liveTraffic int) [][]int64 {
		s, err := gossipq.NewSession(values, gossipq.Config{Seed: 71})
		if err != nil {
			t.Fatal(err)
		}
		// Perturb the query-id stream differently per session: refresh
		// seeds must not care.
		for i := 0; i < liveTraffic; i++ {
			if _, err := s.ApproxQuantile(0.5, 0.1); err != nil {
				t.Fatal(err)
			}
		}
		var gens [][]int64
		for g := 0; g < generations; g++ {
			// Forced: the population never drifts here, so the gated Refresh
			// would republish generation 1 forever.
			info, err := s.ForceRefresh(0.1)
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != uint64(g+1) {
				t.Fatalf("refresh %d published version %d", g, info.Version)
			}
			row := make([]int64, len(phis))
			for i, phi := range phis {
				a, err := s.Ask(gossipq.Query{Phi: phi, Eps: 0.1, Mode: gossipq.ServeSnapshot})
				if err != nil {
					t.Fatal(err)
				}
				if a.SnapshotVersion != uint64(g+1) {
					t.Fatalf("generation %d answered from version %d", g+1, a.SnapshotVersion)
				}
				row[i] = a.Value
			}
			gens = append(gens, row)
		}
		return gens
	}

	a := record(0)
	b := record(7)
	for g := range a {
		for i := range a[g] {
			if a[g][i] != b[g][i] {
				t.Errorf("generation %d phi=%v: %d vs %d across sessions — refresh not deterministic",
					g+1, phis[i], a[g][i], b[g][i])
			}
		}
	}
}

// TestSnapshotReadAllocs asserts the acceptance gate on the read path: a
// steady-state snapshot query performs ZERO allocations. A snapshot keeps
// node 0's row only, so a rebuild stays within a small constant cost too.
func TestSnapshotReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow bookkeeping allocates; alloc counts are only meaningful unraced")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Workers: 2 splits n = 4096 into two engine shards, so the refresh pin
	// covers the sharded tournament iterations on any machine.
	values := dist.Generate(dist.Uniform, 4096, 57)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 59, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(0.1); err != nil {
		t.Fatal(err)
	}

	q := gossipq.Query{Phi: 0.9, Eps: 0.1, Mode: gossipq.ServeSnapshot}
	if avg := testing.AllocsPerRun(100, func() {
		a, err := s.Ask(q)
		if err != nil || a.Mode != gossipq.ServeSnapshot {
			t.Fatalf("a=%+v err=%v", a, err)
		}
	}); avg != 0 {
		t.Errorf("snapshot read: %v allocs/op, want 0", avg)
	}

	// A refresh allocates only the generation itself (Summary + grid +
	// one-row cut table + snapshot struct), never grid × n cut/envelope
	// rows. Forced builds — the gated Refresh would skip on this drift-free
	// session; mutation churn keeps the same bound (see TestMutationAllocs
	// for the forced-repair-under-churn pin).
	if avg := testing.AllocsPerRun(5, func() {
		if _, err := s.ForceRefresh(0.1); err != nil {
			t.Fatal(err)
		}
	}); avg > 16 {
		t.Errorf("steady-state refresh: %v allocs/op, want ≤ 16", avg)
	}

	// A drift-gated skipped Refresh is free: zero allocations.
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Refresh(0.1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("skipped drift-gated refresh: %v allocs/op, want 0", avg)
	}
}

// TestSnapshotReadsRacingRefresh is the concurrency contract (run under
// -race in CI): reader goroutines hammer snapshot queries while the main
// goroutine republishes generation after generation. Every answer must be
// exactly one deterministic generation's answer — the version it reports
// must reproduce, bit-for-bit, on a reference session refreshed to that
// generation — and stay within ±εn of the oracle.
func TestSnapshotReadsRacingRefresh(t *testing.T) {
	const n = 1024
	const eps = 0.1
	const generations = 6
	values := dist.Generate(dist.Uniform, n, 63)
	phis := []float64{0.1, 0.3, 0.5, 0.7, 0.9}

	// Reference answers per (generation, phi), from a session that never
	// sees concurrency.
	ref, err := gossipq.NewSession(values, gossipq.Config{Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int64, generations+1)
	for g := 1; g <= generations; g++ {
		if _, err := ref.ForceRefresh(eps); err != nil {
			t.Fatal(err)
		}
		want[g] = make([]int64, len(phis))
		for i, phi := range phis {
			a, err := ref.Ask(gossipq.Query{Phi: phi, Eps: eps, Mode: gossipq.ServeSnapshot})
			if err != nil {
				t.Fatal(err)
			}
			want[g][i] = a.Value
		}
	}

	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pi := (g + i) % len(phis)
				a, err := s.Ask(gossipq.Query{Phi: phis[pi], Eps: eps, Mode: gossipq.ServeSnapshot})
				if err != nil {
					errs <- err
					return
				}
				v := a.SnapshotVersion
				if a.Mode != gossipq.ServeSnapshot || v < 1 || v > generations {
					errs <- err
					return
				}
				if a.Value != want[v][pi] {
					t.Errorf("phi=%v: answer %d from version %d, deterministic rebuild says %d",
						phis[pi], a.Value, v, want[v][pi])
					return
				}
				if !s.Verify(a.Value, phis[pi], eps) {
					t.Errorf("phi=%v: racing snapshot answer %d outside ±εn", phis[pi], a.Value)
					return
				}
			}
		}(g)
	}
	for g := 2; g <= generations; g++ {
		if _, err := s.ForceRefresh(eps); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRefresherLifecycle covers StartRefresher/Close semantics
// under the drift gate: TTL ticks republish only when mutation drift
// threatens the εn bound (an unmutated session never rebuilds), Close stops
// the refresher and blocks further refreshes while reads keep answering,
// and Close is idempotent.
func TestSnapshotRefresherLifecycle(t *testing.T) {
	const n = 512
	const eps = 0.2 // drift budget = (1-θ)·εn = 51 ops at θ = 1/2
	values := dist.Generate(dist.Uniform, n, 69)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.StartRefresher(eps, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 {
		t.Fatalf("initial refresher build published version %d", info.Version)
	}
	if _, err := s.StartRefresher(eps, time.Millisecond); err == nil {
		t.Error("second refresher accepted")
	}
	// Without mutations, ticks are gated no-ops: the version must hold at 1.
	time.Sleep(20 * time.Millisecond)
	if cur, ok := s.Snapshot(); !ok || cur.Version != 1 {
		t.Fatalf("drift-free TTL ticks advanced the snapshot to %+v", cur)
	}
	// Churn past the drift budget and the refresher must republish — and
	// keep republishing while the churn continues.
	deadline := time.After(5 * time.Second)
	for i := 0; ; i++ {
		for j := 0; j < 60; j++ { // one budget's worth of drift per wave
			if _, err := s.Update((i*60+j)%n, int64(j)); err != nil {
				t.Fatal(err)
			}
		}
		cur, ok := s.Snapshot()
		if ok && cur.Version >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("TTL refresher never advanced past version 2 under churn")
		case <-time.After(time.Millisecond):
		}
	}
	// Zero the residual drift so the post-Close snapshot read below is
	// served from the snapshot rather than falling back over the budget.
	if _, err := s.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, ok := s.Snapshot()
	if !ok {
		t.Fatal("snapshot gone after Close")
	}
	time.Sleep(10 * time.Millisecond)
	again, _ := s.Snapshot()
	if again.Version != after.Version {
		t.Errorf("refresher still publishing after Close: %d -> %d", after.Version, again.Version)
	}
	if _, err := s.Refresh(0.2); err == nil {
		t.Error("Refresh accepted on a closed session")
	}
	// Reads — snapshot and live — survive Close.
	a, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: 0.2, Mode: gossipq.ServeSnapshot})
	if err != nil || a.Mode != gossipq.ServeSnapshot {
		t.Errorf("snapshot read after Close: %+v, %v", a, err)
	}
	if _, err := s.ApproxQuantile(0.5, 0.2); err != nil {
		t.Errorf("live read after Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSnapshotDriftGate is the drift-counter acceptance test: Refresh must
// be skipped while accumulated mutation drift is below the (1−θ)·εn budget
// and forced once it reaches it, the skip must keep serving the stale
// snapshot (with its staleness reported), and drift beyond the budget
// without a repair must push snapshot reads back to live serving.
func TestSnapshotDriftGate(t *testing.T) {
	const n = 1000
	const eps = 0.1 // budget = (1-θ)·εn = 0.1·1000/2 = 50 ops at θ = 1/2
	values := dist.Generate(dist.Uniform, n, 83)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Refresh(eps)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.DriftBudget != 50 || info.Drift != 0 || info.Generation != 0 {
		t.Fatalf("first refresh info = %+v, want version 1, budget 50, drift 0, generation 0", info)
	}

	// 49 ops of churn: strictly below the budget, so Refresh must skip.
	for i := 0; i < 49; i++ {
		if _, err := s.Update(i, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	info, err = s.Refresh(eps)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Drift != 49 {
		t.Fatalf("sub-budget refresh rebuilt: %+v, want skipped version 1 at drift 49", info)
	}
	if got := s.Stats().RefreshesSkipped; got != 1 {
		t.Fatalf("RefreshesSkipped = %d, want 1", got)
	}
	// The stale snapshot keeps serving, reporting its provenance: the build
	// generation (0) and the drift at read time.
	a, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: eps, Mode: gossipq.ServeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != gossipq.ServeSnapshot || a.SnapshotVersion != 1 || a.Generation != 0 || a.SnapshotDrift != 49 {
		t.Fatalf("stale-but-within-ε answer = %+v, want snapshot v1, generation 0, drift 49", a)
	}
	if !s.Verify(a.Value, 0.5, eps) {
		t.Errorf("stale snapshot answer %d outside ±εn of the post-mutation oracle", a.Value)
	}

	// The 50th op reaches the budget: the gate must force the rebuild.
	if _, err := s.Update(49, 49); err != nil {
		t.Fatal(err)
	}
	info, err = s.Refresh(eps)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Drift != 0 || info.Generation != 50 {
		t.Fatalf("at-budget refresh = %+v, want forced rebuild to version 2 at drift 0, generation 50", info)
	}

	// Drift beyond the budget with no repair: snapshot reads must fall back
	// to live so the ±εn guarantee holds for the current population.
	for i := 0; i < 51; i++ {
		if _, err := s.Update(i, int64(-i)); err != nil {
			t.Fatal(err)
		}
	}
	fallbacks := s.Stats().SnapshotFallbacks
	a, err = s.Ask(gossipq.Query{Phi: 0.5, Eps: eps, Mode: gossipq.ServeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != gossipq.ServeLive {
		t.Fatalf("over-budget snapshot read served as %v (drift 51 > budget 50), want live fallback", a.Mode)
	}
	if got := s.Stats().SnapshotFallbacks; got != fallbacks+1 {
		t.Errorf("SnapshotFallbacks = %d, want %d", got, fallbacks+1)
	}
	if !s.Verify(a.Value, 0.5, eps) {
		t.Errorf("live fallback answer %d outside ±εn", a.Value)
	}

	// Repair brings snapshot serving back.
	if info, err = s.Refresh(eps); err != nil || info.Version != 3 {
		t.Fatalf("post-overflow refresh = %+v, %v, want version 3", info, err)
	}
	a, err = s.Ask(gossipq.Query{Phi: 0.5, Eps: eps, Mode: gossipq.ServeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode != gossipq.ServeSnapshot || a.SnapshotVersion != 3 || a.SnapshotDrift != 0 {
		t.Fatalf("post-repair answer = %+v, want snapshot v3 at drift 0", a)
	}

	// A different width always rebuilds, drift or not.
	if info, err = s.Refresh(0.2); err != nil || info.Version != 4 {
		t.Fatalf("width-changing refresh = %+v, %v, want version 4", info, err)
	}
}

// TestSnapshotRefreshValidation pins the refresh error paths: bad widths,
// and the documented refusal to build summaries under a failure model.
func TestSnapshotRefreshValidation(t *testing.T) {
	values := dist.Generate(dist.Uniform, 512, 77)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, -0.1, 0.6} {
		if _, err := s.Refresh(eps); err == nil {
			t.Errorf("Refresh(%v) accepted", eps)
		}
	}
	f, err := gossipq.NewSession(values, gossipq.Config{
		Seed: 81, Failures: gossipq.UniformFailures(0.2), ExtraRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Refresh(0.1); err == nil {
		t.Error("Refresh accepted under a failure model")
	}
}
