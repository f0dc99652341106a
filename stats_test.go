package gossipq_test

import (
	"testing"

	"gossipq"
)

// TestSessionStats walks a session through every serving path — live
// approximate, exact, snapshot hit, snapshot fallback (both no-snapshot and
// too-wide-summary), and forced and gated refreshes — and checks the
// counters tell that exact story.
func TestSessionStats(t *testing.T) {
	const n = 800
	values := make([]int64, n)
	for i := range values {
		values[i] = int64((i * 31) % n)
	}
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if got := s.Stats(); got != (gossipq.SessionStats{}) {
		t.Fatalf("fresh session stats = %+v, want zero", got)
	}

	// Snapshot request before any refresh: fallback, then served live.
	if _, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: 0.15, Mode: gossipq.ServeSnapshot}); err != nil {
		t.Fatal(err)
	}
	// Plain live approximate and exact queries.
	if _, err := s.ApproxQuantile(0.25, 0.15); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExactQuantile(0.5); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.LiveQueries != 2 {
		t.Errorf("LiveQueries = %d, want 2 (fallback + plain approx)", st.LiveQueries)
	}
	if st.ExactQueries != 1 {
		t.Errorf("ExactQueries = %d, want 1", st.ExactQueries)
	}
	if st.SnapshotFallbacks != 1 {
		t.Errorf("SnapshotFallbacks = %d, want 1", st.SnapshotFallbacks)
	}
	if st.SnapshotQueries != 0 {
		t.Errorf("SnapshotQueries = %d, want 0 before any refresh", st.SnapshotQueries)
	}

	// After the first refresh a snapshot query hits.
	if _, err := s.Refresh(0.12); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: 0.15, Mode: gossipq.ServeSnapshot}); err != nil {
		t.Fatal(err)
	}
	// A snapshot request narrower than the summary falls back to live.
	if _, err := s.Ask(gossipq.Query{Phi: 0.5, Eps: 0.11, Mode: gossipq.ServeSnapshot}); err != nil {
		t.Fatal(err)
	}

	st = s.Stats()
	if st.SnapshotQueries != 1 {
		t.Errorf("SnapshotQueries = %d, want 1", st.SnapshotQueries)
	}
	if st.SnapshotFallbacks != 2 {
		t.Errorf("SnapshotFallbacks = %d, want 2", st.SnapshotFallbacks)
	}
	if st.Refreshes != 1 {
		t.Errorf("after first refresh: Refreshes=%d, want 1", st.Refreshes)
	}
	if st.LastRefreshBuild <= 0 || st.RefreshBuildTotal < st.LastRefreshBuild {
		t.Errorf("refresh timings: total=%v last=%v", st.RefreshBuildTotal, st.LastRefreshBuild)
	}

	// Forced: the population has not drifted, so the gated Refresh would be
	// a no-op here.
	if _, err := s.ForceRefresh(0.12); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ForceRefresh(0.12); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Refreshes != 3 {
		t.Errorf("after three refreshes: Refreshes=%d, want 3", st.Refreshes)
	}

	// A drift-free gated Refresh at the published width skips the rebuild
	// and says so.
	if _, err := s.Refresh(0.12); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Refreshes != 3 || st.RefreshesSkipped != 1 {
		t.Errorf("after gated no-op refresh: Refreshes=%d Skipped=%d, want 3/1",
			st.Refreshes, st.RefreshesSkipped)
	}

	// Mutations count by kind and advance the generation.
	s.Insert(7)
	if _, err := s.Update(0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mutate([]gossipq.Mutation{
		{Op: gossipq.OpInsert, Value: 1},
		{Op: gossipq.OpUpdate, Index: 2, Value: 3},
	}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Inserts != 2 || st.Deletes != 1 || st.Updates != 2 {
		t.Errorf("mutation counters: Inserts=%d Deletes=%d Updates=%d, want 2/1/2",
			st.Inserts, st.Deletes, st.Updates)
	}
	if st.Generation != 4 {
		t.Errorf("Generation = %d, want 4 (three single mutations + one batch)", st.Generation)
	}
}
