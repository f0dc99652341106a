package gossipq_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gossipq"
	"gossipq/internal/dist"
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

// parkingObserver parks the first observed gossip round until release is
// closed, or for at most 5 s; building is closed when that round arrives.
type parkingObserver struct {
	once     sync.Once
	building chan struct{}
	release  chan struct{}
	timedOut atomic.Bool
}

func newParkingObserver() *parkingObserver {
	return &parkingObserver{building: make(chan struct{}), release: make(chan struct{})}
}

func (o *parkingObserver) ObserveRound(gossipq.RoundEvent) {
	o.once.Do(func() {
		close(o.building)
		select {
		case <-o.release:
		case <-time.After(5 * time.Second):
			o.timedOut.Store(true)
		}
	})
}

// TestStatsDoNotWaitOnRebuild pins that Stats never waits on a running
// rebuild, in both session shapes: the first round of the refresh build
// parks until Stats has returned on the test goroutine. A Stats that waits
// on the refresh lock can only return once the build finishes, so the
// parked round times out instead.
func TestStatsDoNotWaitOnRebuild(t *testing.T) {
	values := dist.Generate(dist.Uniform, 2048, 83)
	type shape struct {
		refresh   func() error
		refreshes func() uint64
		close     func() error
	}
	build := map[string]func(gossipq.Config) (shape, error){
		"session": func(cfg gossipq.Config) (shape, error) {
			s, err := gossipq.NewSession(values, cfg)
			if err != nil {
				return shape{}, err
			}
			return shape{
				refresh:   func() error { _, err := s.ForceRefresh(0.1); return err },
				refreshes: func() uint64 { return s.Stats().Refreshes },
				close:     s.Close,
			}, nil
		},
		"sharded": func(cfg gossipq.Config) (shape, error) {
			ss, err := gossipq.NewShardedSession(values, 2, cfg)
			if err != nil {
				return shape{}, err
			}
			return shape{
				refresh:   func() error { _, err := ss.ForceRefresh(0.1); return err },
				refreshes: func() uint64 { return ss.Stats().Refreshes },
				close:     ss.Close,
			}, nil
		},
	}
	for _, name := range []string{"session", "sharded"} {
		t.Run(name, func(t *testing.T) {
			obs := newParkingObserver()
			sh, err := build[name](gossipq.Config{Seed: 89, Workers: 1, RoundObserver: obs})
			if err != nil {
				t.Fatal(err)
			}
			defer sh.close()
			done := make(chan error, 1)
			go func() { done <- sh.refresh() }()
			<-obs.building
			during := sh.refreshes()
			close(obs.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if obs.timedOut.Load() {
				t.Fatal("Stats waited for the running rebuild to finish")
			}
			if during != 0 {
				t.Errorf("Refreshes = %d while the first build runs, want 0", during)
			}
			if after := sh.refreshes(); after != 1 {
				t.Errorf("Refreshes = %d after the build, want 1", after)
			}
		})
	}
}
