package gossipq

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gossipq/internal/xrand"
)

// This file is the session's snapshot serving tier: a versioned ε-summary
// (Summary) published behind an atomic pointer, rebuilt deterministically on
// demand (Refresh) or on a TTL (StartRefresher), and read lock-free by
// ServeSnapshot queries. The design splits the paper's cost statement in
// two: the (1/ε)·O(log log n + log 1/ε)-round grid build is paid per
// refresh on a pooled engine/scratch rig, and every query between
// refreshes is a local O(1) table lookup — zero messages, zero rounds,
// zero allocations.

// ServeMode selects how a session answers an approximate query.
type ServeMode uint8

const (
	// ServeLive (the zero value) runs the gossip protocol for every query —
	// the original session behavior, and the only mode exact queries use.
	ServeLive ServeMode = iota
	// ServeSnapshot answers from the session's current published ε-summary
	// when one exists and covers the requested ε (summary eps ≤ query eps);
	// otherwise the query falls back to a live protocol run. Snapshot
	// answers consume no query ids and report zero Metrics — the entire
	// gossip cost was paid by the build (see Answer.SnapshotVersion).
	ServeSnapshot
)

// String returns "live" or "snapshot" — the wire spelling of the mode in
// the query server's responses.
func (m ServeMode) String() string {
	if m == ServeSnapshot {
		return "snapshot"
	}
	return "live"
}

// SnapshotInfo is the metadata of one published snapshot generation.
type SnapshotInfo struct {
	// Version numbers generations 1, 2, 3, ... in refresh order.
	Version uint64
	// Eps is the summary's accuracy: snapshot answers are within ±Eps·n of
	// the true rank w.h.p.
	Eps float64
	// GridSize is the number of cut points the summary stores per node.
	GridSize int
	// Watermark is the session's query-id counter observed when the build
	// started: a live answer with QueryID < Watermark predates this
	// generation.
	Watermark uint64
	// BuiltAt is the wall-clock completion time of the build.
	BuiltAt time.Time
	// BuildMetrics is the gossip cost of the grid build — the "pay once per
	// monitoring interval" side of the snapshot trade.
	BuildMetrics Metrics
	// Generation is the population generation the summary was built from,
	// and N that population's size.
	Generation uint64
	N          int
	// Drift is the number of mutation operations applied after the build
	// (at the moment this info was read), and DriftBudget how many such
	// operations the summary can absorb before its ±εn guarantee is
	// threatened: each operation shifts any value's rank by at most one,
	// and the build leaves ≈ε/2·n of rank headroom (grid step ε/2, grid
	// accuracy ε/4). While Drift ≤ DriftBudget the snapshot still serves
	// valid ±εn answers for the current population; Refresh skips rebuilds
	// below the budget and is forced at it.
	Drift       uint64
	DriftBudget uint64
}

// Age returns how long ago the snapshot was built.
func (i SnapshotInfo) Age() time.Duration { return time.Since(i.BuiltAt) }

// snapshot is one published generation: the immutable summary (node 0's
// row only — the one row reads answer from) plus build metadata. Session
// and ShardedSession each publish generations through their publisher's
// atomic.Pointer[snapshot]: publish is one Store, every read one Load, and
// a retired generation is reclaimed by the GC once its last reader is done.
type snapshot struct {
	sum       *Summary
	version   uint64
	watermark uint64
	builtAt   time.Time
	// gen/ops/n freeze the population state the build ran on: the session
	// generation, the session's total mutation-op count, and the population
	// size. budget is the drift budget derived from (eps, n) at build time —
	// see driftBudget. All are immutable after publish.
	gen    uint64
	ops    uint64
	n      int
	budget uint64
}

// info assembles the snapshot's metadata; curOps is the session's current
// mutation-op count, from which the staleness (Drift) is derived.
func (p *snapshot) info(curOps uint64) SnapshotInfo {
	return SnapshotInfo{
		Version:      p.version,
		Eps:          p.sum.eps,
		GridSize:     p.sum.GridSize(),
		Watermark:    p.watermark,
		BuiltAt:      p.builtAt,
		BuildMetrics: p.sum.Metrics,
		Generation:   p.gen,
		N:            p.n,
		Drift:        curOps - p.ops,
		DriftBudget:  p.budget,
	}
}

// driftBudget is how many further mutation operations a summary built at
// width eps over n values can absorb before its ±εn guarantee is threatened.
// Each insert, delete, or update shifts any value's rank by at most one, so
// after d operations a stored cut point's rank error has grown by at most d.
// The build itself leaves ≈ε/2·n of rank headroom — the grid is built at
// step ε/2 with grid accuracy ε/4 (summary.go) while the published guarantee
// is the full ±εn — so repair can be deferred until drift reaches
// (1−θ)·ε·n with θ = 1/2.
func driftBudget(eps float64, n int) uint64 {
	b := eps * float64(n) / 2
	if b < 1 {
		return 0
	}
	return uint64(b)
}

// publisher is the snapshot-publishing machinery both session shapes share:
// the published generation behind an atomic pointer, the drift-gated and
// forced refresh, the TTL refresher and its shutdown, and the counters a
// serving layer scrapes. Session and ShardedSession embed one each, so its
// exported methods are theirs; what differs between the two — when a
// standing snapshot is stale and how a new one is built — comes from the
// embedding type through src.
//
// Lock order: refreshMu before any lock src takes in stale or build. Nothing
// on the read or stats path takes refreshMu, so neither waits on a rebuild.
type publisher struct {
	src  snapshotSource
	snap atomic.Pointer[snapshot]

	// refreshMu serializes refreshes and guards the refresher channels.
	// closed is written under it and read lock-free.
	refreshMu     sync.Mutex
	closed        atomic.Bool
	stopRefresher chan struct{}
	refresherDone chan struct{}

	// refreshes counts published builds; it is written under refreshMu and
	// read lock-free. answered and missed count snapshot reads served and
	// not served, skipped counts gated refreshes served by the standing
	// snapshot, and buildNanos/lastBuildNanos meter build wall-clock. Each
	// record is one atomic add: no locks, no allocations.
	refreshes      atomic.Uint64
	answered       atomic.Int64
	missed         atomic.Int64
	skipped        atomic.Int64
	buildNanos     atomic.Int64
	lastBuildNanos atomic.Int64
}

// snapshotSource is what a session shape supplies to its publisher.
type snapshotSource interface {
	// MutationOps is the mutation-op count snapshot drift is measured from.
	MutationOps() uint64
	// stale reports whether cur, the standing snapshot at width eps, must be
	// rebuilt by a drift-gated refresh.
	stale(eps float64, cur *snapshot) bool
	// build runs refresh number r (0, 1, 2, ...) at width eps and returns
	// the generation to publish; the publisher stamps its version and build
	// time. force asks a shape that rebuilds in parts to rebuild every part.
	build(eps float64, force bool, r uint64) (*snapshot, error)
}

// Snapshot reports the currently published snapshot's metadata, if any,
// including its current drift against the live population.
func (p *publisher) Snapshot() (SnapshotInfo, bool) {
	sn := p.snap.Load()
	if sn == nil {
		return SnapshotInfo{}, false
	}
	return sn.info(p.src.MutationOps()), true
}

// answer serves q from the published snapshot (see snapshot.answer),
// counting the outcome.
func (p *publisher) answer(q Query) (Answer, bool) {
	ans, ok := p.snap.Load().answer(q, p.src.MutationOps())
	if ok {
		p.answered.Add(1)
	} else {
		p.missed.Add(1)
	}
	return ans, ok
}

// refreshSeedTag namespaces refresh-build engine seeds ("Snap") within the
// session seed's derivation tree, disjoint from the query-id stream
// (querySeedTag): snapshot builds never perturb live-query transcripts, and
// the r-th refresh is a pure function of (session seed, r).
const refreshSeedTag = 0x536e6170

func (s *Session) refreshSeed(r uint64) uint64 {
	return xrand.NewSource(s.cfg.Seed).Sub(refreshSeedTag).StreamSeed(r)
}

var (
	errSessionClosed   = errors.New("gossipq: session closed")
	errRefresherActive = errors.New("gossipq: refresher already running")
)

// Refresh publishes an ε-summary snapshot, but only when needed: it is the
// drift-gated entry point of the repair policy. When a snapshot at exactly
// this eps is published and the mutation drift since its build does not
// threaten its ±εn guarantee, Refresh is a no-op — it returns the standing
// snapshot's metadata (with its current Drift), allocates nothing, and
// counts a skipped refresh. Otherwise — or when no snapshot exists, or the
// requested eps differs — the rebuild is forced. ForceRefresh bypasses the
// gate entirely. Refreshes serialize with each other; readers are never
// blocked — they keep answering from the previous generation until the
// atomic pointer swap.
//
// On a Session the gate compares the accumulated mutation drift with the
// snapshot's drift budget ((1−θ)·εn with θ = 1/2; see driftBudget). A
// rebuild is deterministic: build number r runs on an engine seeded from
// (session seed, r) in its own namespace, so two sessions with equal Config,
// equal build counts, and equal population state publish bit-identical
// snapshots no matter what queries ran in between. Like BuildSummary, it
// requires a failure-free Config (the grid build runs the non-robust
// tournament) and eps in (0, 0.5].
//
// On a ShardedSession the gate is the two-level repair policy, rebuilding
// only what drift demands. Shard i is dirty when it has no cached summary
// at this width or the mutation ops routed to it since its last build reach
// its own drift budget (driftBudget(ε/2, n_i) — summaries are built at half
// width, so each shard tolerates ≈ε/4·n_i ops); clean shards are not
// contacted and their cached summaries merge as-is, and with no shard dirty
// the standing merged snapshot is kept. One refresh epoch costs a constant
// two cross-shard hops however many shards rebuild. Shard i's b-th build
// runs on an engine seeded from (shard.SeedFor(seed, i), b), and the merge
// is input-order insensitive, so equal configurations publish bit-identical
// merged summaries across gang and process deployments.
func (p *publisher) Refresh(eps float64) (SnapshotInfo, error) { return p.refresh(eps, false) }

// ForceRefresh builds and publishes a new ε-summary snapshot
// unconditionally, bypassing the drift gate (on a ShardedSession, every
// shard rebuilds) — the original Refresh semantics. Harnesses that pin
// build determinism per (seed, build count) use this; serving layers should
// prefer the gated Refresh.
func (p *publisher) ForceRefresh(eps float64) (SnapshotInfo, error) { return p.refresh(eps, true) }

func (p *publisher) refresh(eps float64, force bool) (SnapshotInfo, error) {
	if err := validSummaryEps(eps); err != nil {
		return SnapshotInfo{}, err
	}
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	if p.closed.Load() {
		return SnapshotInfo{}, errSessionClosed
	}
	if cur := p.snap.Load(); !force && cur != nil && cur.sum.eps == eps && !p.src.stale(eps, cur) {
		p.skipped.Add(1)
		return cur.info(p.src.MutationOps()), nil
	}
	r := p.refreshes.Load()
	start := time.Now()
	sn, err := p.src.build(eps, force, r)
	if err != nil {
		return SnapshotInfo{}, err
	}
	buildNanos := time.Since(start).Nanoseconds()
	p.buildNanos.Add(buildNanos)
	p.lastBuildNanos.Store(buildNanos)
	sn.version, sn.builtAt = r+1, time.Now()
	p.snap.Store(sn)
	p.refreshes.Store(r + 1)
	return sn.info(sn.ops), nil
}

// StartRefresher publishes an initial snapshot at width eps synchronously,
// then — for ttl > 0 — starts a background goroutine that runs the
// drift-gated Refresh every ttl until Close: a tick rebuilds only when
// accumulated mutation drift threatens the εn bound (or the published width
// differs), so an unmutated deployment pays no periodic rebuild or gather.
// With ttl ≤ 0 it is exactly one Refresh (on-demand refreshing stays
// available either way). At most one refresher may run per session.
func (p *publisher) StartRefresher(eps float64, ttl time.Duration) (SnapshotInfo, error) {
	info, err := p.Refresh(eps)
	if err != nil || ttl <= 0 {
		return info, err
	}
	p.refreshMu.Lock()
	defer p.refreshMu.Unlock()
	if p.closed.Load() {
		return info, errSessionClosed
	}
	if p.stopRefresher != nil {
		return info, errRefresherActive
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	p.stopRefresher, p.refresherDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(ttl)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := p.Refresh(eps); err != nil {
					// Only possible once the session is closed; the Close
					// that raced us is about to stop this goroutine anyway.
					return
				}
			}
		}
	}()
	return info, nil
}

// shutdown marks the publisher closed — further refreshes fail, published
// snapshots keep serving — and stops the refresher, waiting for it to exit.
// It reports whether this call was the one that closed the publisher.
func (p *publisher) shutdown() bool {
	p.refreshMu.Lock()
	stop, done := p.stopRefresher, p.refresherDone
	p.stopRefresher, p.refresherDone = nil, nil
	first := !p.closed.Swap(true)
	p.refreshMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return first
}

// stale is the session's drift gate: the standing snapshot must be rebuilt
// once the mutation ops applied since its build reach its drift budget.
func (s *Session) stale(_ float64, cur *snapshot) bool {
	return s.mutOps.Load()-cur.ops >= cur.budget
}

// build runs snapshot build r: a grid build on a pooled rig seeded with
// refreshSeed(r). The population read lock is held across the build so the
// summary captures one consistent population (mutations block for the
// build's duration; queries do not). The build keeps node 0's row only:
// that is all a snapshot read or a shard's wire envelope ever looks at.
func (s *Session) build(eps float64, _ bool, r uint64) (*snapshot, error) {
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	if s.cfg.failing(s.n) {
		return nil, errSummaryFailures
	}
	watermark := s.nextID.Load()
	gen := s.generation.Load()
	ops := s.mutOps.Load()
	rig := s.checkout()
	defer s.release(rig)
	s.reseed(rig, s.refreshSeed(r))
	sum := buildSummaryInto(rig.tour, s.values, eps, s.cfg.K, 1)
	return &snapshot{
		sum: sum, watermark: watermark,
		gen: gen, ops: ops, n: s.n, budget: driftBudget(eps, s.n),
	}, nil
}

// Close stops the background refresher (if any) and marks the session
// closed: further refreshes fail with an error, while queries — snapshot
// and live — keep answering from the state already published. Close is
// idempotent and safe to call concurrently with queries and refreshes.
func (s *Session) Close() error {
	s.shutdown()
	return nil
}

// snapshotAnswer serves q from the current snapshot when the query asks for
// ServeSnapshot and the snapshot covers it (see snapshot.answer), counting
// the outcome; exact queries, uncovered widths, over-drifted snapshots, and
// snapshot-less sessions report !ok and fall back to a live run.
func (s *Session) snapshotAnswer(q Query) (Answer, bool) {
	if q.Mode != ServeSnapshot || q.Exact {
		return Answer{}, false
	}
	return s.answer(q)
}

// answer serves q from snapshot p, which may be nil (nothing published):
// a summary built at width εs answers any request with eps ≥ εs inside the
// requested bound, and a stale summary keeps serving while the mutation
// drift accumulated since its build (curOps − p.ops) stays within its drift
// budget — beyond that, the ±εn guarantee for the *current* population can
// no longer be promised and the caller must rebuild or run live. The read
// is lock-free and allocation-free. The answer is node 0's local estimate,
// matching the covered-node convention of live approximate answers (any
// node's view is a valid ±εn answer); its Generation and SnapshotDrift
// report the staleness.
func (p *snapshot) answer(q Query, curOps uint64) (Answer, bool) {
	if p == nil {
		return Answer{}, false
	}
	drift := curOps - p.ops
	if p.sum.eps > q.Eps || drift > p.budget {
		return Answer{}, false
	}
	return Answer{
		Value:           p.sum.Query(0, q.Phi),
		Covered:         p.n,
		Mode:            ServeSnapshot,
		SnapshotVersion: p.version,
		Generation:      p.gen,
		SnapshotDrift:   drift,
	}, true
}
