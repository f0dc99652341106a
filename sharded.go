package gossipq

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gossipq/internal/livenet"
	"gossipq/internal/shard"
	"gossipq/internal/stats"
)

// This file is the serving side of the distributed shard tier
// (internal/shard): ShardedSession partitions one logical population across
// S shard workers, each running the full gossip quantile protocol locally on
// its slice, and publishes one merged ε-summary for the whole population
// through the same snapshot publisher (snapshot.go) the single-process
// Session uses. The cross-shard cost per refresh is constant — one broadcast hop,
// one gather hop (Router.Gather) — whatever the population size or shard
// count; the merge itself is local arithmetic (mergeSummaries). Shard
// summaries are built at width ε/2 and merged at ε, which keeps the merged
// answers within ±εN of the whole-population rank (see merge.go's error
// decomposition).
//
// Two deployment shapes share this type:
//
//   - NewShardedSession runs the gang in-process: each shard is a Session on
//     its slice of the values, its worker a goroutine, the transport a chan
//     group, and the refresh epochs synchronize on the livenet lockstep
//     Coordinator (shard.Barrier).
//   - NewShardedClient drives remote workers (the `gossipq shard` command)
//     over a caller-built transport — the separate-OS-process shape, where
//     epoch-id matching plus the gather timeout replace the barrier.
//
// Both derive shard s's session seed as shard.SeedFor(rootSeed, s), so the
// merged summaries are bit-identical across deployment shapes, shard
// transports, and engine worker counts.

var (
	errShardedExact    = errors.New("gossipq: sharded sessions answer approximate queries only (exact needs the whole population on one engine)")
	errShardedFailures = errors.New("gossipq: sharded sessions require a failure-free Config (summary grid builds run the non-robust tournament)")
	errShardedNoCheck  = errors.New("gossipq: check mirror not enabled on this sharded session")
	errShardTooSmall   = errors.New("gossipq: every shard needs at least 2 values")
)

// ShardedStats is a point-in-time reading of a sharded session's
// instrumentation (ShardedSession.Stats).
type ShardedStats struct {
	// Shards is the worker count S.
	Shards int
	// SnapshotQueries counts queries answered from the merged summary.
	SnapshotQueries int64
	// QueryRefreshes counts queries that forced a synchronous refresh first
	// (no merged summary yet, width not covered, or drift over budget).
	QueryRefreshes int64
	// Refreshes counts published merged snapshots; RefreshesSkipped counts
	// drift-gated Refresh calls served by the standing snapshot.
	Refreshes        uint64
	RefreshesSkipped int64
	// Epochs and HopsPerEpoch are the router's cross-shard round accounting:
	// completed gather epochs, each costing exactly HopsPerEpoch (= 2)
	// communication hops regardless of shard count or population size.
	Epochs       uint64
	HopsPerEpoch int
	// Generation counts successful mutation calls; MutationOps individual
	// applied operations across all shards (the drift unit).
	Generation  uint64
	MutationOps uint64
	// RefreshBuildTotal and LastRefreshBuild meter the wall-clock refresh
	// cost: gather (shard grid builds) plus merge.
	RefreshBuildTotal time.Duration
	LastRefreshBuild  time.Duration
}

// ShardedSession serves quantile queries over a population partitioned
// across shard workers. All answers come from the published merged
// ε-summary (lock-free, allocation-free reads, as in Session); a query the
// standing summary cannot serve triggers one synchronous drift-gated
// Refresh. Mutations are routed to the owning shard by global index and
// tracked per shard, so a refresh repairs only the shards whose accumulated
// drift threatens the εn bound (the dirty-shard repair).
//
// Queries (Ask, Batch), Snapshot, N, and Stats are safe for arbitrary
// goroutine concurrency; Snapshot, N, and Stats never wait on a refresh.
// Refresh and Mutate serialize on the session.
type ShardedSession struct {
	cfg    Config
	shards int
	router *shard.Router

	// publisher is the merged-snapshot tier shared with Session
	// (snapshot.go). Its refresh lock is taken before mu, never after.
	publisher

	// mu guards the shard bookkeeping (cache, sizes, generations, drift
	// counters) and serializes Mutate against the refresh build that reads
	// it.
	mu sync.Mutex
	// lastEps is the width the cache was gathered for (shard width
	// lastEps/2); a Refresh at a different width forces every shard dirty.
	lastEps float64
	// cache[i] is shard i's last gathered summary (reconstituted via
	// NewSummaryFromCuts), reused unmodified for clean shards at the next
	// merge; opsSince[i] counts mutation ops routed to shard i since
	// cache[i] was built — the per-shard drift the repair gate tests.
	cache    []*Summary
	gens     []uint64
	shardN   []int
	opsSince []uint64
	// scratch for refresh and mutation routing
	dirty    []bool
	gathered []shard.ShardSummary
	batches  [][]shard.Op
	sizes    []int

	// totalOps and generation mirror Session's drift accounting, atomic so
	// the lock-free query path can stamp staleness without taking mu. size
	// is the sum of shardN, stored whenever mu's holder changes it, so N
	// never waits on a gather.
	totalOps   atomic.Uint64
	generation atomic.Uint64
	size       atomic.Int64

	// check mirror (EnableCheck): per-shard value slices maintained under mu
	// by the same routing the real mutations take, plus a lazily built
	// whole-population oracle stamped with the generation it serves.
	mirror    [][]int64
	oracle    *stats.Oracle
	oracleGen uint64

	// in-process gang resources; nil/empty in client mode.
	tr       livenet.Transport
	sessions []*Session
	workers  sync.WaitGroup
}

// sessionBackend adapts a Session to the shard.Backend a worker drives: the
// root package provides the engine, internal/shard stays ignorant of it.
type sessionBackend struct {
	s    *Session
	muts []Mutation
}

// NewSessionBackend wraps s as a shard worker backend — what the `gossipq
// shard` command serves over a TCP peer transport. Rebuild runs the
// session's deterministic summary build (seeded from the session seed and
// its build count) and ships node 0's cut envelope; Apply commits mutation
// batches atomically; Info reports size, generation, and drift.
func NewSessionBackend(s *Session) shard.Backend { return &sessionBackend{s: s} }

func (b *sessionBackend) Rebuild(eps float64) ([]int64, int, uint64, error) {
	// ForceRefresh, not Refresh: the router already made the dirty decision
	// for this epoch, and an unconditional build keeps the shard's refresh
	// count — and hence its build seeds — a pure function of the epochs the
	// router asked for, identical across transports.
	if _, err := b.s.ForceRefresh(eps); err != nil {
		return nil, 0, 0, err
	}
	p := b.s.snap.Load()
	if p == nil {
		return nil, 0, 0, errors.New("gossipq: refresh published no snapshot")
	}
	return p.sum.EnvelopeView(0, nil), p.n, p.gen, nil
}

func (b *sessionBackend) Apply(ops []shard.Op) (int, uint64, error) {
	b.muts = b.muts[:0]
	for _, op := range ops {
		m := Mutation{Index: op.Index, Value: op.Value}
		switch op.Kind {
		case shard.OpInsert:
			m.Op = OpInsert
		case shard.OpDelete:
			m.Op = OpDelete
		case shard.OpUpdate:
			m.Op = OpUpdate
		default:
			return 0, 0, fmt.Errorf("gossipq: unknown shard op kind %d", op.Kind)
		}
		b.muts = append(b.muts, m)
	}
	gen, err := b.s.Mutate(b.muts)
	if err != nil {
		return 0, 0, err
	}
	return b.s.N(), gen, nil
}

func (b *sessionBackend) Info() (int, uint64, uint64) {
	if info, ok := b.s.Snapshot(); ok {
		return b.s.N(), b.s.Generation(), info.Drift
	}
	return b.s.N(), b.s.Generation(), b.s.MutationOps()
}

// NewShardedSession partitions values across shards in-process sessions —
// shard i gets the contiguous slice shard.Partition(len(values), shards, i)
// and the derived seed shard.SeedFor(cfg.Seed, i) — and starts one worker
// goroutine per shard over a chan transport, with refresh epochs
// synchronized on the lockstep merge barrier. The values slice is copied.
// Close releases the gang.
func NewShardedSession(values []int64, shards int, cfg Config) (*ShardedSession, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gossipq: %d shards, want >= 1", shards)
	}
	if len(values) < 2*shards {
		return nil, fmt.Errorf("%w: %d values across %d shards", errShardTooSmall, len(values), shards)
	}
	if cfg.failing(len(values)) {
		return nil, errShardedFailures
	}
	tr := livenet.NewChanTransport(shards + 1)
	bar := &shard.Barrier{}
	ss := newSharded(shards, cfg)
	ss.tr = tr
	// In-process workers cannot vanish without the transport closing (which
	// unblocks the router's waits immediately), so the epoch deadline is a
	// hang backstop rather than failure detection: a 2^22-value shard build
	// legitimately runs for minutes on a loaded box, and the router's 60s
	// TCP-deployment default would misread it as a dead shard.
	ss.router = shard.NewRouter(tr, shards, time.Hour, bar, nil)
	ss.sessions = make([]*Session, shards)
	for i := 0; i < shards; i++ {
		lo, hi := shard.Partition(len(values), shards, i)
		scfg := cfg
		scfg.Seed = shard.SeedFor(cfg.Seed, i)
		sess, err := NewSession(values[lo:hi], scfg)
		if err != nil {
			tr.Close()
			return nil, fmt.Errorf("gossipq: shard %d: %w", i, err)
		}
		ss.sessions[i] = sess
		ss.shardN[i] = hi - lo
		ss.size.Add(int64(hi - lo))
		w := shard.NewWorker(i, tr, NewSessionBackend(sess), bar)
		ss.workers.Add(1)
		go func() {
			defer ss.workers.Done()
			w.Run()
		}()
	}
	return ss, nil
}

// NewShardedClient builds a sharded session over remote workers — the
// separate-process deployment, where each shard runs `gossipq shard` and tr
// is the router's peer transport (livenet.NewTCPPeerTransport at peer index
// shard.RouterPeer(shards)). addrs annotates health reports and errors with
// shard addresses; timeout bounds each shard's per-epoch answer (0 means the
// router's generous default). The client owns tr and closes it on Close.
// Shard sizes are unknown until the first refresh or mutation reaches each
// shard.
func NewShardedClient(tr livenet.Transport, shards int, addrs []string, timeout time.Duration, cfg Config) (*ShardedSession, error) {
	if shards < 1 {
		return nil, fmt.Errorf("gossipq: %d shards, want >= 1", shards)
	}
	ss := newSharded(shards, cfg)
	ss.tr = tr
	ss.router = shard.NewRouter(tr, shards, timeout, nil, addrs)
	return ss, nil
}

func newSharded(shards int, cfg Config) *ShardedSession {
	ss := &ShardedSession{
		cfg:      cfg,
		shards:   shards,
		cache:    make([]*Summary, shards),
		gens:     make([]uint64, shards),
		shardN:   make([]int, shards),
		opsSince: make([]uint64, shards),
		dirty:    make([]bool, shards),
		batches:  make([][]shard.Op, shards),
		sizes:    make([]int, shards),
	}
	ss.src = ss
	return ss
}

// Shards returns the worker count S.
func (ss *ShardedSession) Shards() int { return ss.shards }

// N returns the total population size as currently known — the sum of
// per-shard sizes, updated by refreshes and mutation acks. In client mode it
// is zero until the first refresh contacts the shards.
func (ss *ShardedSession) N() int { return int(ss.size.Load()) }

// storeSize republishes the sum of shardN for N; callers hold mu.
func (ss *ShardedSession) storeSize() {
	n := 0
	for _, k := range ss.shardN {
		n += k
	}
	ss.size.Store(int64(n))
}

// Generation returns the sharded population generation: zero at
// construction, incremented by every successful Mutate call.
func (ss *ShardedSession) Generation() uint64 { return ss.generation.Load() }

// MutationOps returns the total number of mutation operations applied
// through this session — the accumulated drift unit.
func (ss *ShardedSession) MutationOps() uint64 { return ss.totalOps.Load() }

// markDirtyLocked fills ss.dirty for a refresh at width eps — every shard
// when force is set or the width changed, otherwise the shards with no
// cached summary or with drift at their budget — and returns how many are
// dirty; callers hold mu.
func (ss *ShardedSession) markDirtyLocked(eps float64, force bool) int {
	force = force || ss.lastEps != eps
	need := 0
	for i := range ss.dirty {
		ss.dirty[i] = force || ss.cache[i] == nil ||
			ss.opsSince[i] >= driftBudget(eps/2, ss.shardN[i])
		if ss.dirty[i] {
			need++
		}
	}
	return need
}

// stale is the sharded repair gate: the standing merged snapshot must be
// rebuilt once any shard is dirty.
func (ss *ShardedSession) stale(eps float64, _ *snapshot) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.markDirtyLocked(eps, false) > 0
}

// build gathers the dirty shards' summaries at width eps/2 and merges all S
// at width eps. With no shard dirty (a clean cache but nothing published at
// this width, e.g. the first refresh after a client restart) it merges the
// cache without contacting anyone.
func (ss *ShardedSession) build(eps float64, force bool, _ uint64) (*snapshot, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.markDirtyLocked(eps, force) > 0 {
		got, err := ss.router.Gather(eps/2, ss.dirty, ss.gathered[:0])
		if err != nil {
			return nil, err
		}
		ss.gathered = got[:0]
		for _, g := range got {
			sum, err := NewSummaryFromCuts(g.Eps, g.N, g.Cuts)
			if err != nil {
				return nil, fmt.Errorf("gossipq: shard %d summary: %w", g.Shard, err)
			}
			ss.cache[g.Shard] = sum
			ss.gens[g.Shard] = g.Gen
			ss.shardN[g.Shard] = g.N
			ss.opsSince[g.Shard] = 0
		}
		ss.storeSize()
	}
	merged := mergeSummaries(ss.cache, eps)
	ss.lastEps = eps
	return &snapshot{
		sum: merged, gen: ss.generation.Load(), ops: ss.totalOps.Load(),
		n: merged.n, budget: driftBudget(eps, merged.n),
	}, nil
}

// Ask answers one approximate query from the merged summary. When the
// standing snapshot cannot serve it — none published, width not covered, or
// drift over budget — Ask runs one synchronous drift-gated Refresh at the
// requested width and answers from the result; there is no per-query live
// path across shards (that is the point of the tier: the cross-shard gossip
// is paid per refresh, not per query). Exact queries are refused — they need
// the whole population on one engine; q.Mode is ignored, answers always
// report ServeSnapshot.
func (ss *ShardedSession) Ask(q Query) (Answer, error) {
	if err := validateShardedQuery(q); err != nil {
		return Answer{}, err
	}
	// A miss here is what ShardedStats.QueryRefreshes counts.
	if ans, ok := ss.answer(q); ok {
		return ans, nil
	}
	if _, err := ss.Refresh(q.Eps); err != nil {
		return Answer{}, err
	}
	if ans, ok := ss.snap.Load().answer(q, ss.totalOps.Load()); ok {
		ss.answered.Add(1)
		return ans, nil
	}
	// Unreachable in practice: a successful Refresh at q.Eps publishes a
	// zero-drift snapshot at exactly q.Eps.
	return Answer{}, errors.New("gossipq: refreshed snapshot cannot serve the query")
}

// ApproxQuantile answers one approximate query — Ask in positional form.
func (ss *ShardedSession) ApproxQuantile(phi, eps float64) (Answer, error) {
	return ss.Ask(Query{Phi: phi, Eps: eps})
}

// Batch answers the queries in order; see Ask for the serving policy. The
// answers slice is freshly allocated; per-query runtime failures are
// recorded in Answer.Err. A validation error on any query fails the whole
// batch before any query runs.
func (ss *ShardedSession) Batch(qs []Query) ([]Answer, error) {
	return ss.BatchInto(nil, qs)
}

// BatchInto is Batch appending into dst, for serving loops recycling answer
// slices.
func (ss *ShardedSession) BatchInto(dst []Answer, qs []Query) ([]Answer, error) {
	for _, q := range qs {
		if err := validateShardedQuery(q); err != nil {
			return dst, err
		}
	}
	for _, q := range qs {
		ans, err := ss.Ask(q)
		ans.Err = err
		dst = append(dst, ans)
	}
	return dst, nil
}

func validateShardedQuery(q Query) error {
	if q.Exact {
		return errShardedExact
	}
	return validateQuery(q)
}

// locate maps a global index against the concatenation of the simulated
// shard sizes to (shard, local index).
func locate(sizes []int, g int) (int, int, error) {
	if g >= 0 {
		for i, s := range sizes {
			if g < s {
				return i, g, nil
			}
			g -= s
		}
	}
	return 0, 0, fmt.Errorf("%w: global index out of range", errMutIndex)
}

// Mutate routes a batch of mutations to their owning shards and applies
// them, returning the new generation. The global index space is the
// concatenation of the shard slices in shard order, and — as in
// Session.Mutate — each operation's Index is interpreted against the
// population as already edited by the preceding operations of the batch.
// Inserts go to the currently smallest shard (lowest index on ties), keeping
// the partition balanced; deletes swap-remove within the owning shard (the
// shard's own last value fills the hole — the local analogue of the
// session's global swap-remove, so indices are likewise not stable across
// deletes); every shard keeps at least 2 values.
//
// The whole batch is validated before anything is sent. Application is
// atomic per shard (one Session.Mutate batch each), not across shards: a
// shard failing mid-batch — only possible by going down — leaves earlier
// shards' sub-batches applied, and the error says so.
func (ss *ShardedSession) Mutate(muts []Mutation) (uint64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	defer ss.storeSize()
	if ss.closed.Load() {
		return ss.generation.Load(), errSessionClosed
	}
	if len(muts) == 0 {
		return ss.generation.Load(), nil
	}
	sizes := append(ss.sizes[:0], ss.shardN...)
	ss.sizes = sizes
	for i := range ss.batches {
		ss.batches[i] = ss.batches[i][:0]
	}
	for k, m := range muts {
		switch m.Op {
		case OpInsert:
			tgt := 0
			for i := 1; i < len(sizes); i++ {
				if sizes[i] < sizes[tgt] {
					tgt = i
				}
			}
			ss.batches[tgt] = append(ss.batches[tgt], shard.Op{Kind: shard.OpInsert, Value: m.Value})
			sizes[tgt]++
		case OpDelete:
			i, local, err := locate(sizes, m.Index)
			if err != nil {
				return ss.generation.Load(), fmt.Errorf("op %d: %w", k, err)
			}
			if sizes[i] <= 2 {
				return ss.generation.Load(), fmt.Errorf("op %d: %w (shard %d at n=%d)", k, errMutShrink, i, sizes[i])
			}
			ss.batches[i] = append(ss.batches[i], shard.Op{Kind: shard.OpDelete, Index: local})
			sizes[i]--
		case OpUpdate:
			i, local, err := locate(sizes, m.Index)
			if err != nil {
				return ss.generation.Load(), fmt.Errorf("op %d: %w", k, err)
			}
			ss.batches[i] = append(ss.batches[i], shard.Op{Kind: shard.OpUpdate, Index: local, Value: m.Value})
		default:
			return ss.generation.Load(), fmt.Errorf("op %d: %w (%d)", k, errMutOp, m.Op)
		}
	}
	applied := 0
	for i, b := range ss.batches {
		if len(b) == 0 {
			continue
		}
		n, gen, err := ss.router.Mutate(i, b)
		if err != nil {
			if applied > 0 {
				return ss.generation.Load(), fmt.Errorf("gossipq: shard %d failed after %d shards applied their sub-batches: %w", i, applied, err)
			}
			return ss.generation.Load(), fmt.Errorf("gossipq: shard %d: %w", i, err)
		}
		ss.shardN[i] = n
		ss.gens[i] = gen
		ss.opsSince[i] += uint64(len(b))
		ss.mirrorApply(i, b)
		applied++
	}
	ss.totalOps.Add(uint64(len(muts)))
	return ss.generation.Add(1), nil
}

// Insert appends v to the population (routed to the smallest shard) and
// returns the new generation.
func (ss *ShardedSession) Insert(v int64) (uint64, error) {
	return ss.Mutate([]Mutation{{Op: OpInsert, Value: v}})
}

// Delete swap-removes the value at global index i within its owning shard
// and returns the new generation.
func (ss *ShardedSession) Delete(i int) (uint64, error) {
	return ss.Mutate([]Mutation{{Op: OpDelete, Index: i}})
}

// Update overwrites the value at global index i with v and returns the new
// generation.
func (ss *ShardedSession) Update(i int, v int64) (uint64, error) {
	return ss.Mutate([]Mutation{{Op: OpUpdate, Index: i, Value: v}})
}

// EnableCheck installs a verification mirror: a copy of every shard's value
// slice, maintained by the exact routing real mutations take, from which an
// exact whole-population oracle is built lazily per generation. values must
// be the same whole population the workers loaded (the caller regenerates it
// deterministically in client mode); it is copied. Intended for harnesses
// and the query server's -check mode — the mirror costs O(n) memory, which
// is why it is opt-in.
func (ss *ShardedSession) EnableCheck(values []int64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.mirror = make([][]int64, ss.shards)
	for i := range ss.mirror {
		lo, hi := shard.Partition(len(values), ss.shards, i)
		ss.mirror[i] = append([]int64(nil), values[lo:hi]...)
	}
	ss.oracle, ss.oracleGen = nil, 0
}

// mirrorApply replays shard i's applied sub-batch on the check mirror,
// matching Session.applyLocked semantics op for op; callers hold mu.
func (ss *ShardedSession) mirrorApply(i int, b []shard.Op) {
	if ss.mirror == nil {
		return
	}
	vals := ss.mirror[i]
	for _, op := range b {
		switch op.Kind {
		case shard.OpInsert:
			vals = append(vals, op.Value)
		case shard.OpDelete:
			last := len(vals) - 1
			vals[op.Index] = vals[last]
			vals = vals[:last]
		case shard.OpUpdate:
			vals[op.Index] = op.Value
		}
	}
	ss.mirror[i] = vals
	ss.oracle = nil
}

// ensureOracleLocked returns the mirror-backed exact oracle, rebuilding it
// when a mutation has invalidated the cached copy; callers hold mu.
func (ss *ShardedSession) ensureOracleLocked() (*stats.Oracle, error) {
	if ss.mirror == nil {
		return nil, errShardedNoCheck
	}
	gen := ss.generation.Load()
	if ss.oracle == nil || ss.oracleGen != gen+1 {
		all := make([]int64, 0)
		for _, vals := range ss.mirror {
			all = append(all, vals...)
		}
		ss.oracle = stats.NewOracle(all)
		ss.oracleGen = gen + 1
	}
	return ss.oracle, nil
}

// Verify reports whether x is an acceptable ε-approximate φ-quantile of the
// current whole sharded population, from the check mirror's exact oracle.
// It fails unless EnableCheck installed a mirror.
func (ss *ShardedSession) Verify(x int64, phi, eps float64) (bool, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	o, err := ss.ensureOracleLocked()
	if err != nil {
		return false, err
	}
	return o.WithinEpsilon(x, phi, eps), nil
}

// OracleQuantile returns the exact ⌈φn⌉-smallest value of the current whole
// sharded population from the check mirror's oracle.
func (ss *ShardedSession) OracleQuantile(phi float64) (int64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	o, err := ss.ensureOracleLocked()
	if err != nil {
		return 0, err
	}
	return o.Quantile(phi), nil
}

// Health pings every shard and returns their reports in shard order: size,
// generation, drift since the shard's last summary build, and — in client
// mode — address. A shard that does not answer fails the whole call with
// ShardDownError (the serving layer's 503).
func (ss *ShardedSession) Health() ([]shard.Health, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed.Load() {
		return nil, errSessionClosed
	}
	out := make([]shard.Health, ss.shards)
	for i := 0; i < ss.shards; i++ {
		h, err := ss.router.Ping(i)
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}

// Generations returns the per-shard generation vector as last observed by
// refreshes and mutation acks — the healthz drift report's companion.
func (ss *ShardedSession) Generations() []uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]uint64(nil), ss.gens...)
}

// Stats returns the sharded session's instrumentation counters; no read
// waits on a running gather.
func (ss *ShardedSession) Stats() ShardedStats {
	rst := ss.router.Stats()
	return ShardedStats{
		Shards:            ss.shards,
		SnapshotQueries:   ss.answered.Load(),
		QueryRefreshes:    ss.missed.Load(),
		Refreshes:         ss.refreshes.Load(),
		RefreshesSkipped:  ss.skipped.Load(),
		Epochs:            rst.Epochs,
		HopsPerEpoch:      rst.HopsPerEpoch,
		Generation:        ss.generation.Load(),
		MutationOps:       ss.totalOps.Load(),
		RefreshBuildTotal: time.Duration(ss.buildNanos.Load()),
		LastRefreshBuild:  time.Duration(ss.lastBuildNanos.Load()),
	}
}

// Close stops the background refresher (if any), closes the transport —
// which in gang mode ends every worker goroutine — and marks the session
// closed. Published snapshots keep serving queries; refreshes and mutations
// fail. Close is idempotent.
func (ss *ShardedSession) Close() error {
	if !ss.shutdown() {
		return nil
	}
	// Mutate and Health check closed under mu: taking it here lets an
	// in-flight call finish before the transport goes.
	ss.mu.Lock()
	if ss.tr != nil {
		ss.tr.Close()
	}
	ss.mu.Unlock()
	ss.workers.Wait()
	for _, s := range ss.sessions {
		s.Close()
	}
	return nil
}
