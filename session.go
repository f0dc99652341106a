package gossipq

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gossipq/internal/dist"
	"gossipq/internal/exact"
	"gossipq/internal/sim"
	"gossipq/internal/stats"
	"gossipq/internal/tournament"
	"gossipq/internal/xrand"
)

// Session amortizes per-query setup across many quantile computations over
// one population. Construction loads the values once (a private copy); the
// population can then mutate in place through the churn API (Insert, Delete,
// Update, Mutate — see mutate.go), with every live query running on the
// post-mutation population. The tie-breaking distinctification for exact
// queries and the centralized verification oracle are each built lazily and
// re-built lazily after a mutation invalidates them. Every query
// then runs on an engine seeded deterministically from (session seed, query
// id) — ids are assigned by an atomic counter, so a query's transcript is a
// pure function of the session seed, its id, and its parameters — using an
// engine/scratch rig checked out of a sync.Pool: the engine is reseeded in
// place (sim.Engine.Reset), the protocol scratches are re-bound to it
// (sim.Workspace.Rebind), and all per-run protocol state (value
// double-buffers, pull staging, push-sum pairs, token tables, schedule
// plans) is drawn from the rig. Steady-state queries therefore perform zero
// protocol-state allocations once the pool is warm.
//
// A Session is safe for arbitrary goroutine concurrency: concurrent queries
// check out distinct rigs and never share mutable state. (If
// Config.OnIteration is set, it may accordingly be invoked from multiple
// goroutines at once.) The one-shot package functions (ApproxQuantile,
// ExactQuantile, Median) are thin wrappers over a throwaway session and
// produce bit-for-bit the transcripts they produced before sessions
// existed.
//
// On top of the live path, a session can publish a versioned ε-summary
// snapshot (Refresh, StartRefresher) that ServeSnapshot queries read
// lock-free and allocation-free — the serving tier that turns "one
// protocol run per query" into "one grid build per monitoring interval";
// see snapshot.go.
type Session struct {
	cfg    Config
	values []int64
	n      int

	// popMu guards the population itself (values, n) against the mutation
	// API (mutate.go): queries hold the read side for their whole protocol
	// run, mutations take the write side. generation counts successful
	// mutation calls and mutOps counts individual applied operations (the
	// drift unit: one op shifts any value's rank by at most one); both are
	// written only under popMu's write lock but read lock-free by the
	// snapshot serving path and telemetry.
	popMu      sync.RWMutex
	generation atomic.Uint64
	mutOps     atomic.Uint64

	// rawSeed marks the one-shot wrapper mode: the single query runs on an
	// engine seeded with cfg.Seed itself, exactly as the pre-session facade
	// did, rather than with a (seed, id)-derived stream.
	rawSeed bool
	seeds   xrand.Source
	nextID  atomic.Uint64

	// cacheMu guards the generation-stamped derived caches: the §2
	// distinctified values for exact queries and the verification oracle.
	// Each cache records the generation it was built for (stored as
	// generation+1 so the zero value means "never built") and is rebuilt
	// lazily after a mutation invalidates it. Lock order: popMu before
	// cacheMu; mutations never take cacheMu.
	cacheMu     sync.Mutex
	distinct    []int64
	mult        int64
	distinctGen uint64
	oracle      *stats.Oracle
	oracleGen   uint64

	pool sync.Pool // *queryRig

	// publisher is the snapshot serving tier (snapshot.go): the current
	// versioned ε-summary behind lock-free reads, the refresh/refresher
	// lifecycle, and the snapshot counters.
	publisher

	// qstats is the session's own telemetry: plain atomic counters bumped on
	// the query and mutation paths, exported as a consistent-enough snapshot
	// by Stats. Keeping them session-owned (rather than telemetry.Registry
	// series) means the serving layer exports them via scrape-time collector
	// functions and the record path stays a single atomic add.
	qstats sessionStats
}

// sessionStats holds the session's atomic instrumentation counters. Every
// increment is one atomic add: no locks, no allocations, so the pooled-rig
// zero-alloc steady state is unaffected.
type sessionStats struct {
	liveQueries  atomic.Int64
	exactQueries atomic.Int64
	inserts      atomic.Int64
	deletes      atomic.Int64
	updates      atomic.Int64
}

// SessionStats is a point-in-time reading of a session's query and snapshot
// instrumentation (Session.Stats).
type SessionStats struct {
	// LiveQueries counts approximate queries answered by a live tournament
	// run (including snapshot fallbacks that landed here).
	LiveQueries int64
	// ExactQueries counts queries answered by the exact algorithm — requested
	// exact, or small-ε substitutions.
	ExactQueries int64
	// SnapshotQueries counts queries answered from the published ε-summary.
	SnapshotQueries int64
	// SnapshotFallbacks counts ServeSnapshot requests that fell back to a
	// live run (no snapshot published, or summary wider than requested).
	// Each such query is also counted in LiveQueries or ExactQueries.
	SnapshotFallbacks int64
	// Refreshes counts completed snapshot builds.
	Refreshes uint64
	// RefreshBuildTotal and LastRefreshBuild meter the wall-clock cost of
	// summary builds — the "pay once per monitoring interval" side of the
	// snapshot trade.
	RefreshBuildTotal time.Duration
	LastRefreshBuild  time.Duration
	// Inserts, Deletes, and Updates count applied mutation operations by
	// kind; Generation counts successful mutation calls (a batched Mutate is
	// one generation step).
	Inserts    int64
	Deletes    int64
	Updates    int64
	Generation uint64
	// RefreshesSkipped counts drift-gated Refresh calls that served the
	// standing snapshot instead of rebuilding — the "repair deferred because
	// the εn bound is not threatened" outcome. Refreshes counts the builds
	// that did run.
	RefreshesSkipped int64
}

// Stats returns the session's instrumentation counters. Counters are read
// individually (not as one consistent cut), which is fine for the telemetry
// scrapes and health endpoints this feeds; no read waits on a running
// rebuild.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		LiveQueries:       s.qstats.liveQueries.Load(),
		ExactQueries:      s.qstats.exactQueries.Load(),
		SnapshotQueries:   s.answered.Load(),
		SnapshotFallbacks: s.missed.Load(),
		Refreshes:         s.refreshes.Load(),
		RefreshBuildTotal: time.Duration(s.buildNanos.Load()),
		LastRefreshBuild:  time.Duration(s.lastBuildNanos.Load()),
		Inserts:           s.qstats.inserts.Load(),
		Deletes:           s.qstats.deletes.Load(),
		Updates:           s.qstats.updates.Load(),
		Generation:        s.generation.Load(),
		RefreshesSkipped:  s.skipped.Load(),
	}
}

// queryRig is one engine plus every protocol scratch bound to it — the unit
// the session pool hands to a query. The exact-algorithm scratch is built on
// first exact query so approximate-only sessions never pay for it.
type queryRig struct {
	e    *sim.Engine
	tour *tournament.Scratch
	ex   *exact.Scratch
}

// querySeedTag namespaces the per-query engine seeds within the session
// seed's derivation tree ("Qery"), so query streams never collide with any
// other use of the seed.
const querySeedTag = 0x51657279

// Query describes one quantile computation for Session.Batch.
type Query struct {
	// Phi is the quantile target in [0, 1].
	Phi float64
	// Eps is the approximation width; must be positive unless Exact is set.
	// As with the one-shot ApproxQuantile, widths below the tournament
	// validity region substitute the exact algorithm.
	Eps float64
	// Exact requests the Theorem 1.1 exact algorithm; Eps is then ignored.
	Exact bool
	// Mode selects live or snapshot serving for approximate queries; the
	// zero value is ServeLive. See ServeMode for the fallback rules.
	Mode ServeMode
}

// Answer is the outcome of one session query.
type Answer struct {
	// QueryID is the session-unique id the query ran under. Re-running the
	// same parameters under the same id on a session with the same Config
	// reproduces the answer bit-for-bit. Snapshot-served answers consume no
	// id and leave QueryID zero — their provenance is SnapshotVersion.
	QueryID uint64
	// Value is the answer: for exact queries the exact ⌈φn⌉-smallest value;
	// for approximate queries the output of the lowest-numbered covered
	// node (node 0 unless failures are configured), any node's output being
	// a valid ±εn answer.
	Value int64
	// Covered is the number of nodes holding an output — n except under a
	// failure model (Theorem 1.4).
	Covered int
	// Metrics is the query's complexity accounting.
	Metrics Metrics
	// Err records a per-query runtime failure in Batch results; single-query
	// methods return it as their error instead.
	Err error
	// Mode reports how the query was actually served: ServeLive answers ran
	// a gossip protocol under QueryID; ServeSnapshot answers are local
	// lookups against the published ε-summary, whose entire gossip cost was
	// paid by the build — their Metrics is all-zero.
	Mode ServeMode
	// SnapshotVersion is the snapshot generation that served a
	// ServeSnapshot answer (zero for live answers).
	SnapshotVersion uint64
	// Generation is the population version the answer is valid for: for live
	// answers, the session generation the protocol ran on; for snapshot
	// answers, the generation the serving summary was built from — possibly
	// older than the session's current generation (stale-but-within-ε
	// serving; see SnapshotDrift).
	Generation uint64
	// SnapshotDrift is the number of mutation operations applied after the
	// serving snapshot was built (zero for live answers): the answer's
	// staleness in rank-error units. The snapshot path only serves while
	// drift stays within the summary's drift budget, so a snapshot answer is
	// still a valid ±εn answer for the *current* population.
	SnapshotDrift uint64
}

// errNoOutputs is returned when a failure model left no node with an output
// (possible only at extreme failure rates with ExtraRounds = 0).
var errNoOutputs = errors.New("gossipq: no node produced an output")

// NewSession loads values into a session. The slice is copied; the caller
// may reuse it. Config semantics match the one-shot functions: Seed drives
// all randomness (per query, via the query id), Failures/Workers/K/
// ExtraRounds apply to every query.
func NewSession(values []int64, cfg Config) (*Session, error) {
	if err := validate(values, 0, cfg); err != nil {
		return nil, err
	}
	owned := make([]int64, len(values))
	copy(owned, values)
	return newSession(owned, cfg, false), nil
}

// newOneShot wraps values (borrowed, not copied — the session never outlives
// the call) in a raw-seed throwaway session for the one-shot facade
// functions.
func newOneShot(values []int64, cfg Config) *Session {
	return newSession(values, cfg, true)
}

func newSession(values []int64, cfg Config, rawSeed bool) *Session {
	s := &Session{
		cfg:     cfg,
		values:  values,
		n:       len(values),
		rawSeed: rawSeed,
		seeds:   xrand.NewSource(cfg.Seed).Sub(querySeedTag),
	}
	s.src = s
	return s
}

// N returns the current population size.
func (s *Session) N() int {
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	return s.n
}

// Generation returns the session's population generation: zero at
// construction, incremented by every successful mutation call (mutate.go).
func (s *Session) Generation() uint64 { return s.generation.Load() }

// MutationOps returns the total number of mutation operations ever applied —
// the session's accumulated drift unit (each operation shifts any value's
// rank by at most one).
func (s *Session) MutationOps() uint64 { return s.mutOps.Load() }

// QueriesIssued returns how many query ids have been assigned so far.
func (s *Session) QueriesIssued() uint64 { return s.nextID.Load() }

func (s *Session) seedFor(id uint64) uint64 {
	if s.rawSeed {
		return s.cfg.Seed
	}
	return s.seeds.StreamSeed(id)
}

// checkout takes a rig from the pool, building one on a cold pool. A rig's
// scratches are created bound to the rig's own engine and the pairing never
// changes — per-query "setup" is exactly one Engine.Reset in the run paths.
// (Scratch.Rebind exists for callers that hop one scratch across engines,
// e.g. the conformance runner; rigs don't.)
func (s *Session) checkout() *queryRig {
	r, _ := s.pool.Get().(*queryRig)
	if r == nil {
		e := s.cfg.engine(s.n)
		r = &queryRig{e: e, tour: tournament.NewScratch(e)}
	}
	return r
}

func (s *Session) release(r *queryRig) { s.pool.Put(r) }

// prewarmSeedTag namespaces Prewarm's throwaway warm-run seeds ("Warm"),
// disjoint from the query-id stream and the snapshot refresh stream, so
// prewarming perturbs no live transcript.
const prewarmSeedTag = 0x5761726d

// Prewarm builds k query rigs, runs one discarded approximate query on each
// to grow their lazy round buffers and plan caches, and parks them in the
// pool — so a server expecting k concurrent clients pays the O(n) setup at
// startup instead of on the first k overlapping queries. Without it the pool
// warms to the peak *observed* concurrency one multi-MB miss at a time (rig
// construction plus the first query's buffer growth), which shows up as
// hundreds of KB of amortized allocation per query in concurrent benchmarks
// long after the serial steady state has reached zero. Prewarming consumes
// no query ids: warm runs are seeded from a private namespace and their
// answers discarded. Extra rigs beyond the actual concurrency are reclaimed
// by the GC like any other pooled value. The exact algorithm's larger
// scratch stays lazy.
func (s *Session) Prewarm(k int) {
	warmSeeds := xrand.NewSource(s.cfg.Seed).Sub(prewarmSeedTag)
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	rigs := make([]*queryRig, 0, k)
	for i := 0; i < k; i++ {
		rig := s.checkout()
		rigs = append(rigs, rig)
		s.reseed(rig, warmSeeds.StreamSeed(uint64(i)))
		// Exercise the path live queries take on this configuration; the
		// widest valid eps keeps the warm run as short as possible while
		// touching every per-node buffer.
		// OnIteration stays nil: warm runs are invisible to per-query
		// callbacks (a RoundObserver, being engine-level, does see them).
		if s.cfg.failing(s.n) {
			rig.tour.RobustApproxQuantile(s.values, 0.5, 0.25, tournament.RobustOptions{
				K:           s.cfg.K,
				ExtraRounds: s.cfg.ExtraRounds,
			})
		} else {
			rig.tour.ApproxQuantile(s.values, 0.5, 0.25, tournament.Options{K: s.cfg.K})
		}
	}
	for _, r := range rigs {
		s.release(r)
	}
}

func (r *queryRig) exactScratch() *exact.Scratch {
	if r.ex == nil {
		r.ex = exact.NewScratch(r.e)
	}
	return r.ex
}

// reseed prepares a rig's engine for a run over the session's current
// population (popMu must be held, read or write): a plain in-place Reset
// when the rig is already at the right population, an in-place Resize plus
// scratch re-bind when a mutation changed n since this rig last ran.
func (s *Session) reseed(rig *queryRig, seed uint64) {
	if rig.e.N() == s.n {
		rig.e.Reset(seed)
		return
	}
	rig.e.Resize(s.n, seed)
	rig.tour.Rebind(rig.e)
	if rig.ex != nil {
		rig.ex.Rebind(rig.e)
	}
}

// ensureDistinct returns the §2 tie-breaking reduction of the current
// population, rebuilding it when a mutation has invalidated the cached copy.
// popMu must be held (read or write).
func (s *Session) ensureDistinct() ([]int64, int64) {
	gen := s.generation.Load()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.distinctGen != gen+1 {
		s.distinct, s.mult = dist.MakeDistinct(s.values)
		s.distinctGen = gen + 1
	}
	return s.distinct, s.mult
}

// ensureOracle returns the centralized order-statistics oracle for the
// current population, rebuilding it when a mutation has invalidated the
// cached copy. popMu must be held (read or write).
func (s *Session) ensureOracle() *stats.Oracle {
	gen := s.generation.Load()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.oracleGen != gen+1 {
		s.oracle = stats.NewOracle(s.values)
		s.oracleGen = gen + 1
	}
	return s.oracle
}

// Verify reports whether x is an acceptable ε-approximate φ-quantile of the
// session's current values, using the lazily built exact oracle (rebuilt
// after mutations). Intended for harnesses and serving-side answer checks;
// the first call per generation pays the O(n log n) oracle sort.
func (s *Session) Verify(x int64, phi, eps float64) bool {
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	return s.ensureOracle().WithinEpsilon(x, phi, eps)
}

// OracleQuantile returns the exact ⌈φn⌉-smallest value of the current
// population from the lazily built centralized oracle — the ground truth
// session queries are checked against.
func (s *Session) OracleQuantile(phi float64) int64 {
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	return s.ensureOracle().Quantile(phi)
}

func validateQuery(q Query) error {
	if q.Phi < 0 || q.Phi > 1 || math.IsNaN(q.Phi) {
		return fmt.Errorf("%w, got %v", errBadPhi, q.Phi)
	}
	if !q.Exact && (q.Eps <= 0 || math.IsNaN(q.Eps)) {
		return fmt.Errorf("%w, got %v", errBadEps, q.Eps)
	}
	return nil
}

// ApproxQuantile answers one approximate query (Theorem 1.2): the returned
// Value's rank is within ±εn of ⌈φn⌉ w.h.p.
func (s *Session) ApproxQuantile(phi, eps float64) (Answer, error) {
	return s.one(Query{Phi: phi, Eps: eps})
}

// ExactQuantile answers one exact query (Theorem 1.1): the returned Value
// is the exact ⌈φn⌉-smallest value w.h.p.
func (s *Session) ExactQuantile(phi float64) (Answer, error) {
	return s.one(Query{Phi: phi, Exact: true})
}

// Ask answers one query described by q — the Query-struct form of
// ApproxQuantile/ExactQuantile, which is how serving layers select a
// ServeMode per request.
func (s *Session) Ask(q Query) (Answer, error) {
	return s.one(q)
}

func (s *Session) one(q Query) (Answer, error) {
	if err := validateQuery(q); err != nil {
		return Answer{}, err
	}
	if ans, ok := s.snapshotAnswer(q); ok {
		return ans, nil
	}
	// The read lock covers id assignment and the whole protocol run, so a
	// live answer is always computed on one consistent population and its
	// ids are generation-ordered: a query under generation g always has a
	// smaller id than any query under generation g' > g.
	s.popMu.RLock()
	rig := s.checkout()
	ans := s.runOn(rig, s.nextID.Add(1)-1, q)
	s.popMu.RUnlock()
	s.release(rig)
	err := ans.Err
	ans.Err = nil
	return ans, err
}

// Batch answers the queries in order on one pooled rig, assigning
// consecutive ids to the live-served queries (interleaved with any
// concurrent callers' ids; snapshot-served queries consume none). The
// answers slice is freshly allocated; runtime failures are recorded
// per-answer in Err. A validation error on any query fails the whole batch
// before any query runs.
func (s *Session) Batch(qs []Query) ([]Answer, error) {
	return s.BatchInto(nil, qs)
}

// BatchInto is Batch appending into dst, for callers recycling answer
// slices in a zero-allocation serving loop.
func (s *Session) BatchInto(dst []Answer, qs []Query) ([]Answer, error) {
	for _, q := range qs {
		if err := validateQuery(q); err != nil {
			return dst, err
		}
	}
	// The rig is checked out lazily (and released without defer, which
	// would heap-allocate the captured variable): a batch fully served by
	// the snapshot never touches the pool at all. The population read lock
	// is taken per live query, not across the batch, so a long batch does
	// not starve mutators; consecutive answers of one batch may therefore
	// span generations (each reports its own Generation).
	var rig *queryRig
	for _, q := range qs {
		if ans, ok := s.snapshotAnswer(q); ok {
			dst = append(dst, ans)
			continue
		}
		s.popMu.RLock()
		if rig == nil {
			rig = s.checkout()
		}
		dst = append(dst, s.runOn(rig, s.nextID.Add(1)-1, q))
		s.popMu.RUnlock()
	}
	if rig != nil {
		s.release(rig)
	}
	return dst, nil
}

// runOn executes one query on a checked-out rig; the caller must hold popMu
// (read side suffices). The rig's engine is reseeded — and resized in place
// first, when a mutation changed the population since the rig last ran —
// for the query id, so the transcript depends only on (session seed, id,
// query, Config, population) — never on which pooled rig served it.
func (s *Session) runOn(rig *queryRig, id uint64, q Query) Answer {
	s.reseed(rig, s.seedFor(id))
	ans := Answer{QueryID: id, Generation: s.generation.Load()}
	if q.Exact || q.Eps < tournament.MinEps(s.n) {
		// Exact algorithm — requested, or substituted in the small-ε regime
		// exactly as the one-shot ApproxQuantile composes the two.
		s.qstats.exactQueries.Add(1)
		value, err := s.exactOn(rig, q.Phi)
		ans.Metrics = fromSim(rig.e.Metrics())
		if err != nil {
			ans.Err = err
			return ans
		}
		ans.Value = value
		ans.Covered = s.n
		return ans
	}
	s.qstats.liveQueries.Add(1)
	if s.cfg.failing(s.n) {
		res := rig.tour.RobustApproxQuantile(s.values, q.Phi, q.Eps, tournament.RobustOptions{
			K:           s.cfg.K,
			ExtraRounds: s.cfg.ExtraRounds,
			OnIteration: s.cfg.OnIteration,
		})
		ans.Metrics = fromSim(rig.e.Metrics())
		ans.Covered = res.Covered()
		found := false
		for v, h := range res.Has {
			if h {
				ans.Value = res.Output[v]
				found = true
				break
			}
		}
		if !found {
			ans.Err = errNoOutputs
		}
		return ans
	}
	out := rig.tour.ApproxQuantile(s.values, q.Phi, q.Eps, tournament.Options{
		K: s.cfg.K, OnIteration: s.cfg.OnIteration,
	})
	ans.Value = out[0]
	ans.Covered = s.n
	ans.Metrics = fromSim(rig.e.Metrics())
	return ans
}

// exactOn runs the exact algorithm over the session's distinctified values
// (cached per generation) and inverts the tie-breaking transform. popMu must
// be held.
func (s *Session) exactOn(rig *queryRig, phi float64) (int64, error) {
	distinct, mult := s.ensureDistinct()
	res, err := rig.exactScratch().Quantile(distinct, phi, exact.Options{K: s.cfg.K})
	if err != nil {
		return 0, err
	}
	return floorDiv(res.Value, mult), nil
}

// approxFull runs one approximate query returning the full per-node result
// the one-shot facade exposes. Plain/robust output slices are rig-owned,
// which is safe exactly because one-shot wrappers use throwaway sessions.
func (s *Session) approxFull(phi, eps float64) (ApproxResult, error) {
	if eps < tournament.MinEps(s.N()) {
		// Small-ε regime: Theorem 1.2 via the exact algorithm.
		ex, err := s.exactFull(phi)
		if err != nil {
			return ApproxResult{}, err
		}
		return ApproxResult{Outputs: ex.Outputs, Has: allTrue(len(ex.Outputs)), Metrics: ex.Metrics}, nil
	}
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	rig := s.checkout()
	defer s.release(rig)
	s.reseed(rig, s.seedFor(s.nextID.Add(1)-1))
	s.qstats.liveQueries.Add(1)
	if s.cfg.failing(s.n) {
		res := rig.tour.RobustApproxQuantile(s.values, phi, eps, tournament.RobustOptions{
			K:           s.cfg.K,
			ExtraRounds: s.cfg.ExtraRounds,
			OnIteration: s.cfg.OnIteration,
		})
		return ApproxResult{Outputs: res.Output, Has: res.Has, Metrics: fromSim(rig.e.Metrics())}, nil
	}
	out := rig.tour.ApproxQuantile(s.values, phi, eps, tournament.Options{K: s.cfg.K, OnIteration: s.cfg.OnIteration})
	return ApproxResult{Outputs: out, Has: allTrue(s.n), Metrics: fromSim(rig.e.Metrics())}, nil
}

// exactFull runs one exact query returning the full one-shot result shape.
func (s *Session) exactFull(phi float64) (ExactResult, error) {
	s.popMu.RLock()
	defer s.popMu.RUnlock()
	rig := s.checkout()
	defer s.release(rig)
	s.reseed(rig, s.seedFor(s.nextID.Add(1)-1))
	s.qstats.exactQueries.Add(1)
	value, err := s.exactOn(rig, phi)
	if err != nil {
		return ExactResult{}, err
	}
	return ExactResult{Value: value, Outputs: repeat(value, s.n), Metrics: fromSim(rig.e.Metrics())}, nil
}
