// Package sim implements the synchronous uniform-gossip round model of the
// paper: n nodes proceed in synchronized rounds, and in each round every
// node either pushes one message to, or pulls one message from, a uniformly
// random other node. Message sizes are accounted in bits so experiments can
// verify the O(log n) message-size discipline, and an optional failure model
// (§5) makes any node silently skip its operation in any round.
//
// The engine is deliberately mechanism-only: it supplies peer sampling,
// failure coins, and round/message/bit accounting, while protocol state
// lives in the algorithm packages. All randomness is drawn from per-node
// streams derived from one seed, so a simulation transcript is reproducible
// bit-for-bit regardless of GOMAXPROCS.
//
// Per-round delivery buffers live in a Workspace (see workspace.go), which a
// protocol allocates once per run and reuses across rounds, keeping the
// round loop free of per-round allocations.
package sim

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"gossipq/internal/xrand"
)

// NoPeer marks a failed pull in the destination slice of Pull.
const NoPeer int32 = -1

// minShardSpan is the smallest node span worth handing to a parallel worker:
// below ~2k nodes per shard, gang dispatch and cache handoff cost more than
// the sharded work saves. Worker shards are capped at n/minShardSpan, which
// also sets the parallel threshold — populations under 2*minShardSpan always
// run serial. Shard count never affects transcripts.
const minShardSpan = 2048

// maxSortShards caps the shard count of the parallel counting sort. The
// sort's histogram costs shards×n int32s of workspace memory and its merge
// costs O(shards×n/P) wall time, so the cap bounds both on many-core
// machines; eight shards saturate the memory bandwidth the scatter pass is
// limited by. Shard count never affects transcripts.
const maxSortShards = 8

// cacheLineWords spaces per-shard accumulator slots so concurrent shard
// writers never share a cache line.
const cacheLineWords = 8

// peerBlockNodes is the node count of one PullRounds block: a shard draws
// the k rounds' peers for peerBlockNodes nodes at a time and hands them to
// the caller's span function at once, so the block's RNG streams stay in L1
// across its k sweeps and the span reads the peers back from L1. Block size
// never affects transcripts.
const peerBlockNodes = 256

// Metrics is a snapshot of the engine's complexity accounting.
type Metrics struct {
	// Rounds is the number of synchronous gossip rounds executed.
	Rounds int
	// Messages is the number of messages successfully sent.
	Messages int64
	// Bits is the total message payload volume.
	Bits int64
	// MaxMessageBits is the largest single-message payload seen, the
	// quantity the paper bounds by O(log n).
	MaxMessageBits int
}

// Sub returns the difference m - prev, for metering a protocol phase.
//
// Rounds, Messages, and Bits subtract exactly. MaxMessageBits is cumulative,
// not additive, so the phase's true peak is only recoverable from snapshots
// when the phase raised it: in that case the result carries the new peak
// (every phase peak that sets a cumulative record was sent inside the
// phase). Otherwise the result's MaxMessageBits is 0, meaning "no new peak;
// the phase's largest message is unknown but at most prev.MaxMessageBits" —
// never an overstatement.
func (m Metrics) Sub(prev Metrics) Metrics {
	d := Metrics{
		Rounds:   m.Rounds - prev.Rounds,
		Messages: m.Messages - prev.Messages,
		Bits:     m.Bits - prev.Bits,
	}
	if m.MaxMessageBits > prev.MaxMessageBits {
		d.MaxMessageBits = m.MaxMessageBits
	}
	return d
}

// Engine drives synchronous gossip rounds over a fixed population.
type Engine struct {
	n       int
	src     xrand.Source
	rngs    []xrand.RNG // one stream per node
	fail    FailureModel
	noFail  bool // true iff fail is the NoFailures model (hot-path shortcut)
	workers int

	// peerBound/peerThresh are the Lemire bounded-draw parameters for peer
	// sampling (bound = n-1, thresh = 2^64 mod bound). They are fixed per
	// population, so hot loops inline the common-case draw (multiply + one
	// compare) and only call the out-of-line peerRedraw on rejection; the
	// draw sequence is identical to xrand's Uint64n.
	peerBound  uint64
	peerThresh uint64

	// bounds holds the contiguous node shards that parallel passes iterate
	// ([0, n] when serial); sortBounds is the possibly-coarser partition the
	// counting sort uses. Both are fixed at construction; neither affects
	// transcripts.
	bounds     []int
	sortBounds []int
	// shardAcc is the per-shard accumulator scratch (cache-line spaced) that
	// replaces mutex-guarded metric reduction in the round hot path.
	shardAcc []int64

	// Parallel dispatch state: the lazily started persistent worker gang
	// (gang.go), its reusable completion group, and the pre-built shard
	// functions with their parameter slots. Bound method values are built
	// once here so a round dispatches without allocating — fresh closures
	// passed toward a `go` statement heap-allocate even on serial branches,
	// the PR-4 lesson this layout exists to enforce.
	gang      *gang
	dispatch  sync.WaitGroup
	pullDst   []int32
	pullShard func(s, lo, hi int)
	seedShard func(s, lo, hi int)

	// PullRounds state: the round count and caller span parked for the
	// dispatch, the shard function that runs them, and per-shard scratch —
	// a peer block of peerBlockNodes×k int32s and one success count per
	// round, padded to whole cache lines. Both grow on first use and are
	// then reused.
	roundsK     int
	roundsSpan  func(s, lo, hi int, peers []int32)
	roundsShard func(s, lo, hi int)
	peerBlocks  []int32
	roundAcc    []int64

	round    int
	messages int64
	bits     int64
	maxBits  int

	// obs, when non-nil, receives one RoundEvent per accounting step; phase
	// is the protocol-phase label stamped on those events (see observer.go).
	obs   RoundObserver
	phase string
}

// Option configures an Engine.
type Option func(*Engine)

// WithFailures installs a failure model (default: no failures).
func WithFailures(m FailureModel) Option {
	return func(e *Engine) {
		if m != nil {
			e.fail = m
		}
	}
}

// WithWorkers fixes the number of goroutines used per round (default:
// GOMAXPROCS). The transcript is identical for any worker count.
func WithWorkers(k int) Option {
	return func(e *Engine) {
		if k > 0 {
			e.workers = k
		}
	}
}

// New creates an engine for n >= 2 nodes seeded by seed.
func New(n int, seed uint64, opts ...Option) *Engine {
	if n < 2 {
		panic(fmt.Sprintf("sim: population must have at least 2 nodes, got %d", n))
	}
	e := &Engine{
		n:       n,
		src:     xrand.NewSource(seed),
		fail:    NoFailures(),
		workers: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(e)
	}
	_, e.noFail = e.fail.(noFailures)
	e.reshape(n)
	e.pullShard = e.pullSpan
	e.seedShard = e.seedSpan
	e.roundsShard = e.pullRoundsSpan
	e.runShards(e.bounds, e.seedShard)
	return e
}

// reshape sizes every population-shaped field of the engine for n nodes,
// reusing existing backing arrays when their capacity suffices. It is the
// shared core of New and Resize; the caller reseeds afterwards.
func (e *Engine) reshape(n int) {
	e.n = n
	e.peerBound = uint64(n - 1)
	e.peerThresh = -e.peerBound % e.peerBound
	// Shard-sizing heuristic: one shard per worker, but never shards thinner
	// than minShardSpan — oversharding a small population costs more in
	// dispatch than it buys in parallelism.
	shards := 1
	if e.workers > 1 {
		shards = e.workers
		if max := n / minShardSpan; shards > max {
			shards = max
		}
		if shards < 1 {
			shards = 1
		}
	}
	e.bounds = shardBoundsInto(e.bounds, n, shards)
	sortShards := len(e.bounds) - 1
	if sortShards > maxSortShards {
		sortShards = maxSortShards
	}
	e.sortBounds = shardBoundsInto(e.sortBounds, n, sortShards)
	if need := (len(e.bounds) - 1) * cacheLineWords; cap(e.shardAcc) >= need {
		e.shardAcc = e.shardAcc[:need]
	} else {
		e.shardAcc = make([]int64, need)
	}
	if cap(e.rngs) >= n {
		e.rngs = e.rngs[:n]
	} else {
		e.rngs = make([]xrand.RNG, n)
	}
	e.growGang()
}

// shardBounds partitions [0, n) into at most k balanced contiguous shards.
func shardBounds(n, k int) []int {
	return shardBoundsInto(nil, n, k)
}

// shardBoundsInto is shardBounds writing into dst's backing array, so Resize
// can recompute partitions without allocating once capacity exists.
func shardBoundsInto(dst []int, n, k int) []int {
	chunk := (n + k - 1) / k
	dst = append(dst[:0], 0)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		dst = append(dst, hi)
	}
	return dst
}

// Reset reseeds the engine in place and zeroes its complexity counters,
// yielding the exact state New(n, seed, opts...) would have produced with the
// same population, failure model, and worker count — bit-for-bit, since shard
// bounds depend only on (n, workers). No memory is allocated: the per-node
// RNG streams are reseeded where they are. This is the primitive that lets a
// serving layer amortize the O(n) engine setup across many queries: one
// engine object per pooled scratch, Reset per query. The engine must not be
// mid-round, and workspaces bound to it remain valid.
func (e *Engine) Reset(seed uint64) {
	e.src = xrand.NewSource(seed)
	// Reseeding is the only per-query O(n) setup left; it runs on the
	// pre-built shard function so it never allocates (the session layer's
	// zero-alloc steady state counts on it) and parallelizes on multi-shard
	// engines.
	e.runShards(e.bounds, e.seedShard)
	e.round = 0
	e.messages = 0
	e.bits = 0
	e.maxBits = 0
	// The observer (an engine option, like the failure model) survives Reset;
	// the phase label is per-run state and clears with the counters.
	e.phase = ""
}

// Resize repopulates the engine in place to n >= 2 nodes and reseeds it with
// seed, yielding bit-for-bit the state New(n, seed, opts...) would have
// produced with the same failure model and worker count: shard bounds depend
// only on (n, workers), and every per-node RNG stream is reseeded from
// scratch. Existing backing arrays (RNG streams, shard partitions, shard
// accumulators) are reused whenever their capacity suffices, so a session
// oscillating within a previously reached population size resizes without
// allocating. Workspaces bound to the engine must be re-bound
// (Workspace.Rebind) before their next use when n changed — their per-node
// buffers are population-shaped. The engine must not be mid-round.
func (e *Engine) Resize(n int, seed uint64) {
	if n < 2 {
		panic(fmt.Sprintf("sim: population must have at least 2 nodes, got %d", n))
	}
	if n != e.n {
		e.reshape(n)
	}
	e.Reset(seed)
}

// N returns the population size.
func (e *Engine) N() int { return e.n }

// Seed returns the root seed.
func (e *Engine) Seed() uint64 { return e.src.Seed() }

// Failures returns the installed failure model.
func (e *Engine) Failures() FailureModel { return e.fail }

// Metrics returns the current complexity counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{Rounds: e.round, Messages: e.messages, Bits: e.bits, MaxMessageBits: e.maxBits}
}

// Rounds returns the number of rounds executed so far.
func (e *Engine) Rounds() int { return e.round }

// algoNamespace is the stream namespace separating algorithm-level coins
// from the engine's peer-sampling streams ("Algo").
const algoNamespace = 0x416c676f

// AlgorithmRNG returns a private random stream for algorithm-level choices
// (e.g. Algorithm 1's δ coin), derived from the engine seed and a tag so
// different protocol phases never share randomness with peer sampling.
func (e *Engine) AlgorithmRNG(tag uint64) *xrand.RNG {
	return e.src.Sub(algoNamespace).Stream(tag)
}

// AlgorithmSource returns a private stream-deriving source in the same
// namespace as AlgorithmRNG, for protocols that need per-node algorithm
// coins (one stream per node) independent of the engine's peer sampling.
func (e *Engine) AlgorithmSource(tag uint64) xrand.Source {
	return AlgorithmSourceAt(e.src.Seed(), tag)
}

// AlgorithmSourceAt returns the source AlgorithmSource(tag) yields on an
// engine rooted at seed, without constructing an engine. Transports that
// must reproduce an engine transcript (livenet's differential mode) derive
// their algorithm coins through this so the two derivations cannot drift.
func AlgorithmSourceAt(seed, tag uint64) xrand.Source {
	return xrand.NewSource(seed).Sub(algoNamespace).Sub(tag)
}

// failed draws node v's failure coin for the current round from v's stream.
func (e *Engine) failed(v int) bool { return e.failedAt(v, e.round) }

// failedAt draws node v's failure coin for the given round from v's stream.
func (e *Engine) failedAt(v, round int) bool {
	p := e.fail.Prob(v, round)
	if p <= 0 {
		// Keep per-node stream consumption independent of the failure
		// model so transcripts with p=0 match NoFailures exactly: no draw.
		return false
	}
	return e.rngs[v].Bool(p)
}

// peerRedraw is the out-of-line rejection tail of the hot loops' inlined
// Lemire peer draw, reached with probability (2^64 mod bound)/2^64 per draw
// — effectively never for realistic n. Keeping the loop out of line keeps
// the common-case draw within the inliner's budget.
//
//go:noinline
func peerRedraw(r *xrand.RNG, bound, thresh uint64) uint64 {
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= thresh {
			return hi
		}
	}
}

// seedSpan reseeds the nodes in [lo, hi) from the engine's current source.
func (e *Engine) seedSpan(_, lo, hi int) {
	for v := lo; v < hi; v++ {
		e.src.SeedInto(&e.rngs[v], uint64(v))
	}
}

// pullSpan runs one pull round over the senders in [lo, hi), writing peers
// into the e.pullDst parameter slot and the shard's success count into
// shardAcc.
func (e *Engine) pullSpan(s, lo, hi int) {
	e.shardAcc[s*cacheLineWords] = e.drawPeers(e.pullDst[lo:hi], lo, e.round)
}

// drawPeers runs the pull round with the given index for the senders
// lo, lo+1, ..., lo+len(dst)-1, writing sender lo+j's peer (or NoPeer) to
// dst[j], and returns the number of successful pulls. The peer draw is
// xrand's Lemire bounded draw inlined against the precomputed (peerBound,
// peerThresh) — the xoshiro step then inlines into the loop, which is worth
// ~2.5x on this RNG-bound pass; the consumed stream is bit-for-bit the one
// Uint64n would consume.
func (e *Engine) drawPeers(dst []int32, lo, round int) int64 {
	rngs := e.rngs[lo : lo+len(dst)]
	bound, thresh := e.peerBound, e.peerThresh
	if e.noFail {
		for j := range rngs {
			hi64, lo64 := bits.Mul64(rngs[j].Uint64(), bound)
			if lo64 < thresh {
				hi64 = peerRedraw(&rngs[j], bound, thresh)
			}
			p := int32(hi64)
			if p >= int32(lo+j) {
				p++
			}
			dst[j] = p
		}
		return int64(len(dst))
	}
	var ok int64
	for j := range rngs {
		if e.failedAt(lo+j, round) {
			dst[j] = NoPeer
			continue
		}
		hi64, lo64 := bits.Mul64(rngs[j].Uint64(), bound)
		if lo64 < thresh {
			hi64 = peerRedraw(&rngs[j], bound, thresh)
		}
		p := int32(hi64)
		if p >= int32(lo+j) {
			p++
		}
		dst[j] = p
		ok++
	}
	return ok
}

// Pull executes one synchronous round in which every node pulls from one
// uniformly random other node. dst must have length n; on return dst[v] is
// the index pulled from, or NoPeer if v failed this round. msgBits is the
// payload size of each pulled message, charged per successful pull.
// Workspace.Pull is the same operation with a workspace-owned dst.
func (e *Engine) Pull(dst []int32, msgBits int) {
	if len(dst) != e.n {
		panic(fmt.Sprintf("sim: Pull dst length %d, want %d", len(dst), e.n))
	}
	e.pullDst = dst
	e.runShards(e.bounds, e.pullShard)
	e.pullDst = nil
	var ok int64
	for s := 0; s+1 < len(e.bounds); s++ {
		ok += e.shardAcc[s*cacheLineWords]
	}
	e.account(1, ok, msgBits)
}

// PullRounds runs k consecutive pull rounds and hands their peers to span,
// shard by shard: each shard draws the peers of its nodes for all k rounds,
// then calls span(s, lo, hi, peers) over consecutive blocks of its node
// range, where peers[r*(hi-lo)+(v-lo)] is node v's round-r peer (NoPeer if
// v failed that round). Because each shard finishes its span before the
// next rounds start, a protocol iteration whose local step reads only the
// values pulled this iteration runs as one gang dispatch instead of k Pull
// dispatches followed by a serial per-node loop.
//
// The transcript is bit-for-bit that of k successive Pull calls: every node
// consumes its stream in round order, and round r's failure coins are drawn
// at round index Rounds()+r. Rounds, messages and observer events are
// charged per round, in order, once the dispatch returns. span runs
// concurrently across shards, so it may write only state owned by the nodes
// in [lo, hi) (plus per-shard slots indexed by s); it must be a func value
// built once (a bound method value), never a fresh closure, for the round
// loop to stay allocation-free. peers is engine-owned and valid only during
// the call.
func (e *Engine) PullRounds(k, msgBits int, span func(s, lo, hi int, peers []int32)) {
	if k <= 0 {
		return
	}
	shards := len(e.bounds) - 1
	if need := shards * peerBlockNodes * k; len(e.peerBlocks) < need {
		e.peerBlocks = make([]int32, need)
	}
	stride := accStride(k)
	if need := shards * stride; len(e.roundAcc) < need {
		e.roundAcc = make([]int64, need)
	}
	e.roundsK, e.roundsSpan = k, span
	e.runShards(e.bounds, e.roundsShard)
	e.roundsSpan = nil
	for r := 0; r < k; r++ {
		var ok int64
		for s := 0; s < shards; s++ {
			ok += e.roundAcc[s*stride+r]
		}
		e.account(1, ok, msgBits)
	}
}

// accStride is the roundAcc spacing between shards for k rounds: whole
// cache lines, so concurrent shards never write the same line.
func accStride(k int) int {
	return (k + cacheLineWords - 1) / cacheLineWords * cacheLineWords
}

// pullRoundsSpan is PullRounds' shard function: block by block over
// [lo, hi), it draws the block's peers round by round into the block's rows
// (each node's draws in round order; the block's RNG streams stay in L1
// across its k sweeps), then hands the block to the parked span function.
// The shard's per-round success counts land in roundAcc.
func (e *Engine) pullRoundsSpan(s, lo, hi int) {
	k := e.roundsK
	stride := accStride(k)
	acc := e.roundAcc[s*stride : s*stride+k]
	block := e.peerBlocks[s*peerBlockNodes*k : (s+1)*peerBlockNodes*k]
	clear(acc)
	for b := lo; b < hi; b += peerBlockNodes {
		m := min(peerBlockNodes, hi-b)
		peers := block[:k*m]
		for r := range acc {
			acc[r] += e.drawPeers(peers[r*m:(r+1)*m], b, e.round+r)
		}
		e.roundsSpan(s, b, b+m, peers)
	}
}

// account charges rounds and sent messages of one payload size.
func (e *Engine) account(rounds int, sent int64, msgBits int) {
	e.round += rounds
	e.messages += sent
	e.bits += sent * int64(msgBits)
	if msgBits > e.maxBits && sent > 0 {
		e.maxBits = msgBits
	}
	if e.obs != nil {
		e.emit(rounds, sent, msgBits)
	}
}

// Delivery is one received message together with its sender.
type Delivery[M any] struct {
	From int32
	Msg  M
}

// ChargeRounds accounts extra rounds without communication, used when a
// protocol step is idle-waiting for a fixed schedule.
func (e *Engine) ChargeRounds(k int) {
	if k > 0 {
		e.round += k
		if e.obs != nil {
			e.emit(k, 0, 0)
		}
	}
}

// Log2N returns ceil(log2(n)), the natural unit for round budgets.
func (e *Engine) Log2N() int {
	return CeilLog2(e.n)
}

// CeilLog2 returns ceil(log2(x)) for x >= 1.
func CeilLog2(x int) int {
	k := 0
	for v := 1; v < x; v <<= 1 {
		k++
	}
	return k
}
