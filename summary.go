package gossipq

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gossipq/internal/tournament"
)

// Summary is a reusable quantile summary built from one gossip computation:
// a grid of ⌈2/ε⌉ approximate quantile cut points, each known at every
// node. After the (1/ε)·O(log log n + log 1/ε)-round build — the same cost
// as one Corollary 1.5 run — any node can answer any quantile query or rank
// query locally, with ±ε accuracy, without further communication. This is
// the natural production shape of the paper's algorithms: pay the gossip
// once per monitoring interval, query for free. Session.Refresh builds
// summaries on the session's pooled rigs and publishes them as versioned
// snapshots behind lock-free reads; see the Session snapshot API.
//
// A Summary is immutable after construction and safe for concurrent reads.
type Summary struct {
	eps  float64
	n    int       // population size the summary describes
	grid []float64 // ascending quantile targets
	// cuts[g][v] is node v's estimate of the grid[g]-quantile. Every row
	// has one entry per node the summary keeps: all n for BuildSummary,
	// node 0 alone for session snapshots and merged or wire summaries.
	cuts [][]int64
	// env is the per-node suffix-min envelope of cuts (non-decreasing in g
	// for every node), precomputed once so Rank is a binary search.
	env [][]int64
	// Metrics is the build's complexity accounting.
	Metrics Metrics
}

var errSummaryFailures = errors.New(
	"gossipq: BuildSummary requires a failure-free Config: the grid build runs the non-robust tournament per grid point")

// validSummaryEps rejects widths outside the summary's (0, 0.5] domain.
func validSummaryEps(eps float64) error {
	if eps <= 0 || math.IsNaN(eps) || eps > 0.5 {
		return fmt.Errorf("%w in (0, 0.5], got %v", errBadEps, eps)
	}
	return nil
}

// BuildSummary runs the grid of approximate quantile computations. ε is the
// summary's accuracy: Query and Rank answers are within ±ε of truth w.h.p.
//
// BuildSummary requires a failure-free Config and returns an error under a
// failure model rather than running it: the grid build runs the plain
// (non-robust) tournament per grid point, and silently degrading its ±ε
// guarantee under injected failures would be worse than refusing. A robust
// summary needs the §5.1 machinery per grid point (RobustApproxQuantile)
// and per-node coverage bookkeeping — a deliberate non-goal here.
func BuildSummary(values []int64, eps float64, cfg Config) (*Summary, error) {
	if err := validate(values, 0, cfg); err != nil {
		return nil, err
	}
	if err := validSummaryEps(eps); err != nil {
		return nil, err
	}
	if cfg.failing(len(values)) {
		return nil, errSummaryFailures
	}
	e := cfg.engine(len(values))
	return buildSummaryInto(tournament.NewScratch(e), values, eps, cfg.K, len(values)), nil
}

// buildSummaryInto is the engine-room of BuildSummary and Session.Refresh:
// it runs the grid build on a caller-owned scratch (and thus the scratch's
// engine — reseed it first) and keeps the first width nodes' outputs of
// each grid run. The transcript depends only on the engine's seed and
// (n, eps, k), never on width: it is bit-for-bit the transcript of
// ApproxQuantile per grid point on this engine. BuildSummary keeps all n
// nodes; a session snapshot, which only ever answers from node 0, keeps one,
// so it holds Θ(1/ε) words rather than Θ(n/ε).
func buildSummaryInto(sc *tournament.Scratch, values []int64, eps float64, k, width int) *Summary {
	e := sc.Engine()
	n := e.N()
	step := eps / 2
	gridEps := eps / 4
	if m := tournament.MinEps(n); gridEps < m {
		gridEps = m
		if gridEps > step {
			gridEps = step
		}
	}
	s := &Summary{eps: eps, n: n, grid: tournament.QuantileGrid(step)}
	s.cuts, s.env = newCutTable(len(s.grid), width)
	for g, phi := range s.grid {
		copy(s.cuts[g], sc.ApproxQuantile(values, phi, gridEps, tournament.Options{K: k}))
		copy(s.env[g], s.cuts[g])
	}
	tournament.SuffixMinCuts(s.env)
	s.Metrics = fromSim(e.Metrics())
	return s
}

// newCutTable carves a cut table and its envelope, grid rows of width
// entries each, from one slab.
func newCutTable(grid, width int) (cuts, env [][]int64) {
	slab := make([]int64, 2*grid*width)
	rows := make([][]int64, 2*grid)
	for i := range rows {
		rows[i] = slab[i*width : (i+1)*width : (i+1)*width]
	}
	return rows[:grid:grid], rows[grid:]
}

// Eps returns the summary's accuracy parameter.
func (s *Summary) Eps() float64 { return s.eps }

// N returns the size of the population the summary describes — the merge
// weight of this summary in Merge/MergeSummaries.
func (s *Summary) N() int { return s.n }

// GridSize returns the number of stored cut points (per node).
func (s *Summary) GridSize() int { return len(s.grid) }

// Query returns node v's local estimate of the φ-quantile: the stored cut
// point whose grid target is nearest to φ. The answer's rank is within
// ±ε·n of ⌈φn⌉ w.h.p. φ outside [0, 1] is clamped to the nearest endpoint;
// NaN clamps to 0 (the same branch an out-of-range-low φ takes), mirroring
// how Session.validateQuery refuses NaN rather than computing an undefined
// grid index from it.
func (s *Summary) Query(v int, phi float64) int64 {
	if phi < 0 || math.IsNaN(phi) {
		phi = 0
	}
	if phi > 1 {
		phi = 1
	}
	// Nearest grid index: grid[g] = (g+1)·step.
	step := s.grid[0]
	g := int(math.Round(phi/step)) - 1
	if g < 0 {
		g = 0
	}
	if g >= len(s.grid) {
		g = len(s.grid) - 1
	}
	return s.cuts[g][v]
}

// Rank returns node v's local estimate of the normalized rank of x among
// the population's values, within ±ε w.h.p. — the Corollary 1.5 primitive
// generalized to arbitrary query points. It is an O(log(1/ε)) binary search
// over the monotone-repaired envelope built at construction, and answers
// exactly what the naive largest-grid-index scan over the raw cuts would
// (see tournament.SuffixMinCuts for the equivalence).
func (s *Summary) Rank(v int, x int64) float64 {
	est := s.grid[0] / 2
	if g := tournament.EnvelopeRankIndex(s.env, v, x); g >= 0 {
		est = s.grid[g] + s.grid[0]/2
	}
	if est > 1 {
		est = 1
	}
	return est
}

// EnvelopeView appends node v's monotone cut envelope (the SuffixMinCuts
// repair of its raw cut vector, non-decreasing in the grid index) to dst and
// returns the extended slice. The envelope answers every Rank query exactly
// as the raw cuts do, and each entry is itself a valid ±ε estimate of its
// grid target (the suffix min at g estimates some target ≥ grid[g] from
// above and is bounded by the raw g-estimate from below) — which makes the
// envelope the canonical single-node wire form of a summary: what a shard
// ships to the merge tier, and what NewSummaryFromCuts reconstitutes.
func (s *Summary) EnvelopeView(v int, dst []int64) []int64 {
	for g := range s.env {
		dst = append(dst, s.env[g][v])
	}
	return dst
}

// NewSummaryFromCuts reconstitutes a single-node ε-summary from a monotone
// cut vector — the receiving half of the shard wire protocol, inverse to
// EnvelopeView. cuts[g] must estimate the grid target (g+1)·(eps/2) and be
// non-decreasing; the cut count must match the ε-grid exactly
// (len(tournament.QuantileGrid(eps/2))), so a truncated or padded wire
// payload is rejected rather than silently misaligned. n is the population
// size the summary describes (its merge weight). The slice is copied.
func NewSummaryFromCuts(eps float64, n int, cuts []int64) (*Summary, error) {
	if err := validSummaryEps(eps); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("gossipq: summary population %d, want >= 1", n)
	}
	grid := tournament.QuantileGrid(eps / 2)
	if len(cuts) != len(grid) {
		return nil, fmt.Errorf("gossipq: %d cuts for an eps=%v summary, want %d", len(cuts), eps, len(grid))
	}
	for g := 1; g < len(cuts); g++ {
		if cuts[g] < cuts[g-1] {
			return nil, fmt.Errorf("gossipq: cut vector not monotone at index %d (%d < %d)", g, cuts[g], cuts[g-1])
		}
	}
	s := &Summary{eps: eps, n: n, grid: grid}
	s.cuts, s.env = newCutTable(len(grid), 1)
	for g, c := range cuts {
		s.cuts[g][0] = c
		s.env[g][0] = c
	}
	return s, nil
}

// NodeView returns node v's full cut-point vector (ascending grid order) —
// what a real deployment would hold in memory per node: GridSize values,
// i.e. Θ(1/ε) words. The slice is a copy sorted ascending (individual grid
// estimates may locally invert by ±ε; the sorted view is what a monotone
// CDF consumer wants).
func (s *Summary) NodeView(v int) []int64 {
	out := make([]int64, len(s.grid))
	for g := range s.grid {
		out[g] = s.cuts[g][v]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
