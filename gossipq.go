// Package gossipq computes exact and approximate quantiles with optimal
// uniform gossip algorithms, implementing Haeupler, Mohapatra & Su,
// "Optimal Gossip Algorithms for Exact and Approximate Quantile
// Computations" (PODC 2018).
//
// In the uniform gossip model, n nodes each hold one value and proceed in
// synchronized rounds; per round each node pushes one O(log n)-bit message
// to, or pulls one from, a uniformly random other node. This package
// provides:
//
//   - ApproxQuantile: a value whose rank is within ±εn of the φ-quantile at
//     every node, in O(log log n + log 1/ε) rounds (Theorem 1.2) — optimal
//     by the paper's matching lower bound (Theorem 1.3).
//   - ExactQuantile: the exact ⌈φn⌉-smallest value at every node in
//     O(log n) rounds (Theorem 1.1) — as fast as broadcasting one message.
//   - Median, OwnQuantiles (Corollary 1.5), and failure-tolerant variants
//     of all of the above (Theorem 1.4).
//
// Everything runs on the package's deterministic gossip simulator: results
// are reproducible per seed, and every run reports rounds, messages, and
// peak message size, so the complexity claims are directly inspectable.
package gossipq

import (
	"errors"
	"fmt"
	"math"

	"gossipq/internal/sim"
	"gossipq/internal/stats"
	"gossipq/internal/tournament"
)

// FailureModel mirrors §5 of the paper: Prob(node, round) is the
// pre-determined probability that the node fails to perform its push or
// pull in that round; all probabilities must be bounded by some μ < 1.
type FailureModel = sim.FailureModel

// NoFailures returns the failure-free model.
func NoFailures() FailureModel { return sim.NoFailures() }

// UniformFailures returns a model where every node fails every round with
// probability p.
func UniformFailures(p float64) FailureModel { return sim.UniformFailures(p) }

// PerNodeFailures returns a model with heterogeneous per-node failure
// probabilities.
func PerNodeFailures(ps []float64) FailureModel { return sim.PerNodeFailures(ps) }

// Metrics reports the complexity of a completed run.
type Metrics struct {
	// Rounds is the number of synchronous gossip rounds.
	Rounds int
	// Messages is the number of messages delivered.
	Messages int64
	// Bits is the total message volume.
	Bits int64
	// MaxMessageBits is the largest single message, which the paper's
	// algorithms keep at O(log n) (concretely: at most 128 bits here).
	MaxMessageBits int
}

func fromSim(m sim.Metrics) Metrics {
	return Metrics{Rounds: m.Rounds, Messages: m.Messages, Bits: m.Bits, MaxMessageBits: m.MaxMessageBits}
}

// MaxTheoremMessageBits is the largest message any algorithm in this
// package sends: push-sum and token messages carry two 64-bit words,
// tournament messages one. It is the concrete constant behind the paper's
// O(log n)-bit message discipline, and the conformance harness pins every
// run's Metrics.MaxMessageBits to it.
const MaxTheoremMessageBits = 128

// MinApproxEps returns the smallest ε for which ApproxQuantile runs the
// tournament algorithm at population n; below it the exact algorithm is
// substituted (see ApproxQuantile). Exported so harnesses can aim scenarios
// at a specific regime and predict which round bound applies.
func MinApproxEps(n int) float64 { return tournament.MinEps(n) }

// Config describes a computation. The zero value of every optional field
// selects the paper's defaults.
type Config struct {
	// Seed drives all randomness; runs with equal seeds are identical.
	Seed uint64
	// Failures optionally injects the §5 failure model.
	Failures FailureModel
	// Workers caps simulation parallelism (0 = GOMAXPROCS): the engine
	// shards every round's pulls and pushes, and every tournament
	// iteration's per-node work, across this many goroutines. Any value
	// yields the same transcript. Negative values are rejected.
	Workers int
	// K is the sample count of the tournament algorithms' final step
	// (0 = 15). Larger K lowers the (already polynomially small) failure
	// probability at the cost of K extra rounds.
	K int
	// ExtraRounds, for failure-mode runs, is Theorem 1.4's t: extra
	// adoption rounds that leave only about n/2^t nodes without an output.
	ExtraRounds int
	// OnIteration, when non-nil, observes the tournament phases of
	// approximate runs: it is invoked after every 2-TOURNAMENT (phase 1)
	// and 3-TOURNAMENT (phase 2) iteration with every node's current value.
	// The slice must not be retained. It is the transcript hook the
	// conformance harness compares sim and livenet runs through; exact runs
	// ignore it.
	OnIteration func(phase, iter int, values []int64)
	// RoundObserver, when non-nil, receives one RoundEvent per gossip round
	// (and per idle-round charge) with the protocol phase, message count,
	// and bit volume — the hook behind `gossipq trace` and the telemetry
	// layer. Observation is passive: transcripts, results, and Metrics are
	// bit-for-bit identical with and without an observer installed.
	RoundObserver RoundObserver
}

// RoundEvent is one per-round accounting record streamed to a RoundObserver;
// see sim.RoundEvent for field semantics.
type RoundEvent = sim.RoundEvent

// RoundObserver receives per-round protocol telemetry; see sim.RoundObserver
// for the contract (telemetry-only, same-goroutine, must not re-enter).
type RoundObserver = sim.RoundObserver

func (c Config) engine(n int) *sim.Engine {
	opts := []sim.Option{}
	if c.Failures != nil {
		opts = append(opts, sim.WithFailures(c.Failures))
	}
	if c.Workers > 0 {
		opts = append(opts, sim.WithWorkers(c.Workers))
	}
	if c.RoundObserver != nil {
		opts = append(opts, sim.WithObserver(c.RoundObserver))
	}
	return sim.New(n, c.Seed, opts...)
}

func (c Config) failing(n int) bool {
	return c.Failures != nil && sim.MaxProb(c.Failures, n) > 0
}

// ApproxResult is the outcome of an approximate computation.
type ApproxResult struct {
	// Outputs[v] is node v's answer; under failures, meaningful only where
	// Has[v] (Has is all-true otherwise).
	Outputs []int64
	// Has marks nodes that produced an output (Theorem 1.4 guarantees all
	// but ~n/2^t under failures).
	Has []bool
	// Metrics is the run's complexity accounting.
	Metrics Metrics
}

// Covered returns the number of nodes holding an output.
func (r ApproxResult) Covered() int {
	c := 0
	for _, h := range r.Has {
		if h {
			c++
		}
	}
	return c
}

var (
	errFewValues  = errors.New("gossipq: need at least 2 values")
	errBadPhi     = errors.New("gossipq: phi must be in [0, 1]")
	errBadEps     = errors.New("gossipq: eps must be positive")
	errBadWorkers = errors.New("gossipq: Workers must be >= 0")
)

func validate(values []int64, phi float64, cfg Config) error {
	if len(values) < 2 {
		return fmt.Errorf("%w, got %d", errFewValues, len(values))
	}
	if phi < 0 || phi > 1 || math.IsNaN(phi) {
		return fmt.Errorf("%w, got %v", errBadPhi, phi)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("%w, got %d", errBadWorkers, cfg.Workers)
	}
	return nil
}

// ApproxQuantile runs the Theorem 1.2 algorithm: every node outputs a value
// whose rank among values is within ±εn of ⌈φn⌉, w.h.p., in
// O(log log n + log 1/ε) rounds with O(log n)-bit messages.
//
// For ε below the tournament algorithm's validity region (≈ n^{-1/4.47}),
// the exact algorithm is automatically substituted — its O(log n) rounds
// are within the O(log log n + log 1/ε) budget in that regime, exactly as
// the paper composes the two. ε is otherwise clamped to (0, 1/8].
func ApproxQuantile(values []int64, phi, eps float64, cfg Config) (ApproxResult, error) {
	if err := validate(values, phi, cfg); err != nil {
		return ApproxResult{}, err
	}
	if eps <= 0 || math.IsNaN(eps) {
		return ApproxResult{}, fmt.Errorf("%w, got %v", errBadEps, eps)
	}
	// A throwaway raw-seed session: the single query runs on an engine
	// seeded with cfg.Seed, bit-for-bit the pre-session transcript (pinned
	// by the golden facade tests).
	return newOneShot(values, cfg).approxFull(phi, eps)
}

// Median is ApproxQuantile at φ = 1/2.
func Median(values []int64, eps float64, cfg Config) (ApproxResult, error) {
	return ApproxQuantile(values, 0.5, eps, cfg)
}

// ExactResult is the outcome of an exact computation.
type ExactResult struct {
	// Value is the exact ⌈φn⌉-smallest value; every node learns it.
	Value int64
	// Outputs repeats Value per node, for symmetry with ApproxResult.
	Outputs []int64
	// Metrics is the run's complexity accounting.
	Metrics Metrics
}

// ExactQuantile runs the Theorem 1.1 algorithm: every node learns the exact
// ⌈φn⌉-smallest value (φ=0 → minimum) in O(log n) rounds with O(log n)-bit
// messages, w.h.p. Duplicate input values are handled by the paper's
// tie-breaking reduction (values are made distinct by node index
// internally). Under a failure model, round budgets stretch by the §5
// constant factor automatically.
func ExactQuantile(values []int64, phi float64, cfg Config) (ExactResult, error) {
	if err := validate(values, phi, cfg); err != nil {
		return ExactResult{}, err
	}
	return newOneShot(values, cfg).exactFull(phi)
}

// OwnQuantileResult is the outcome of OwnQuantiles.
type OwnQuantileResult struct {
	// Quantile[v] estimates node v's own normalized rank in [0, 1], within
	// ±ε w.h.p.
	Quantile []float64
	// Metrics is the run's complexity accounting.
	Metrics Metrics
}

// OwnQuantiles implements Corollary 1.5: every node learns its own quantile
// (normalized rank) up to ±ε, by running ⌈1/ε⌉-ish approximate quantile
// computations and locating its value among the returned grid, in
// (1/ε)·O(log log n + log 1/ε) rounds.
func OwnQuantiles(values []int64, eps float64, cfg Config) (OwnQuantileResult, error) {
	if err := validate(values, 0, cfg); err != nil {
		return OwnQuantileResult{}, err
	}
	if eps <= 0 || math.IsNaN(eps) || eps > 1 {
		return OwnQuantileResult{}, fmt.Errorf("%w in (0, 1], got %v", errBadEps, eps)
	}
	n := len(values)
	// Grid of quantile targets at spacing ε/2; each computed to ±ε/4, so
	// consecutive grid values bracket every node's rank within ±ε.
	step := eps / 2
	gridEps := eps / 4
	if gridEps < tournament.MinEps(n) {
		gridEps = tournament.MinEps(n)
		if gridEps > eps/2 {
			gridEps = eps / 2 // best effort at tiny n; tests bound the error
		}
	}
	e := cfg.engine(n)
	grid := tournament.QuantileGrid(step)
	// One scratch serves all ≈1/ε grid runs; the transcript is identical to
	// running ApproxQuantile per grid point on this engine.
	cuts := tournament.GridQuantiles(e, values, grid, gridEps, tournament.Options{K: cfg.K}, nil)
	// Node v's rank estimate: the largest grid φ whose cut value is below
	// its own value, plus half a step. Monotonizing the cut table once
	// turns the per-node linear scan into a binary search with bit-for-bit
	// the same estimates (see SuffixMinCuts).
	tournament.SuffixMinCuts(cuts)
	q := make([]float64, n)
	for v := 0; v < n; v++ {
		est := step / 2
		if gi := tournament.EnvelopeRankIndex(cuts, v, values[v]); gi >= 0 {
			est = grid[gi] + step/2
		}
		if est > 1 {
			est = 1
		}
		q[v] = est
	}
	return OwnQuantileResult{Quantile: q, Metrics: fromSim(e.Metrics())}, nil
}

// PredictApproxRounds returns the deterministic round count ApproxQuantile
// will use at the given parameters (failure-free path), the quantity
// Theorem 1.2 bounds by O(log log n + log 1/ε).
func PredictApproxRounds(n int, phi, eps float64, cfg Config) int {
	return tournament.TotalRounds(n, phi, eps, tournament.Options{K: cfg.K})
}

// Verify reports whether x is an acceptable ε-approximate φ-quantile of
// values, using an exact centralized oracle. It is intended for testing
// and experiment harnesses.
func Verify(values []int64, x int64, phi, eps float64) bool {
	return stats.NewOracle(values).WithinEpsilon(x, phi, eps)
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// floorDiv divides rounding toward negative infinity, inverting the
// distinctifying transform x*mult+i correctly for negative x (Go's integer
// division truncates toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func repeat(x int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = x
	}
	return s
}
