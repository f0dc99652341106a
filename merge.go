package gossipq

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"gossipq/internal/tournament"
)

// This file is the summary merge tier: the mergeable-sketch half of the
// distributed shard design. Each shard runs the paper's gossip quantile
// protocol on its own slice of the population and distills the result into
// an ε-summary (Summary); the shards' summaries then combine into one
// summary for the whole population in a single pass over O(Σ 1/ε_i) words —
// no further gossip rounds, which is what keeps the cross-shard phase at a
// constant number of communication rounds regardless of population size
// (the congested-clique O(1)-round aggregation shape).
//
// Rank-error bound. Write n_i and ε_i for summary i's population size and
// width, N = Σ n_i, and fix a merged grid target φ. The merge estimates the
// combined rank of a candidate x as Σ_i round(r_i(x)·n_i) where r_i is
// summary i's Rank estimate, so the estimate's error is at most
// Σ (n_i/N)·ε_i ≤ max_i ε_i (w.h.p., inherited from Corollary 1.5 per
// summary). Candidates are the union of the summaries' cut envelopes;
// between two adjacent candidates, each summary i's true rank mass is at
// most (2ε_i + ε_i/2)·n_i (adjacent cuts sit within one ε_i/2 grid step,
// each displaced by at most ε_i), so stepping to the first candidate at or
// above the target overshoots by at most the estimate error plus one such
// gap of the summary owning that candidate. For two summaries this totals
// under ε₁+ε₂ of normalized rank — the bound the property tests pin — and
// for S equal-width shards at width ε/2 the merged answers stay within ±εN
// of the whole-population rank, which is what the conformance shard axis
// asserts against the exact oracle.
//
// Determinism. The merge is a pure function of the multiset of
// (n_i, ε_i, envelope_i) inputs: candidates are sorted by value and the
// per-candidate count is an integer sum, so reordering the input summaries
// — or rebuilding them under a different engine worker count — produces a
// bit-identical merged summary.

var errMergeEmpty = errors.New("gossipq: merge of zero summaries")

// Merge combines s and o into one summary over both populations, weighted
// by their sizes, at width min(s.Eps()+o.Eps(), 0.5): the merged summary's
// rank answers are within ±(ε_s+ε_o) of the combined population's truth
// w.h.p. (see the file comment for the decomposition). The merge reads node
// 0's cut envelope from each input — any node's view is a valid ±ε summary
// of its population — and runs no gossip: its cost is one linear pass over
// the two envelopes.
func (s *Summary) Merge(o *Summary) (*Summary, error) {
	eps := s.eps + o.eps
	if eps > 0.5 {
		eps = 0.5
	}
	return MergeSummaries([]*Summary{s, o}, eps)
}

// MergeSummaries combines any number of summaries into one summary over
// their combined populations at width eps, weighted by population size. The
// result is independent of the order of sums (candidates are canonically
// sorted and counts accumulate in integers). For the bound to be meaningful
// eps should be at least max_i sums[i].Eps() plus merge slack; the sharded
// serving tier builds shard summaries at eps/2 and merges at eps.
func MergeSummaries(sums []*Summary, eps float64) (*Summary, error) {
	if err := validMergeInputs(sums, eps); err != nil {
		return nil, err
	}
	return mergeSummaries(sums, eps), nil
}

// validMergeInputs rejects merge calls the engine room assumes away.
func validMergeInputs(sums []*Summary, eps float64) error {
	if err := validSummaryEps(eps); err != nil {
		return err
	}
	if len(sums) == 0 {
		return errMergeEmpty
	}
	for i, s := range sums {
		if s == nil {
			return fmt.Errorf("gossipq: merge input %d is nil", i)
		}
		if s.n < 1 || len(s.grid) == 0 {
			return fmt.Errorf("gossipq: merge input %d is empty", i)
		}
	}
	return nil
}

// mergeSummaries is the engine room of Merge/MergeSummaries and the sharded
// refresh path: it merges sums at width eps. Inputs must have passed
// validMergeInputs.
//
// The merged summary is single-node (its cut table has one column): it is
// the node-0 view the snapshot serving tier reads, not a per-node gossip
// result. Its Metrics aggregate the inputs as a concurrent execution would:
// Rounds and MaxMessageBits are maxima (shards run their protocols in
// parallel), Messages and Bits are sums (total work).
func mergeSummaries(sums []*Summary, eps float64) *Summary {
	totalN, totalCuts := 0, 0
	for _, s := range sums {
		totalN += s.n
		totalCuts += len(s.grid)
	}
	out := &Summary{eps: eps, n: totalN, grid: tournament.QuantileGrid(eps / 2)}

	// Candidate set: the union of every input's node-0 envelope, sorted.
	// Sorting the multiset by value is what makes the merge input-order
	// insensitive.
	cand := make([]int64, 0, totalCuts)
	for _, s := range sums {
		cand = s.EnvelopeView(0, cand)
	}
	slices.Sort(cand)
	gpos := make([]int, len(sums))

	// countAt advances the per-summary cursors to x and returns the estimated
	// number of combined-population values at or below x: summary i
	// contributes round(r_i(x)·n_i) with r_i(x) = min(1, (g_i+½)·step_i), g_i
	// the number of its envelope cuts at or below x — Summary.Rank's midpoint
	// estimate anchored at the TOP of x's duplicate plateau, scaled to a
	// count so the cross-summary sum is an integer. The top anchor matters:
	// the sweep below skips a candidate while its count is under the target,
	// so a bottom-of-plateau estimate (cuts strictly below x, which is what
	// Rank's EnvelopeRankIndex returns) would make a heavy duplicate — half
	// the population equal to one value, say — look tiny and push the sweep
	// past it to a candidate whose entire rank plateau lies above the window.
	countAt := func(x int64) int64 {
		var total int64
		for i, s := range sums {
			g := gpos[i]
			env := s.env
			for g < len(env) && env[g][0] <= x {
				g++
			}
			gpos[i] = g
			r := (float64(g) + 0.5) * s.grid[0]
			if r > 1 {
				r = 1
			}
			total += int64(math.Floor(r*float64(s.n) + 0.5))
		}
		return total
	}

	out.cuts, out.env = newCutTable(len(out.grid), 1)
	ci := 0
	cnt := countAt(cand[0])
	for t, phi := range out.grid {
		// The paper's ⌈φN⌉ rank convention, clamped into [1, N].
		target := int64(math.Ceil(phi * float64(totalN)))
		if target < 1 {
			target = 1
		}
		if target > int64(totalN) {
			target = int64(totalN)
		}
		for cnt < target && ci+1 < len(cand) {
			ci++
			if cand[ci] == cand[ci-1] {
				continue // same value, same count
			}
			cnt = countAt(cand[ci])
		}
		out.cuts[t][0] = cand[ci]
		out.env[t][0] = cand[ci]
	}

	for _, s := range sums {
		out.Metrics.Messages += s.Metrics.Messages
		out.Metrics.Bits += s.Metrics.Bits
		out.Metrics.Rounds = max(out.Metrics.Rounds, s.Metrics.Rounds)
		out.Metrics.MaxMessageBits = max(out.Metrics.MaxMessageBits, s.Metrics.MaxMessageBits)
	}
	return out
}
