package tournament

import (
	"fmt"

	"gossipq/internal/sim"
	"gossipq/internal/xrand"
)

// Scratch owns every piece of per-run protocol state the tournament runners
// need — the cur/next value double-buffer, the final-step sample buffer, the
// robust variant's good-set and pull staging, and the backings the
// deterministic phase schedules are computed into — plus the sim workspace
// underneath. A session-style caller allocates one Scratch, runs many
// quantile computations through it, and performs zero protocol-state
// allocations once the buffers are warm. The one-shot package functions
// (ApproxQuantile, RobustApproxQuantile) are thin wrappers over a throwaway
// Scratch and produce bit-for-bit the transcripts they always did: the
// scratch only changes where buffers come from, never which random draws
// happen or in what order.
//
// A Scratch is bound to one engine and must not be used concurrently with
// itself or with other operations on that engine.
type Scratch struct {
	ws   *sim.PullWorkspace
	bufA []int64 // cur/next double buffer
	bufB []int64
	out  []int64 // result buffer, returned to the caller
	// samples is the final step's flat n×K sample matrix: every node gains
	// exactly one sample per sampling round (a failed pull contributes the
	// node's own value), so row lengths are uniform and a flat buffer
	// replaces the per-node slices without changing a single comparison.
	samples []int64

	// Robust-variant state (§5.1).
	good, nextGood []bool
	pulls          [][]int64 // per-node good-pull staging, capacity reused
	finalPulls     [][]int64
	adoptVal       []int64
	adoptIdx       []int

	// Schedule backings: plans are recomputed per run (a few float ops)
	// into these arrays, so schedule construction never allocates even when
	// operating points vary query to query.
	planH, planD, planL []float64

	// Parameter slots the span functions read during a PullRounds dispatch
	// (the engine's gang dispatch publishes them to every shard): the
	// current double-buffer halves and the running 2-TOURNAMENT iteration's
	// δ, direction, index and coin source.
	cur, next []int64
	delta     float64
	useMin    bool
	iter      int
	deltaSrc  xrand.Source

	// Span functions, bound once here so an iteration dispatches without
	// allocating.
	tournament2, tournament3, sampleMedian func(sh, lo, hi int, peers []int32)
}

// NewScratch returns an empty scratch bound to e. Buffers are allocated
// lazily, sized on first use.
func NewScratch(e *sim.Engine) *Scratch {
	s := &Scratch{ws: sim.NewPullWorkspace(e)}
	s.tournament2 = s.tournament2Span
	s.tournament3 = s.tournament3Span
	s.sampleMedian = s.sampleMedianSpan
	return s
}

// Engine returns the engine the scratch is bound to.
func (s *Scratch) Engine() *sim.Engine { return s.ws.Engine() }

// Rebind attaches the scratch (and its workspace) to a fresh engine. Buffers
// are retained and re-sized lazily if the population changed; see
// sim.Workspace.Rebind for the aliasing rules.
func (s *Scratch) Rebind(e *sim.Engine) {
	s.ws.Rebind(e)
}

// plan2 computes the Phase I schedule into the scratch's backing; the
// returned plan is valid until the next plan2 call on this scratch (each
// run computes its schedules up front, so runs never overlap plans).
func (s *Scratch) plan2(phi, eps float64) Plan2 {
	p := NewPlan2Into(phi, eps, s.planH, s.planD)
	s.planH, s.planD = p.H, p.Deltas
	return p
}

// plan3 computes the Phase II schedule into the scratch's backing; same
// lifetime rule as plan2.
func (s *Scratch) plan3(eps float64, n int) Plan3 {
	p := NewPlan3Into(eps, n, s.planL)
	s.planL = p.L
	return p
}

// ensureInt64 resizes buf to length n, reusing capacity.
func ensureInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// ensureBool resizes buf to length n, reusing capacity.
func ensureBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// ensureRows resizes a per-node slice table to n rows, keeping every
// surviving row's capacity.
func ensureRows(rows [][]int64, n int) [][]int64 {
	if cap(rows) < n {
		grown := make([][]int64, n)
		copy(grown, rows)
		return grown
	}
	return rows[:n]
}

// ApproxQuantile runs the complete Theorem 2.1 algorithm with every buffer
// drawn from the scratch; see the package-level ApproxQuantile for the
// algorithm contract. The returned slice is scratch-owned: it is valid until
// the next run on this scratch and must be copied to be retained.
//
// Every iteration is one sim.Engine.PullRounds dispatch: each engine shard
// pulls its node span for the iteration's rounds and computes next for that
// span, so the per-node work shards exactly as far as the pulls do.
func (s *Scratch) ApproxQuantile(values []int64, phi, eps float64, opt Options) []int64 {
	e := s.ws.Engine()
	n := e.N()
	if len(values) != n {
		panic(fmt.Sprintf("tournament: %d values for %d nodes", len(values), n))
	}
	eps = ClampEps(eps)
	s.load(values)

	// Phase I: 2-TOURNAMENT (Algorithm 1). Skipped entirely when the target
	// is already the median (φ = 1/2 gives zero iterations).
	e.SetPhase("tournament2")
	plan2 := s.plan2(phi, eps)
	s.deltaSrc, s.useMin = e.AlgorithmSource(deltaTag), plan2.UseMin
	for i := 0; i < plan2.Iterations(); i++ {
		s.iter, s.delta = i, plan2.Deltas[i]
		if opt.DisableTruncation {
			s.delta = 1
		}
		s.iterate(2, s.tournament2)
		if opt.OnIteration != nil {
			opt.OnIteration(1, i, s.cur)
		}
	}

	// Phase II: 3-TOURNAMENT (Algorithm 2) with ε' = ε/4 per Lemma 2.11.
	e.SetPhase("tournament3")
	plan3 := s.plan3(eps/4, n)
	for i := 0; i < plan3.Iterations(); i++ {
		s.iterate(3, s.tournament3)
		if opt.OnIteration != nil {
			opt.OnIteration(2, i, s.cur)
		}
	}

	// Final step: every node samples K values and outputs their median.
	e.SetPhase("sample")
	k := opt.k()
	if cap(s.samples) < n*k {
		s.samples = make([]int64, n*k)
	}
	s.samples = s.samples[:n*k]
	s.out = ensureInt64(s.out, n)
	e.PullRounds(k, MessageBits, s.sampleMedian)
	return s.out
}

// load copies values into the cur buffer of the scratch's double buffer.
func (s *Scratch) load(values []int64) {
	n := s.ws.Engine().N()
	s.bufA = ensureInt64(s.bufA, n)
	s.bufB = ensureInt64(s.bufB, n)
	s.cur, s.next = s.bufA, s.bufB
	copy(s.cur, values)
}

// iterate runs one tournament iteration: k pull rounds fused with the span
// function that turns their peers into next, then the buffer swap.
func (s *Scratch) iterate(k int, span func(sh, lo, hi int, peers []int32)) {
	s.ws.Engine().PullRounds(k, MessageBits, span)
	s.cur, s.next = s.next, s.cur
}

// tournament2Span is one 2-TOURNAMENT step (Algorithm 1) for the nodes in
// [lo, hi), given their two pulls per node. The δ coin is seeded per
// (node, iteration), so it is drawn identically on any shard.
func (s *Scratch) tournament2Span(_, lo, hi int, peers []int32) {
	cur, next := s.cur, s.next
	delta, useMin := s.delta, s.useMin
	var coin xrand.RNG
	m := hi - lo
	for v := lo; v < hi; v++ {
		p1, p2 := peers[v-lo], peers[m+v-lo]
		doTournament := delta >= 1
		if !doTournament {
			s.deltaSrc.SeedInto(&coin, uint64(v)<<20|uint64(s.iter))
			doTournament = coin.Bool(delta)
		}
		switch {
		case p1 == sim.NoPeer && p2 == sim.NoPeer:
			next[v] = cur[v] // both pulls failed; keep value
		case !doTournament || p2 == sim.NoPeer:
			// δ-branch line 10-11: adopt one sampled value.
			if p1 == sim.NoPeer {
				p1 = p2
			}
			next[v] = cur[p1]
		case p1 == sim.NoPeer:
			next[v] = cur[p2]
		default:
			next[v] = pick2(cur[p1], cur[p2], useMin)
		}
	}
}

// tournament3Span is one 3-TOURNAMENT step (Algorithm 2, and MedianRule's
// median dynamic) for the nodes in [lo, hi), given their three pulls.
func (s *Scratch) tournament3Span(_, lo, hi int, peers []int32) {
	cur, next := s.cur, s.next
	m := hi - lo
	for v := lo; v < hi; v++ {
		i := v - lo
		next[v] = median3Pulled(cur, v, peers[i], peers[m+i], peers[2*m+i])
	}
}

// sampleMedianSpan performs Algorithm 2's final step for the nodes in
// [lo, hi): their k pulled values go straight into their rows of the flat
// sample matrix (own value fills in for failed pulls, so every node outputs
// something even under failures), and each node outputs its row's median.
func (s *Scratch) sampleMedianSpan(_, lo, hi int, peers []int32) {
	cur, out := s.cur, s.out
	m := hi - lo
	k := len(peers) / m
	for v := lo; v < hi; v++ {
		row := s.samples[v*k : (v+1)*k]
		for r := range row {
			p := peers[r*m+v-lo]
			if p == sim.NoPeer {
				p = int32(v)
			}
			row[r] = cur[p]
		}
		out[v] = medianOf(row)
	}
}

// RobustApproxQuantile runs the §5.1 failure-tolerant variant with every
// buffer drawn from the scratch; see the package-level RobustApproxQuantile
// for the algorithm contract. The result's Output and Has slices are
// scratch-owned: valid until the next run on this scratch.
func (s *Scratch) RobustApproxQuantile(values []int64, phi, eps float64, opt RobustOptions) RobustResult {
	e := s.ws.Engine()
	n := e.N()
	if len(values) != n {
		panic(fmt.Sprintf("tournament: %d values for %d nodes", len(values), n))
	}
	eps = ClampEps(eps)
	mu := opt.Mu
	if mu == 0 {
		mu = sim.MaxProb(e.Failures(), n)
	}

	s.bufA = ensureInt64(s.bufA, n)
	s.bufB = ensureInt64(s.bufB, n)
	cur, next := s.bufA, s.bufB
	copy(cur, values)
	s.good = ensureBool(s.good, n)
	s.nextGood = ensureBool(s.nextGood, n)
	good, nextGood := s.good, s.nextGood
	for v := range good {
		good[v] = true // "Initially, every node is good."
	}
	dst := s.ws.Dst(0)

	// gather pulls k times and collects, per node, up to capPer values
	// pulled from good sources (in pull order).
	gather := func(k, capPer int, out [][]int64) {
		for v := range out {
			out[v] = out[v][:0]
		}
		for r := 0; r < k; r++ {
			s.ws.Pull(dst, MessageBits)
			for v := 0; v < n; v++ {
				p := dst[v]
				if p == sim.NoPeer || !good[p] {
					continue
				}
				if len(out[v]) < capPer {
					out[v] = append(out[v], cur[p])
				}
			}
		}
	}

	e.SetPhase("tournament2")
	plan2 := s.plan2(phi, eps)
	k2 := PullsPerIteration(mu, 2)
	s.pulls = ensureRows(s.pulls, n)
	pulls := s.pulls
	deltaSrc := e.AlgorithmSource(deltaTag)
	var deltaRNG xrand.RNG
	for i := 0; i < plan2.Iterations(); i++ {
		gather(k2, 2, pulls)
		delta := plan2.Deltas[i]
		for v := 0; v < n; v++ {
			if !good[v] || len(pulls[v]) < 2 {
				nextGood[v] = false
				next[v] = cur[v]
				continue
			}
			nextGood[v] = true
			doTournament := delta >= 1
			if !doTournament {
				deltaSrc.SeedInto(&deltaRNG, uint64(v)<<20|uint64(i))
				doTournament = deltaRNG.Bool(delta)
			}
			if doTournament {
				next[v] = pick2(pulls[v][0], pulls[v][1], plan2.UseMin)
			} else {
				next[v] = pulls[v][0] // the 1-δ arm adopts the first good pull
			}
		}
		cur, next = next, cur
		good, nextGood = nextGood, good
		if opt.OnIteration != nil {
			opt.OnIteration(1, i, cur)
		}
	}

	e.SetPhase("tournament3")
	plan3 := s.plan3(eps/4, n)
	k3 := PullsPerIteration(mu, 3)
	for i := 0; i < plan3.Iterations(); i++ {
		gather(k3, 3, pulls)
		for v := 0; v < n; v++ {
			if !good[v] || len(pulls[v]) < 3 {
				nextGood[v] = false
				next[v] = cur[v]
				continue
			}
			nextGood[v] = true
			next[v] = median3(pulls[v][0], pulls[v][1], pulls[v][2])
		}
		cur, next = next, cur
		good, nextGood = nextGood, good
		if opt.OnIteration != nil {
			opt.OnIteration(2, i, cur)
		}
	}

	// Final step: pull FinalPulls times; nodes with K good pulls output the
	// median of the first K, others become bad and output nothing.
	e.SetPhase("final")
	kf := opt.k()
	s.finalPulls = ensureRows(s.finalPulls, n)
	finalPulls := s.finalPulls
	gather(FinalPulls(mu, kf), kf, finalPulls)
	s.out = ensureInt64(s.out, n)
	// nextGood doubles as the result's Has buffer from here on: the good-set
	// bookkeeping is complete, and reusing it keeps the scratch at two bool
	// buffers.
	clear(nextGood)
	res := RobustResult{Output: s.out, Has: nextGood}
	for v := 0; v < n; v++ {
		if good[v] && len(finalPulls[v]) >= kf {
			res.Output[v] = medianOf(finalPulls[v])
			res.Has[v] = true
		}
	}

	// Adoption rounds (Theorem 1.4's +t): uncovered nodes pull and adopt
	// the first output they reach; covered nodes keep theirs.
	e.SetPhase("adopt")
	for r := 0; r < opt.ExtraRounds; r++ {
		s.ws.Pull(dst, MessageBits)
		adoptVal := s.adoptVal[:0]
		adoptIdx := s.adoptIdx[:0]
		for v := 0; v < n; v++ {
			if res.Has[v] {
				continue
			}
			if p := dst[v]; p != sim.NoPeer && res.Has[p] {
				adoptIdx = append(adoptIdx, v)
				adoptVal = append(adoptVal, res.Output[p])
			}
		}
		// Two-step application keeps the round synchronous: adoptions in
		// round r expose their output only from round r+1 on.
		for j, v := range adoptIdx {
			res.Output[v] = adoptVal[j]
			res.Has[v] = true
		}
		s.adoptVal, s.adoptIdx = adoptVal, adoptIdx
	}
	return res
}

// GridQuantiles runs one ApproxQuantile per grid target, all on the
// scratch's engine — the shared core of OwnQuantiles-style computations
// (Corollary 1.5). dst[i] receives run i's per-node outputs; rows are
// allocated (or resized) as needed and dst itself is grown if shorter than
// grid, so passing nil yields a fresh table. The transcript is identical to
// running the package-level ApproxQuantile in a loop on the same engine.
func (s *Scratch) GridQuantiles(values []int64, grid []float64, eps float64, opt Options, dst [][]int64) [][]int64 {
	n := s.ws.Engine().N()
	for len(dst) < len(grid) {
		dst = append(dst, nil)
	}
	for i, phi := range grid {
		out := s.ApproxQuantile(values, phi, eps, opt)
		dst[i] = ensureInt64(dst[i], n)
		copy(dst[i], out)
	}
	return dst
}

// GridQuantiles is the one-shot form of Scratch.GridQuantiles: a throwaway
// scratch on e, bit-for-bit the transcript the method produces.
func GridQuantiles(e *sim.Engine, values []int64, grid []float64, eps float64, opt Options, dst [][]int64) [][]int64 {
	return NewScratch(e).GridQuantiles(values, grid, eps, opt, dst)
}
