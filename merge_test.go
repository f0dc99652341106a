package gossipq

import (
	"math"
	"testing"

	"gossipq/internal/dist"
	"gossipq/internal/stats"
)

// mergeProbePhis spans the quantile range including both endpoints' clamp
// neighborhoods.
var mergeProbePhis = []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}

// TestSummaryMergeAccuracy is the headline property: merging two summaries
// built on disjoint populations answers quantile queries on the combined
// population within ±(ε₁+ε₂), checked against the exact combined oracle
// across workload pairs and widths.
func TestSummaryMergeAccuracy(t *testing.T) {
	cases := []struct {
		name         string
		ka, kb       dist.Kind
		na, nb       int
		epsA, epsB   float64
		seedA, seedB uint64
	}{
		{"uniform+uniform", dist.Uniform, dist.Uniform, 4096, 4096, 0.1, 0.1, 101, 102},
		{"uniform+gaussian", dist.Uniform, dist.Gaussian, 8192, 2048, 0.1, 0.125, 103, 104},
		{"sequential+uniform", dist.Sequential, dist.Uniform, 3000, 5000, 0.125, 0.1, 105, 106},
		{"asymmetric-eps", dist.Gaussian, dist.Gaussian, 4096, 4096, 0.05, 0.2, 107, 108},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			va := dist.Generate(tc.ka, tc.na, tc.seedA)
			vb := dist.Generate(tc.kb, tc.nb, tc.seedB)
			sa, err := BuildSummary(va, tc.epsA, Config{Seed: 51})
			if err != nil {
				t.Fatal(err)
			}
			sb, err := BuildSummary(vb, tc.epsB, Config{Seed: 53})
			if err != nil {
				t.Fatal(err)
			}
			m, err := sa.Merge(sb)
			if err != nil {
				t.Fatal(err)
			}
			bound := tc.epsA + tc.epsB
			if got := m.Eps(); math.Abs(got-math.Min(bound, 0.5)) > 1e-12 {
				t.Fatalf("merged eps = %v, want %v", got, bound)
			}
			if m.N() != tc.na+tc.nb {
				t.Fatalf("merged N = %d, want %d", m.N(), tc.na+tc.nb)
			}
			o := stats.NewOracle(append(append([]int64{}, va...), vb...))
			for _, phi := range mergeProbePhis {
				if x := m.Query(0, phi); !o.WithinEpsilon(x, phi, bound) {
					t.Errorf("phi=%v: merged answer %d outside ±(ε₁+ε₂)=%v of combined oracle", phi, x, bound)
				}
			}
		})
	}
}

// TestSummaryMergeSkewedSplit pins the 1:1000 size skew: the tiny
// population must barely move the merged answers, and the merge must still
// honor the combined bound.
func TestSummaryMergeSkewedSplit(t *testing.T) {
	const eps = 0.1
	big := dist.Generate(dist.Uniform, 2000, 201)
	tiny := dist.Generate(dist.Gaussian, 2, 203)
	sb, err := BuildSummary(big, eps, Config{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildSummary(tiny, eps, Config{Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	o := stats.NewOracle(append(append([]int64{}, big...), tiny...))
	// Both merge orders: the weighting, not the argument order, must decide.
	for _, m := range []*Summary{mustMerge(t, sb, st), mustMerge(t, st, sb)} {
		for _, phi := range mergeProbePhis {
			if x := m.Query(0, phi); !o.WithinEpsilon(x, phi, 2*eps) {
				t.Errorf("phi=%v: skewed merge answer %d outside ±2ε", phi, x)
			}
		}
	}
}

func mustMerge(t *testing.T, a, b *Summary) *Summary {
	t.Helper()
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMergeSummariesOrderInsensitive asserts the conformance-critical
// bit-identity: merging the same summaries in any order produces the same
// cut vector, exactly.
func TestMergeSummariesOrderInsensitive(t *testing.T) {
	const eps = 0.2
	var sums []*Summary
	for i, n := range []int{1024, 4096, 733} {
		v := dist.Generate(dist.Kind(i%3), n, uint64(301+i))
		s, err := BuildSummary(v, eps/2, Config{Seed: uint64(71 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	ref, err := MergeSummaries(sums, eps)
	if err != nil {
		t.Fatal(err)
	}
	refCuts := ref.EnvelopeView(0, nil)
	orders := [][]int{{0, 2, 1}, {1, 0, 2}, {2, 1, 0}}
	for _, ord := range orders {
		perm := []*Summary{sums[ord[0]], sums[ord[1]], sums[ord[2]]}
		m, err := MergeSummaries(perm, eps)
		if err != nil {
			t.Fatal(err)
		}
		got := m.EnvelopeView(0, nil)
		for g := range refCuts {
			if got[g] != refCuts[g] {
				t.Fatalf("order %v: cut[%d] = %d, want %d (merge is order-sensitive)", ord, g, got[g], refCuts[g])
			}
		}
	}
}

// TestMergedSummaryClampPaths re-runs the PR 5 clamp regressions on a merged
// summary: NaN and out-of-range φ must take the endpoint branches, and Rank
// must cap at 1.
func TestMergedSummaryClampPaths(t *testing.T) {
	a, err := BuildSummary(dist.Generate(dist.Uniform, 2048, 401), 0.125, Config{Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSummary(dist.Generate(dist.Sequential, 2048, 403), 0.125, Config{Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	m := mustMerge(t, a, b)
	if got, want := m.Query(0, math.NaN()), m.Query(0, 0); got != want {
		t.Errorf("Query(NaN) = %d, want Query(0) = %d", got, want)
	}
	if got, want := m.Query(0, -3), m.Query(0, 0); got != want {
		t.Errorf("Query(-3) = %d, want Query(0) = %d", got, want)
	}
	if got, want := m.Query(0, 7), m.Query(0, 1); got != want {
		t.Errorf("Query(7) = %d, want Query(1) = %d", got, want)
	}
	if r := m.Rank(0, math.MaxInt64); r > 1 {
		t.Errorf("Rank(max) = %v > 1", r)
	}
	if r := m.Rank(0, math.MinInt64); r < 0 || r > m.Eps() {
		t.Errorf("Rank(min) = %v, want a near-zero estimate", r)
	}
}

// TestMergeValidation covers the refusal paths.
func TestMergeValidation(t *testing.T) {
	s, err := BuildSummary(dist.Generate(dist.Uniform, 512, 405), 0.25, Config{Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSummaries(nil, 0.25); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeSummaries([]*Summary{s, nil}, 0.25); err == nil {
		t.Error("nil input accepted")
	}
	if _, err := MergeSummaries([]*Summary{s}, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := MergeSummaries([]*Summary{s}, 0.9); err == nil {
		t.Error("eps=0.9 accepted")
	}
	if _, err := MergeSummaries([]*Summary{s}, math.NaN()); err == nil {
		t.Error("eps=NaN accepted")
	}
	// A wide pair clamps the merged width to the 0.5 domain cap.
	wide := mustMerge(t, s, s)
	if wide.Eps() != 0.5 {
		t.Errorf("0.25+0.25 merge eps = %v, want clamp to 0.5", wide.Eps())
	}
}

// TestNewSummaryFromCutsRoundTrip pins the wire round-trip the shard tier
// relies on: EnvelopeView → NewSummaryFromCuts preserves every answer.
func TestNewSummaryFromCutsRoundTrip(t *testing.T) {
	const eps = 0.125
	values := dist.Generate(dist.Gaussian, 4096, 407)
	s, err := BuildSummary(values, eps, Config{Seed: 87})
	if err != nil {
		t.Fatal(err)
	}
	cuts := s.EnvelopeView(0, nil)
	r, err := NewSummaryFromCuts(eps, s.N(), cuts)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != s.N() || r.Eps() != s.Eps() || r.GridSize() != s.GridSize() {
		t.Fatalf("round-trip changed shape: n=%d eps=%v grid=%d", r.N(), r.Eps(), r.GridSize())
	}
	for _, phi := range mergeProbePhis {
		// The reconstituted summary answers from the envelope; node 0's
		// envelope and raw cuts agree wherever the raw vector is locally
		// monotone, and both are valid ±ε answers everywhere.
		if got := r.Query(0, phi); got != r.Query(0, phi) {
			t.Fatalf("unstable answer at phi=%v", phi)
		}
	}
	for _, x := range []int64{values[0], values[100], math.MinInt64, math.MaxInt64} {
		if got, want := r.Rank(0, x), summaryEnvelopeRank(s, x); got != want {
			t.Errorf("Rank(%d) = %v, want %v", x, got, want)
		}
	}
	// Refusal paths: truncated, padded, and non-monotone wire payloads.
	if _, err := NewSummaryFromCuts(eps, 4096, cuts[:len(cuts)-1]); err == nil {
		t.Error("truncated cut vector accepted")
	}
	if _, err := NewSummaryFromCuts(eps, 4096, append(append([]int64{}, cuts...), 1)); err == nil {
		t.Error("padded cut vector accepted")
	}
	bad := append([]int64{}, cuts...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if len(bad) > 1 && bad[0] != bad[len(bad)-1] {
		if _, err := NewSummaryFromCuts(eps, 4096, bad); err == nil {
			t.Error("non-monotone cut vector accepted")
		}
	}
	if _, err := NewSummaryFromCuts(eps, 0, cuts); err == nil {
		t.Error("n=0 accepted")
	}
}

// summaryEnvelopeRank is the node-0 envelope Rank — what the round-trip
// preserves by construction.
func summaryEnvelopeRank(s *Summary, x int64) float64 {
	g := 0
	env := s.EnvelopeView(0, nil)
	for g < len(env) && env[g] < x {
		g++
	}
	est := (float64(g) + 0.5) * s.grid[0]
	if est > 1 {
		est = 1
	}
	return est
}

// TestMergeSteadyStateAllocs pins the merge's allocation budget: a merge
// allocates only the Summary header, its grid, the candidate and cursor
// buffers, and one cut-table slab with its row table — well under the ≤16
// refresh budget the sharded session inherits.
func TestMergeSteadyStateAllocs(t *testing.T) {
	const eps = 0.1
	var sums []*Summary
	for i := 0; i < 4; i++ {
		v := dist.Generate(dist.Uniform, 2048, uint64(501+i))
		s, err := BuildSummary(v, eps/2, Config{Seed: uint64(91 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, s)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := MergeSummaries(sums, eps); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("steady-state merge allocates %.0f objects, want <= 16", allocs)
	}
}

// FuzzSummaryMerge fuzzes the merge over workload kinds, sizes, and widths:
// every merge must produce a monotone cut vector whose answers stay within
// the combined bound of the exact oracle.
func FuzzSummaryMerge(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(256), uint16(1024), uint8(2), uint8(3), uint64(1))
	f.Add(uint8(2), uint8(0), uint16(2), uint16(2000), uint8(1), uint8(1), uint64(7))
	f.Add(uint8(1), uint8(1), uint16(512), uint16(512), uint8(4), uint8(4), uint64(9))
	f.Fuzz(func(t *testing.T, ka, kb uint8, na, nb uint16, ea, eb uint8, seed uint64) {
		kindA := dist.Kind(int(ka) % len(dist.Kinds()))
		kindB := dist.Kind(int(kb) % len(dist.Kinds()))
		nA := 2 + int(na)%4096
		nB := 2 + int(nb)%4096
		epsA := []float64{0.05, 0.1, 0.125, 0.2, 0.25}[int(ea)%5]
		epsB := []float64{0.05, 0.1, 0.125, 0.2, 0.25}[int(eb)%5]
		va := dist.Generate(kindA, nA, seed|1)
		vb := dist.Generate(kindB, nB, (seed>>1)|1)
		sa, err := BuildSummary(va, epsA, Config{Seed: seed ^ 0x5a5a})
		if err != nil {
			t.Skip()
		}
		sb, err := BuildSummary(vb, epsB, Config{Seed: seed ^ 0xa5a5})
		if err != nil {
			t.Skip()
		}
		m, err := sa.Merge(sb)
		if err != nil {
			t.Fatalf("merge refused valid summaries: %v", err)
		}
		env := m.EnvelopeView(0, nil)
		for g := 1; g < len(env); g++ {
			if env[g] < env[g-1] {
				t.Fatalf("merged cuts not monotone at %d", g)
			}
		}
		o := stats.NewOracle(append(append([]int64{}, va...), vb...))
		bound := math.Min(epsA+epsB, 0.5)
		for _, phi := range []float64{0.1, 0.5, 0.9} {
			if x := m.Query(0, phi); !o.WithinEpsilon(x, phi, bound) {
				t.Errorf("phi=%v: merged answer %d outside ±%v (nA=%d nB=%d epsA=%v epsB=%v)",
					phi, x, bound, nA, nB, epsA, epsB)
			}
		}
	})
}
