package gossipq_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	"gossipq"
	"gossipq/internal/dist"
)

// TestSessionMutateBasics pins the mutation semantics: insert appends,
// delete swap-removes, update overwrites, each call is one generation step,
// batches are atomic, and live queries after a mutation answer for the
// post-mutation population.
func TestSessionMutateBasics(t *testing.T) {
	s, err := gossipq.NewSession([]int64{1, 2, 3, 4}, gossipq.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 0 || s.MutationOps() != 0 {
		t.Fatalf("fresh session at generation %d, ops %d", s.Generation(), s.MutationOps())
	}

	if gen := s.Insert(10); gen != 1 {
		t.Fatalf("Insert returned generation %d, want 1", gen)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d after insert, want 5", s.N())
	}
	if got := s.OracleQuantile(1); got != 10 {
		t.Fatalf("max after insert = %d, want 10", got)
	}
	a, err := s.ExactQuantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != 10 || a.Generation != 1 {
		t.Fatalf("live exact query after insert: value %d generation %d, want 10 @ 1", a.Value, a.Generation)
	}

	if gen, err := s.Update(0, -5); err != nil || gen != 2 {
		t.Fatalf("Update: gen %d, %v", gen, err)
	}
	if got := s.OracleQuantile(0.05); got != -5 {
		t.Fatalf("min after update = %d, want -5", got)
	}

	// Delete(0) swap-removes: the last value (10) moves into index 0, so the
	// population becomes {10, 2, 3, 4}.
	if gen, err := s.Delete(0); err != nil || gen != 3 {
		t.Fatalf("Delete: gen %d, %v", gen, err)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d after delete, want 4", s.N())
	}
	if got := s.OracleQuantile(0.05); got != 2 {
		t.Fatalf("min after delete = %d, want 2 (swap-remove keeps the last value)", got)
	}
	if got := s.OracleQuantile(1); got != 10 {
		t.Fatalf("max after delete = %d, want 10", got)
	}

	// A batch is one generation step, with indices read against the
	// population as edited by the batch's preceding ops.
	if gen, err := s.Mutate([]gossipq.Mutation{
		{Op: gossipq.OpInsert, Value: 100},
		{Op: gossipq.OpUpdate, Index: 4, Value: 200}, // index 4 exists only after the insert
	}); err != nil || gen != 4 {
		t.Fatalf("Mutate: gen %d, %v", gen, err)
	}
	if got := s.OracleQuantile(1); got != 200 {
		t.Fatalf("max after batch = %d, want 200", got)
	}
	if s.MutationOps() != 5 {
		t.Fatalf("MutationOps = %d, want 5", s.MutationOps())
	}

	// Failed calls change nothing — including a batch whose later op is
	// invalid (atomicity).
	nBefore, genBefore := s.N(), s.Generation()
	if _, err := s.Delete(-1); err == nil {
		t.Error("Delete(-1) accepted")
	}
	if _, err := s.Delete(nBefore); err == nil {
		t.Error("Delete(N) accepted")
	}
	if _, err := s.Update(nBefore, 0); err == nil {
		t.Error("Update(N) accepted")
	}
	if _, err := s.Mutate([]gossipq.Mutation{
		{Op: gossipq.OpInsert, Value: 1},
		{Op: gossipq.OpDelete, Index: 99},
	}); err == nil {
		t.Error("batch with out-of-range delete accepted")
	}
	if _, err := s.Mutate([]gossipq.Mutation{{Op: gossipq.MutOp(9)}}); err == nil {
		t.Error("unknown op accepted")
	}
	if s.N() != nBefore || s.Generation() != genBefore {
		t.Fatalf("failed mutations changed state: n %d->%d gen %d->%d",
			nBefore, s.N(), genBefore, s.Generation())
	}
	if gen, err := s.Mutate(nil); err != nil || gen != genBefore {
		t.Fatalf("empty batch: gen %d, %v, want no-op at %d", gen, err, genBefore)
	}

	// The population may never shrink below two values.
	tiny, err := gossipq.NewSession([]int64{1, 2}, gossipq.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Delete(0); err == nil {
		t.Error("delete below n=2 accepted")
	}
}

// churnOp is one step of a scripted churn interleaving: a mutation, a query
// (live, snapshot, or exact), or a refresh (gated or forced). Index is
// reduced modulo the population size at application time, so any
// subsequence of a valid script is also valid — which is what makes the
// recorded op log shrinkable.
type churnOp struct {
	Kind  byte // 'I' insert, 'D' delete, 'U' update, 'Q' live query, 'S' snapshot query, 'X' exact query, 'R' refresh, 'F' force-refresh
	Index int
	Value int64
	Phi   float64
}

// runChurnScript replays script on a fresh session while maintaining a
// shadow copy of the population, and checks every answer against the shadow:
// live answers within ±εn of the post-mutation oracle (exact answers at the
// exact ⌈φn⌉ rank), snapshot answers within ±εn of the *current* population
// (the drift gate's promise), and generation stamps consistent throughout.
// It returns the first violation.
func runChurnScript(values []int64, cfg gossipq.Config, eps float64, script []churnOp) error {
	s, err := gossipq.NewSession(values, cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	shadow := append([]int64(nil), values...)
	sorted := append([]int64(nil), values...)
	resort := func() {
		sorted = append(sorted[:0], shadow...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	}
	resort()
	var gen uint64

	checkRank := func(step int, value int64, phi, tol float64) error {
		n := len(sorted)
		target := int(math.Ceil(phi * float64(n)))
		if target < 1 {
			target = 1
		}
		if target > n {
			target = n
		}
		lo := sort.Search(n, func(i int) bool { return sorted[i] >= value })
		hi := sort.Search(n, func(i int) bool { return sorted[i] > value })
		if lo == hi {
			return fmt.Errorf("step %d: answer %d is not a population value", step, value)
		}
		slack := int(tol * float64(n))
		if hi < target-slack || lo+1 > target+slack {
			return fmt.Errorf("step %d: answer %d occupies ranks [%d,%d], want within ±%d of %d (n=%d, phi=%v)",
				step, value, lo+1, hi, slack, target, n, phi)
		}
		return nil
	}

	for i, op := range script {
		switch op.Kind {
		case 'I':
			if g := s.Insert(op.Value); g != gen+1 {
				return fmt.Errorf("step %d: insert moved generation %d -> %d", i, gen, g)
			}
			gen++
			shadow = append(shadow, op.Value)
			resort()
		case 'D':
			if len(shadow) <= 2 {
				continue
			}
			idx := op.Index % len(shadow)
			g, err := s.Delete(idx)
			if err != nil {
				return fmt.Errorf("step %d: delete(%d) on n=%d: %v", i, idx, len(shadow), err)
			}
			if g != gen+1 {
				return fmt.Errorf("step %d: delete moved generation %d -> %d", i, gen, g)
			}
			gen++
			shadow[idx] = shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			resort()
		case 'U':
			idx := op.Index % len(shadow)
			g, err := s.Update(idx, op.Value)
			if err != nil {
				return fmt.Errorf("step %d: update(%d): %v", i, idx, err)
			}
			if g != gen+1 {
				return fmt.Errorf("step %d: update moved generation %d -> %d", i, gen, g)
			}
			gen++
			shadow[idx] = op.Value
			resort()
		case 'Q', 'S':
			q := gossipq.Query{Phi: op.Phi, Eps: eps}
			if op.Kind == 'S' {
				q.Mode = gossipq.ServeSnapshot
			}
			a, err := s.Ask(q)
			if err != nil {
				return fmt.Errorf("step %d: query: %v", i, err)
			}
			if a.Mode == gossipq.ServeSnapshot {
				if a.Generation > gen {
					return fmt.Errorf("step %d: snapshot answer from future generation %d > %d", i, a.Generation, gen)
				}
			} else if a.Generation != gen {
				return fmt.Errorf("step %d: live answer stamped generation %d, session at %d", i, a.Generation, gen)
			}
			// ±εn against the current (post-mutation) population — for
			// snapshot answers this is exactly the drift gate's promise.
			if err := checkRank(i, a.Value, op.Phi, eps); err != nil {
				return err
			}
		case 'X':
			a, err := s.ExactQuantile(op.Phi)
			if err != nil {
				return fmt.Errorf("step %d: exact query: %v", i, err)
			}
			if a.Generation != gen {
				return fmt.Errorf("step %d: exact answer stamped generation %d, session at %d", i, a.Generation, gen)
			}
			if err := checkRank(i, a.Value, op.Phi, 0); err != nil {
				return err
			}
		case 'R':
			if _, err := s.Refresh(eps); err != nil {
				return fmt.Errorf("step %d: refresh: %v", i, err)
			}
		case 'F':
			if _, err := s.ForceRefresh(eps); err != nil {
				return fmt.Errorf("step %d: force-refresh: %v", i, err)
			}
		}
		if got := s.N(); got != len(shadow) {
			return fmt.Errorf("step %d: session n=%d, shadow n=%d", i, got, len(shadow))
		}
	}
	return nil
}

// shrinkChurn greedily removes chunks of the failing script while the
// failure reproduces, returning a (locally) minimal failing script —
// subsequences stay valid because indices are interpreted modulo the
// population at application time.
func shrinkChurn(script []churnOp, fails func([]churnOp) error) []churnOp {
	for size := len(script) / 2; size >= 1; size /= 2 {
		for i := 0; i+size <= len(script); {
			cand := append(append([]churnOp(nil), script[:i]...), script[i+size:]...)
			if fails(cand) != nil {
				script = cand
			} else {
				i += size
			}
		}
	}
	return script
}

// TestSessionChurnProperty is the property-based churn test: seeded random
// interleavings of Insert/Delete/Update/Query/Refresh, with every answer
// checked against an independently maintained shadow population. On failure
// the recorded op log is shrunk to a minimal reproduction before reporting.
func TestSessionChurnProperty(t *testing.T) {
	const n0 = 256
	const eps = 0.1
	values := dist.Generate(dist.Zipf, n0, 91)
	cfg := gossipq.Config{Seed: 93}

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		steps := 80
		if testing.Short() {
			steps = 40
		}
		script := make([]churnOp, 0, steps)
		kinds := []byte{'I', 'D', 'U', 'U', 'Q', 'Q', 'S', 'X', 'R', 'F'}
		for i := 0; i < steps; i++ {
			script = append(script, churnOp{
				Kind:  kinds[rng.Intn(len(kinds))],
				Index: rng.Intn(1 << 20),
				Value: rng.Int63n(1<<30) - (1 << 29),
				Phi:   float64(rng.Intn(101)) / 100,
			})
		}
		run := func(sc []churnOp) error { return runChurnScript(values, cfg, eps, sc) }
		if err := run(script); err != nil {
			min := shrinkChurn(script, run)
			t.Fatalf("seed %d: churn property violated: %v\nshrunk to %d ops: %+v",
				seed, run(min), len(min), min)
		}
	}
}

// TestSessionMutationReplayRace extends the PR 4 concurrency contract to
// churn (run under -race in CI): queriers, mutators, and a refresher race
// freely; afterwards the recorded (generation, query) pairs must reproduce
// bit-for-bit on a fresh session by replaying the mutation log in
// generation order and the queries in id order.
func TestSessionMutationReplayRace(t *testing.T) {
	const n0 = 512
	values := dist.Generate(dist.Gaussian, n0, 23)
	cfg := gossipq.Config{Seed: 31}
	s, err := gossipq.NewSession(values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type mutRec struct {
		gen uint64
		ops []gossipq.Mutation
	}
	type ansRec struct {
		q gossipq.Query
		a gossipq.Answer
	}
	var (
		mu      sync.Mutex
		mutLog  []mutRec
		answers []ansRec
	)

	phis := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Queriers: Ask plus one Batch each, all live-served.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q := gossipq.Query{Phi: phis[(g+i)%len(phis)], Eps: 0.12 + 0.01*float64(g)}
				if g == 0 && i == 0 {
					q = gossipq.Query{Phi: 0.5, Exact: true}
				}
				a, err := s.Ask(q)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				answers = append(answers, ansRec{q: q, a: a})
				mu.Unlock()
			}
			qs := []gossipq.Query{
				{Phi: phis[g], Eps: 0.15},
				{Phi: phis[(g+2)%len(phis)], Eps: 0.2},
			}
			batch, err := s.Batch(qs)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			for i, a := range batch {
				if a.Err != nil {
					errs <- a.Err
				}
				answers = append(answers, ansRec{q: qs[i], a: a})
			}
			mu.Unlock()
		}(g)
	}
	// Mutators: updates and insert/delete pairs, always valid (indices stay
	// below the minimum possible population size).
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var ops []gossipq.Mutation
				if i%3 == m%2 {
					ops = []gossipq.Mutation{
						{Op: gossipq.OpInsert, Value: int64(1000*m + i)},
						{Op: gossipq.OpDelete, Index: 0},
					}
				} else {
					ops = []gossipq.Mutation{{Op: gossipq.OpUpdate, Index: (37*m + 13*i) % 256, Value: int64(m*100 - i)}}
				}
				gen, err := s.Mutate(ops)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				mutLog = append(mutLog, mutRec{gen: gen, ops: ops})
				mu.Unlock()
			}
		}(m)
	}
	// Refresher: gated and forced refreshes racing everything.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := s.Refresh(0.2); err != nil {
				errs <- err
				return
			}
		}
		if _, err := s.ForceRefresh(0.2); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The mutation log, sorted by generation, must be the dense sequence
	// 1..M — each successful call is exactly one generation step.
	sort.Slice(mutLog, func(i, j int) bool { return mutLog[i].gen < mutLog[j].gen })
	for i, m := range mutLog {
		if m.gen != uint64(i+1) {
			t.Fatalf("mutation log gap: entry %d has generation %d", i, m.gen)
		}
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].a.QueryID < answers[j].a.QueryID })
	if got := s.QueriesIssued(); got != uint64(len(answers)) {
		t.Fatalf("issued %d ids for %d recorded answers", got, len(answers))
	}
	for i, r := range answers {
		if r.a.QueryID != uint64(i) {
			t.Fatalf("query ids not dense: position %d holds id %d", i, r.a.QueryID)
		}
	}

	// Replay: a fresh session, mutations applied in generation order, each
	// query re-issued once its recorded generation is reached. Sequential
	// issuance reassigns the same ids, so every answer must reproduce
	// bit-for-bit.
	replay, err := gossipq.NewSession(values, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	next := 0
	for _, r := range answers {
		for replay.Generation() < r.a.Generation {
			if next >= len(mutLog) {
				t.Fatalf("answer id %d stamped generation %d beyond the mutation log", r.a.QueryID, r.a.Generation)
			}
			if _, err := replay.Mutate(mutLog[next].ops); err != nil {
				t.Fatal(err)
			}
			next++
		}
		got, err := replay.Ask(r.q)
		if err != nil {
			t.Fatal(err)
		}
		if got != r.a {
			t.Fatalf("id %d (gen %d) replays differently:\nconcurrent: %+v\nreplay:     %+v",
				r.a.QueryID, r.a.Generation, r.a, got)
		}
	}
}

// TestMutationAllocs pins the churn API's allocation contract: steady-state
// Insert/Delete/Update allocate nothing, and a forced (over-budget) repair
// stays within the snapshot tier's ≤16-alloc rebuild bound.
func TestMutationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const n = 4096
	const eps = 0.1 // drift budget = 204 ops
	values := dist.Generate(dist.Uniform, n, 95)
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	// Reach steady state: one insert grows the values slice's capacity once.
	s.Insert(1)
	if _, err := s.Delete(0); err != nil {
		t.Fatal(err)
	}

	if avg := testing.AllocsPerRun(200, func() {
		s.Insert(42)
		if _, err := s.Delete(0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state insert+delete: %v allocs, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Update(7, 99); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state update: %v allocs, want 0", avg)
	}

	// Warm the snapshot tier with two builds, then measure a drift-forced
	// repair — churn past the budget, then the gated Refresh must rebuild
	// within the snapshot tier's rebuild bound.
	if _, err := s.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ForceRefresh(eps); err != nil {
		t.Fatal(err)
	}
	version, _ := s.Snapshot()
	if avg := testing.AllocsPerRun(3, func() {
		for i := 0; i < 205; i++ {
			if _, err := s.Update(i, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Refresh(eps); err != nil {
			t.Fatal(err)
		}
	}); avg > 16 {
		t.Errorf("drift-forced repair: %v allocs, want ≤ 16", avg)
	}
	after, _ := s.Snapshot()
	if after.Version <= version.Version {
		t.Errorf("forced repairs did not advance the version: %d -> %d", version.Version, after.Version)
	}
}
