package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"gossipq/internal/dist"
	"gossipq/internal/shard"
	"gossipq/internal/stats"
)

// mirror replays the benchmark's own mutation log over the population it
// regenerated from the seed, with the server's routing: one slice per shard
// (one in all for a single session), inserts to the currently smallest
// shard, deletes swap-removing within the owning shard, indices global over
// the concatenation of the shards.
type mirror struct {
	parts [][]int64
}

func newMirror(values []int64, shards int) *mirror {
	if shards < 1 {
		shards = 1
	}
	m := &mirror{parts: make([][]int64, shards)}
	for i := range m.parts {
		lo, hi := shard.Partition(len(values), shards, i)
		m.parts[i] = append([]int64(nil), values[lo:hi]...)
	}
	return m
}

func (m *mirror) locate(g int) (int, int, error) {
	for i, p := range m.parts {
		if g < len(p) {
			return i, g, nil
		}
		g -= len(p)
	}
	return 0, 0, fmt.Errorf("mutation index out of range")
}

func (m *mirror) apply(ops []mutOp) error {
	for _, op := range ops {
		switch op.kind {
		case opInsert:
			tgt := 0
			for i := range m.parts {
				if len(m.parts[i]) < len(m.parts[tgt]) {
					tgt = i
				}
			}
			m.parts[tgt] = append(m.parts[tgt], op.value)
		case opDelete:
			i, l, err := m.locate(op.index)
			if err != nil {
				return err
			}
			p := m.parts[i]
			p[l] = p[len(p)-1]
			m.parts[i] = p[:len(p)-1]
		case opUpdate:
			i, l, err := m.locate(op.index)
			if err != nil {
				return err
			}
			m.parts[i][l] = op.value
		}
	}
	return nil
}

func (m *mirror) oracle() *stats.Oracle {
	var all []int64
	for _, p := range m.parts {
		all = append(all, p...)
	}
	return stats.NewOracle(all)
}

type answerJSON struct {
	Value           int64  `json:"value"`
	Mode            string `json:"mode"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	Error           string `json:"error"`
}

type mutateJSON struct {
	Generation uint64 `json:"generation"`
	Ops        int    `json:"ops"`
	Repair     string `json:"repair"`
}

// claim is one answer to check: it must hold on at least one population
// generation in [lo, hi], the generations the server could have served it
// from while the request was in flight.
type claim struct {
	lo, hi int
	phi    float64
	eps    float64 // 0: exact
	value  int64
	served string // how the server says it answered, for the report
	ok     bool
	// the smallest rank error over the window, and the population size
	// there, for the report
	bestErr, bestN int
}

// verdict is the outcome of checking one phase.
type verdict struct {
	checked, missed int
	badMutations    int
	notes           []string
}

// window returns the generation range a request spanning [sent, end] could
// have observed: mutations complete before it was sent are in, mutations
// sent before it was answered may be. muts is the mutation stream in send
// order (one connection, so the server applied them in that order).
func window(muts []sample, sent, end time.Time) (int, int) {
	lo := sort.Search(len(muts), func(i int) bool { return !muts[i].end.Before(sent) })
	hi := sort.Search(len(muts), func(i int) bool { return !muts[i].sent.Before(end) })
	return lo, hi
}

// verify checks every answer of the phase against the oracle. The mutation
// responses must carry consecutive generations — the order the oracle
// replays — and the right op counts.
func verify(sp spec, in *inputs, ph *phase) verdict {
	var v verdict
	muts, batches := ph.muts(), ph.batches
	// Only mutations that were sent take part; their order is the stream's.
	var sentMuts []sample
	var sentBatches []*mutBatch
	for i := range muts {
		if muts[i].skipped || muts[i].sent.IsZero() {
			continue
		}
		m := muts[i]
		if !m.ok() {
			v.badMutations++
			v.notes = append(v.notes, fmt.Sprintf("mutation %d failed: status %d err %v body %s", i, m.status, m.err, m.body))
			continue
		}
		var mj mutateJSON
		if err := json.Unmarshal(m.body, &mj); err != nil || mj.Generation != uint64(len(sentMuts)+1) || mj.Ops != len(batches[i].ops) {
			v.badMutations++
			v.notes = append(v.notes, fmt.Sprintf("mutation %d: unexpected response %s", i, m.body))
			continue
		}
		sentMuts = append(sentMuts, m)
		sentBatches = append(sentBatches, batches[i])
	}

	var claims []claim
	add := func(s *sample, phi, eps float64) {
		if s.skipped || !s.ok() {
			return
		}
		var a answerJSON
		if err := json.Unmarshal(s.body, &a); err != nil || a.Error != "" {
			v.checked++
			v.missed++
			v.notes = append(v.notes, fmt.Sprintf("unreadable answer %s", s.body))
			return
		}
		lo, hi := window(sentMuts, s.sent, s.end)
		served := a.Mode
		if a.SnapshotVersion > 0 {
			served += fmt.Sprintf(" v%d", a.SnapshotVersion)
		}
		claims = append(claims, claim{lo: lo, hi: hi, phi: phi, eps: eps, value: a.Value, served: served})
	}
	for i := range ph.reads {
		add(&ph.reads[i], in.reads[i].phi, sp.eps)
	}
	for i := range ph.proto {
		q := in.proto[i]
		e := sp.eps
		if q.exact {
			e = 0
		}
		add(&ph.proto[i], q.phi, e)
	}
	sort.Slice(claims, func(i, j int) bool { return claims[i].lo < claims[j].lo })

	m := newMirror(dist.Generate(populationKind, sp.n, in.popSeed), sp.shards)
	next := 0
	var active []int
	for g := 0; g <= len(sentMuts); g++ {
		if g > 0 {
			if err := m.apply(sentBatches[g-1].ops); err != nil {
				v.notes = append(v.notes, fmt.Sprintf("replaying mutation %d: %v", g-1, err))
				v.badMutations++
				break
			}
		}
		for next < len(claims) && claims[next].lo <= g {
			active = append(active, next)
			next++
		}
		if len(active) == 0 {
			continue
		}
		o := m.oracle()
		keep := active[:0]
		for _, ci := range active {
			c := &claims[ci]
			if !c.ok {
				if c.eps == 0 {
					c.ok = c.value == o.Quantile(c.phi)
				} else {
					c.ok = o.WithinEpsilon(c.value, c.phi, c.eps)
				}
				if e := o.RankError(c.value, c.phi); c.bestN == 0 || e < c.bestErr {
					c.bestErr, c.bestN = e, o.N()
				}
			}
			if c.hi > g && !c.ok {
				keep = append(keep, ci)
			}
		}
		active = keep
	}
	for i := range claims {
		v.checked++
		if !claims[i].ok {
			v.missed++
			if len(v.notes) < 10 {
				c := claims[i]
				v.notes = append(v.notes, fmt.Sprintf("answer %d (%s) for phi=%g eps=%g outside the oracle on generations %d..%d: rank error %d at n=%d, bound %.0f",
					c.value, c.served, c.phi, c.eps, c.lo, c.hi, c.bestErr, c.bestN, c.eps*float64(c.bestN)))
			}
		}
	}
	return v
}
