package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"gossipq/internal/dist"
)

// spec is one workload: the server shape it launches and the traffic it
// drives. Every workload carries an open-loop snapshot read stream, so
// read latency, set-up time and memory are measured on all of them; the
// other streams are what tell the workloads apart.
type spec struct {
	name   string
	n      int
	eps    float64 // -eps and -summary-eps of the server
	shards int     // 0: one `gossipq serve` process; S: a router plus S `gossipq shard` processes

	// The run opens with quiet snapshot reads at quietRate, alone on the
	// server; read_p50_us is measured there. Then either a ladder of read
	// rates (read-steady) or the workload's traffic, with reads at busyRate.
	ladder   []float64
	busyRate float64

	mutRate            float64 // open-loop /mutate batches per second (0: none)
	batchMin, batchMax int     // ops per batch

	protocol bool // closed-loop client sending mode=live and exact=true queries
}

const populationKind = dist.Uniform

// workloads are fixed in the benchmark so every commit is measured on the
// same traffic; the reasons for each are in README.md and BENCHMARK.json.
var workloads = map[string]spec{
	"read-steady": {
		name: "read-steady", n: 1 << 15, eps: 0.05,
		ladder: []float64{6000, 12000, 24000},
	},
	"churn-repair": {
		name: "churn-repair", n: 1 << 14, eps: 0.05,
		busyRate: 300,
		mutRate:  12, batchMin: 5, batchMax: 35,
	},
	"shard-tcp": {
		name: "shard-tcp", n: 1 << 14, eps: 0.05, shards: 2,
		busyRate: 300,
		mutRate:  4, batchMin: 6, batchMax: 26,
	},
	"live-exact": {
		name: "live-exact", n: 1 << 15, eps: 0.05,
		busyRate: 300, protocol: true,
	},
}

// quietRate is the snapshot-read rate of every run's opening phase. It is
// high enough that the CPUs never sit idle for long between requests and
// low enough to stay far below the server's capacity.
const quietRate = 3000

// idleRepairsPerLaunch is how many over-budget /mutate batches every
// workload sends, one after another, to each deployment it launches while
// nothing else runs: to the set-up-only launches right after set-up, to the
// last one after the timed phase. repair_s is their median. A repair with
// the server otherwise idle is the same work on every workload, and it is
// steadier from run to run than the repairs inside the traffic, which are
// reported as repair_busy_s. Spreading the repairs over the whole run,
// rather than one burst, keeps a minute-scale change in the speed of a
// shared machine from moving all of them at once.
const idleRepairsPerLaunch = 4

// quietShare is the share of the run the quiet phase takes.
const quietShare = 0.2

// phiMix is the fixed set of quantiles the generator draws from.
var phiMix = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// liveEveryExact is the closed-loop protocol client's mix: this many
// mode=live approximate queries per exact query.
const liveEveryExact = 8

type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opUpdate
)

var opNames = [...]string{"insert", "delete", "update"}

type mutOp struct {
	kind  opKind
	index int
	value int64
}

// readReq is one open-loop snapshot read, due at offset at from the start of
// the timed phase; step is its index in the rate schedule (0 = quiet).
type readReq struct {
	at   time.Duration
	step int
	phi  float64
}

type mutBatch struct {
	at   time.Duration
	ops  []mutOp
	body []byte
}

type protoReq struct {
	phi   float64
	exact bool
}

// inputs is everything the generator sends, derived from the workload seed
// alone. The servers receive only the population flags and these requests.
type inputs struct {
	popSeed uint64
	steps   []rateStep
	busy    time.Duration // when the workload's own traffic starts
	reads   []readReq
	muts    []mutBatch
	proto   []protoReq
	repairs []mutBatch // the idle repair batches, idleRepairsPerLaunch per launch
}

type rateStep struct {
	rate     float64
	from, to time.Duration
	ladder   bool // a read-steady ladder step, abandoned once it falls behind
}

// Seed-stream tags keep the derived streams independent of each other.
const (
	tagPop = iota + 1
	tagReads
	tagMuts
	tagValues
	tagProto
)

func rng(seed uint64, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15*tag))
}

func generate(sp spec, seed uint64, run time.Duration) *inputs {
	in := &inputs{popSeed: rng(seed, tagPop).Uint64()}

	// Rate schedule: the quiet phase, then the ladder's equal-length steps
	// or the busy phase.
	in.busy = time.Duration(quietShare * float64(run))
	in.steps = []rateStep{{rate: quietRate, from: 0, to: in.busy}}
	if k := len(sp.ladder); k > 0 {
		stepLen := (run - in.busy) / time.Duration(k)
		for i, r := range sp.ladder {
			from := in.busy + time.Duration(i)*stepLen
			in.steps = append(in.steps, rateStep{rate: r, from: from, to: from + stepLen, ladder: true})
		}
	} else {
		in.steps = append(in.steps, rateStep{rate: sp.busyRate, from: in.busy, to: run})
	}
	r := rng(seed, tagReads)
	for si, st := range in.steps {
		for t := st.from; st.rate > 0; {
			t += time.Duration(r.ExpFloat64() / st.rate * float64(time.Second))
			if t >= st.to {
				break
			}
			in.reads = append(in.reads, readReq{at: t, step: si, phi: phiMix[r.IntN(len(phiMix))]})
		}
	}

	// Mutation values come from the same distribution as the population.
	pool := dist.Generate(populationKind, 1<<14, rng(seed, tagValues).Uint64())
	next := 0
	value := func() int64 {
		v := pool[next%len(pool)]
		next++
		return v
	}
	n := sp.n
	mr := rng(seed, tagMuts)
	if sp.mutRate > 0 {
		// Evenly spaced batches, each jittered by up to a fifth of the gap:
		// Poisson arrivals would vary the number of repairs in a run, and
		// with it the memory high-water mark, from seed to seed.
		gap := time.Duration(float64(time.Second) / sp.mutRate)
		for k := 0; ; k++ {
			t := in.busy + time.Duration(k)*gap + time.Duration((mr.Float64()-0.5)*0.4*float64(gap))
			if t < in.busy {
				t = in.busy
			}
			if t >= run {
				break
			}
			size := sp.batchMin + mr.IntN(sp.batchMax-sp.batchMin+1)
			ops := make([]mutOp, size)
			for i := range ops {
				switch k := mr.IntN(4); {
				case k == 0:
					ops[i] = mutOp{kind: opInsert, value: value()}
					n++
				case k == 1:
					ops[i] = mutOp{kind: opDelete, index: mr.IntN(n)}
					n--
				default:
					ops[i] = mutOp{kind: opUpdate, index: mr.IntN(n), value: value()}
				}
			}
			in.muts = append(in.muts, mutBatch{at: t, ops: ops, body: encodeOps(ops)})
		}
	}
	// One op past the drift budget ⌊εn/2⌋ forces the rebuild; the same
	// batches must fit a fresh deployment (n = sp.n) and the one the timed
	// phase leaves behind. Sharded, the router's per-shard budgets are about
	// a quarter of each shard's share of that, so every shard rebuilds.
	size := int(sp.eps*float64(max(n, sp.n))/2) + 1
	for k := 0; k < setupRuns*idleRepairsPerLaunch; k++ {
		ops := make([]mutOp, size)
		for i := range ops {
			ops[i] = mutOp{kind: opUpdate, index: mr.IntN(min(n, sp.n)), value: value()}
		}
		in.repairs = append(in.repairs, mutBatch{ops: ops, body: encodeOps(ops)})
	}

	if sp.protocol {
		pr := rng(seed, tagProto)
		// More than a run can consume: an exact query alone takes ~1 s.
		for i := 0; i < 4096; i++ {
			in.proto = append(in.proto, protoReq{
				phi:   phiMix[pr.IntN(len(phiMix))],
				exact: i%(liveEveryExact+1) == 0,
			})
		}
	}
	return in
}

// launchRepairs returns the idle repair batches for launch i of a run.
func (in *inputs) launchRepairs(i int) []*mutBatch {
	var out []*mutBatch
	for k := i * idleRepairsPerLaunch; k < (i+1)*idleRepairsPerLaunch; k++ {
		out = append(out, &in.repairs[k])
	}
	return out
}

func encodeOps(ops []mutOp) []byte {
	b := []byte(`{"ops":[`)
	for i, op := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"`...)
		b = append(b, opNames[op.kind]...)
		b = append(b, '"')
		if op.kind != opInsert {
			b = append(b, `,"index":`...)
			b = strconv.AppendInt(b, int64(op.index), 10)
		}
		if op.kind != opDelete {
			b = append(b, `,"value":`...)
			b = strconv.AppendInt(b, op.value, 10)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func readTarget(phi float64) string {
	return "/quantile?phi=" + strconv.FormatFloat(phi, 'g', -1, 64)
}

func protoTarget(q protoReq) string {
	if q.exact {
		return readTarget(q.phi) + "&exact=true"
	}
	return readTarget(q.phi) + "&mode=live"
}

func (sp spec) String() string {
	return fmt.Sprintf("%s n=%d eps=%g shards=%d", sp.name, sp.n, sp.eps, sp.shards)
}
