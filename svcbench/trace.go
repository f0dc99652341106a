package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/exact"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
	"gossipq/internal/sim"
	"gossipq/internal/stats"
	"gossipq/internal/tournament"
)

// perLayerMetrics are the metrics of a traced run's JSON line: the
// per_layer list of BENCHMARK.json.
var perLayerMetrics = []string{
	"http.quantile_handler_us", "http.mutate_handler_ms", "http.overhead_us",
	"session.snapshot_ask_ns", "session.live_ask_ms", "session.mutate_us", "session.mutate_wait_ms",
	"session.refresh_s", "session.refresh_skip_ratio", "session.snapshot_hit_ratio",
	"summary.build_s", "summary.build_peak_heap_mb", "summary.retained_mb", "summary.merge_us",
	"tournament.grid_s", "tournament.approx_ms", "tournament.grid_rounds",
	"sim.pull_round_us", "sim.rounds_per_refresh", "sim.messages_per_refresh",
	"exact.quantile_ms", "exact.rounds",
	"shard.gather_s", "shard.mutate_rtt_us", "shard.frames_per_epoch", "shard.words_per_epoch", "shard.hops_per_epoch",
	"loadgen.late_p99_ms", "rss.serve_mb", "trace.overhead_us",
}

// span is one timed call recorded by the benchmark: its name is
// "<layer>.<call>", parent the id of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's first span
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return id
}

// open starts a span whose end is filled in by the returned function.
func (l *spanLog) open(name string, parent int) (int, func()) {
	id := l.add(name, parent, time.Now(), time.Now())
	return id, func() {
		l.mu.Lock()
		l.spans[id-1].End = time.Since(l.t0).Nanoseconds()
		l.mu.Unlock()
	}
}

// time runs f inside a span and returns its duration.
func (l *spanLog) time(name string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.add(name, parent, start, end)
	return end.Sub(start)
}

// selfTimes sums, per layer (the name up to its first dot), each span's
// duration minus the time its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := map[int]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range l.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traced runs the workload's traffic once with spans around client
// requests, then replays the same inputs in process against each layer's
// public calls, and reports the per-layer metrics.
func (b *bench) traced() (*report, error) {
	rep := newReport(perLayerMetrics)
	rep.linef("traced run: workload %v seed %d seconds %v nproc %d", b.sp, b.seed, b.run.Seconds(), runtime.NumCPU())
	spans := newSpanLog()
	root, endRoot := spans.open("run.traced", 0)

	c, _, err := launch(b.sp, b.in, b.bin, b.logDir, b.tag("traced"))
	if err != nil {
		return nil, err
	}
	httpID, endHTTP := spans.open("loadgen.phase", root)
	ph, err := b.drive(c, spans, httpID)
	endHTTP()
	c.stop()
	if err != nil {
		return nil, err
	}
	// The end-to-end figures of this run are the baseline the layers are
	// compared with; they also carry the correctness counts.
	e2e := newReport(endToEndMetrics)
	b.reportPhase(e2e, ph)
	rep.lines = append(rep.lines, e2e.lines...)
	rep.correct, rep.attempted, rep.failed = e2e.correct, e2e.attempted, e2e.failed
	b.httpLayer(rep, e2e, ph)

	replayID, endReplay := spans.open("run.replay", root)
	values := dist.Generate(populationKind, b.sp.n, b.in.popSeed)
	if err := b.replaySession(rep, spans, replayID, values); err != nil {
		return nil, err
	}
	if err := b.replayLayers(rep, spans, replayID, values); err != nil {
		return nil, err
	}
	if err := b.replayShards(rep, spans, replayID, values); err != nil {
		return nil, err
	}
	endReplay()
	endRoot()

	b.attribute(rep, e2e, spans)
	path := filepath.Join(b.outDir, "trace", b.tag("spans")+".json")
	if err := spans.write(path); err != nil {
		return nil, err
	}
	rep.linef("spans: %d written to %s", len(spans.spans), path)
	return rep, nil
}

// httpLayer derives the HTTP layer's metrics from the server's own
// histogram and the traced/untraced halves of the read stream.
func (b *bench) httpLayer(rep, e2e *report, ph *phase) {
	mean := func(from, to map[string]float64, path string) float64 {
		sum := `gossipq_http_request_duration_seconds_sum{path="` + path + `"}`
		n := `gossipq_http_request_duration_seconds_count{path="` + path + `"}`
		if to[n] == from[n] {
			return 0
		}
		return (to[sum] - from[sum]) / (to[n] - from[n])
	}
	// The quiet reads alone: later reads may wait behind a rebuild.
	rep.add("http.quantile_handler_us", mean(ph.atStart, ph.atQuiet, "/quantile")*1e6, "us", 0)
	rep.add("http.mutate_handler_ms", mean(ph.atStart, ph.after, "/mutate")*1e3, "ms", 0)

	var tr, un []time.Duration
	snap, reads := 0, 0
	for i := range ph.reads {
		s := &ph.reads[i]
		if s.skipped {
			continue
		}
		if b.in.reads[i].step == 0 {
			if s.traced {
				tr = append(tr, s.latency())
			} else {
				un = append(un, s.latency())
			}
		}
		var a answerJSON
		if s.ok() && json.Unmarshal(s.body, &a) == nil {
			reads++
			if a.Mode == "snapshot" {
				snap++
			}
		}
	}
	// Every other quiet read was traced: the difference of the halves'
	// medians is what tracing costs a request.
	rep.add("trace.overhead_us", us(sorted(tr).pct(50)-sorted(un).pct(50)), "us", len(tr)+len(un))
	if reads > 0 {
		rep.add("session.snapshot_hit_ratio", float64(snap)/float64(reads), "1", reads)
	}
	if fb, ok := ph.before["gossipq_snapshot_fallbacks_total"]; ok {
		rep.linef("  server-side snapshot fallbacks during the phase: %g", fb)
	}
	rep.add("loadgen.late_p99_ms", e2e.metrics["loadgen.late_p99_ms"].Value, "ms", 0)
	rep.add("rss.serve_mb", ph.rss[len(ph.rss)-1], "MB", 0)
}

// replaySession replays the workload's inputs against one in-process
// gossipq.Session over the same population.
func (b *bench) replaySession(rep *report, spans *spanLog, parent int, values []int64) error {
	sp, in := b.sp, b.in
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: in.popSeed, Workers: 1})
	if err != nil {
		return err
	}
	defer s.Close()
	s.Prewarm(runtime.GOMAXPROCS(0))

	var refreshes []time.Duration
	var info gossipq.SnapshotInfo
	refreshes = append(refreshes, spans.time("session.Refresh", parent, func() { info, err = s.Refresh(sp.eps) }))
	if err != nil {
		return err
	}
	rep.add("sim.rounds_per_refresh", float64(info.BuildMetrics.Rounds), "count", 0)
	rep.add("sim.messages_per_refresh", float64(info.BuildMetrics.Messages), "count", 0)

	// Snapshot reads, timed in batches: one read is close to the clock's
	// own cost.
	const batch = 1000
	var asks []float64
	for k := 0; k < 20; k++ {
		d := spans.time("session.Ask", parent, func() {
			for i := 0; i < batch; i++ {
				q := gossipq.Query{Phi: phiMix[i%len(phiMix)], Eps: sp.eps, Mode: gossipq.ServeSnapshot}
				if _, err = s.Ask(q); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		asks = append(asks, float64(d.Nanoseconds())/batch)
	}
	rep.add("session.snapshot_ask_ns", median(asks), "ns", len(asks)*batch)

	var live []time.Duration
	for i := 0; i < 8; i++ {
		var a gossipq.Answer
		live = append(live, spans.time("session.ApproxQuantile", parent, func() { a, err = s.ApproxQuantile(phiMix[i], sp.eps) }))
		if err != nil {
			return err
		}
		b.checkLocal(rep, s.Verify(a.Value, phiMix[i], sp.eps), "session live answer")
	}
	rep.add("session.live_ask_ms", ms(medianDur(live)), "ms", len(live))

	// The mutation stream, each batch followed by the drift-gated Refresh
	// the server's /mutate runs.
	batches := make([]*mutBatch, 0, len(in.muts)+1)
	for i := range in.muts {
		batches = append(batches, &in.muts[i])
	}
	batches = append(batches, in.launchRepairs(setupRuns-1)...)
	var muts []time.Duration
	skipped, gated := 0, 0
	for _, mb := range batches {
		ops := toMutations(mb.ops)
		muts = append(muts, spans.time("session.Mutate", parent, func() { _, err = s.Mutate(ops) }))
		if err != nil {
			return err
		}
		before := info.Version
		d := spans.time("session.Refresh", parent, func() { info, err = s.Refresh(sp.eps) })
		if err != nil {
			return err
		}
		gated++
		if info.Version > before {
			refreshes = append(refreshes, d)
		} else {
			skipped++
		}
	}
	rep.add("session.mutate_us", us(medianDur(muts)), "us", len(muts))
	rep.add("session.refresh_skip_ratio", float64(skipped)/float64(gated), "1", gated)
	rep.add("session.refresh_s", medianDur(refreshes).Seconds(), "s", len(refreshes))

	// A mutation that arrives while a rebuild holds the population.
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := s.ForceRefresh(sp.eps)
		done <- err
	}()
	<-started
	time.Sleep(50 * time.Millisecond)
	ops := []gossipq.Mutation{{Op: gossipq.OpUpdate, Index: 0, Value: values[0]}}
	wait := spans.time("session.Mutate", parent, func() { _, err = s.Mutate(ops) })
	if rerr := <-done; rerr != nil {
		return rerr
	}
	if err != nil {
		return err
	}
	rep.add("session.mutate_wait_ms", ms(wait), "ms", 1)
	return nil
}

func toMutations(ops []mutOp) []gossipq.Mutation {
	out := make([]gossipq.Mutation, len(ops))
	for i, op := range ops {
		out[i] = gossipq.Mutation{Op: [...]gossipq.MutOp{gossipq.OpInsert, gossipq.OpDelete, gossipq.OpUpdate}[op.kind],
			Index: op.index, Value: op.value}
	}
	return out
}

// checkLocal counts one in-process answer towards the run's correctness.
func (b *bench) checkLocal(rep *report, ok bool, what string) {
	rep.attempted++
	if !ok {
		rep.failed++
		rep.fail("%s outside the oracle", what)
	}
}

// gc collects twice: objects parked in a sync.Pool (the sessions' query
// rigs) survive one cycle in the pool's victim cache.
func gc() {
	runtime.GC()
	runtime.GC()
}

// heapBytes reads the allocated heap. ReadMemStats stops the world for a
// few microseconds; sampled every 2 ms it adds well under 1% to a build.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// replayLayers times the summary, tournament, sim and exact layers on the
// workload's population.
func (b *bench) replayLayers(rep *report, spans *spanLog, parent int, values []int64) error {
	sp, seed := b.sp, b.in.popSeed
	n := len(values)
	cfg := gossipq.Config{Seed: seed, Workers: 1}

	// Summary: build time, peak heap while building (sampled), and what
	// one summary keeps once built.
	gc()
	base := heapBytes()
	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if h := heapBytes(); h > peak.Load() {
				peak.Store(h)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	var sum *gossipq.Summary
	var err error
	build := spans.time("summary.BuildSummary", parent, func() { sum, err = gossipq.BuildSummary(values, sp.eps, cfg) })
	close(stop)
	<-sampled
	if err != nil {
		return err
	}
	gc()
	retained := heapBytes()
	// A second build, for the better of two timings: the summary, grid and
	// sim figures are differenced against each other below, and a single
	// run each leaves the differences at the mercy of one noisy second.
	build = min(build, spans.time("summary.BuildSummary", parent, func() { _, err = gossipq.BuildSummary(values, sp.eps, cfg) }))
	if err != nil {
		return err
	}
	rep.add("summary.build_s", build.Seconds(), "s", 2)
	rep.add("summary.build_peak_heap_mb", float64(peak.Load()-min(base, peak.Load()))/(1<<20), "MB", 0)
	rep.add("summary.retained_mb", float64(retained-min(base, retained))/(1<<20), "MB", 0)
	o := stats.NewOracle(values)
	for _, phi := range phiMix {
		b.checkLocal(rep, o.WithinEpsilon(sum.Query(0, phi), phi, sp.eps), "summary answer")
	}
	runtime.KeepAlive(sum)
	sum = nil

	// Tournament: the summary's grid build, then single approximate runs.
	e := sim.New(n, seed, sim.WithWorkers(1))
	sc := tournament.NewScratch(e)
	step := sp.eps / 2
	gridEps := min(max(sp.eps/4, tournament.MinEps(n)), step)
	var grid time.Duration
	for k := 0; k < 2; k++ {
		e.Reset(seed)
		d := spans.time("tournament.GridQuantiles", parent, func() {
			sc.GridQuantiles(values, tournament.QuantileGrid(step), gridEps, tournament.Options{}, nil)
		})
		if k == 0 || d < grid {
			grid = d
		}
	}
	rep.add("tournament.grid_s", grid.Seconds(), "s", 2)
	rep.add("tournament.grid_rounds", float64(e.Metrics().Rounds), "count", 0)
	var approx []time.Duration
	for i := 0; i < 8; i++ {
		e.Reset(seed + uint64(i) + 1)
		var out []int64
		approx = append(approx, spans.time("tournament.ApproxQuantile", parent, func() {
			out = sc.ApproxQuantile(values, phiMix[i], sp.eps, tournament.Options{})
		}))
		b.checkLocal(rep, o.WithinEpsilon(out[0], phiMix[i], sp.eps), "tournament answer")
	}
	rep.add("tournament.approx_ms", ms(medianDur(approx)), "ms", len(approx))

	// Sim: one Pull round at this n, the unit every protocol round costs.
	ws := sim.NewPullWorkspace(sim.New(n, seed, sim.WithWorkers(1)))
	dst := ws.Dst(0)
	ws.Pull(dst, 64)
	const rounds = 200
	pull := spans.time("sim.Pull", parent, func() {
		for i := 0; i < rounds; i++ {
			ws.Pull(dst, 64)
		}
	})
	rep.add("sim.pull_round_us", us(pull/rounds), "us", rounds)

	// Exact: the paper's O(log n)-round algorithm, on pairwise distinct
	// values as its contract asks (the session distinctifies the same way);
	// the transform keeps order, so floor division recovers the answer.
	distinct, mult := dist.MakeDistinct(values)
	xe := sim.New(n, seed, sim.WithWorkers(1))
	xs := exact.NewScratch(xe)
	var xt []time.Duration
	for i := 0; i < 2; i++ {
		xe.Reset(seed + 100 + uint64(i))
		phi := phiMix[(i*4)%len(phiMix)]
		var res exact.Result
		xt = append(xt, spans.time("exact.Quantile", parent, func() { res, err = xs.Quantile(distinct, phi, exact.Options{}) }))
		if err != nil {
			return err
		}
		v := res.Value / mult
		if res.Value%mult < 0 {
			v-- // floor division for negative values
		}
		b.checkLocal(rep, v == o.Quantile(phi), "exact answer")
	}
	rep.add("exact.quantile_ms", ms(medianDur(xt)), "ms", len(xt))
	rep.add("exact.rounds", float64(xe.Metrics().Rounds), "count", 0)
	return nil
}

// countingTransport counts the frames and payload words one peer sends and
// receives; its words are the frame's two value words plus the payload,
// as the livenet wire encodes them.
type countingTransport struct {
	livenet.Transport
	frames, words atomic.Int64
	in            chan livenet.Message
	stop          chan struct{}
}

// newCountingTransport wraps peer self's transport; the forwarding
// goroutine ends when the inner inbox closes or Close is called.
func newCountingTransport(tr livenet.Transport, self int) *countingTransport {
	t := &countingTransport{Transport: tr, in: make(chan livenet.Message), stop: make(chan struct{})}
	go func() {
		defer close(t.in)
		for m := range tr.Inbox(self) {
			t.count(m)
			select {
			case t.in <- m:
			case <-t.stop:
				return
			}
		}
	}()
	return t
}

func (t *countingTransport) Close() {
	close(t.stop)
	t.Transport.Close()
}

func (t *countingTransport) count(m livenet.Message) {
	t.frames.Add(1)
	t.words.Add(int64(2 + len(m.Payload)))
}

func (t *countingTransport) Send(to int, m livenet.Message) {
	t.count(m)
	t.Transport.Send(to, m)
}

func (t *countingTransport) Inbox(int) <-chan livenet.Message { return t.in }

// shardCount is the shard layer's fan-out in the replay: the workload's own,
// or two for single-process workloads.
func (b *bench) shardCount() int {
	if b.sp.shards > 0 {
		return b.sp.shards
	}
	return 2
}

// replayShards drives a shard.Router over loopback TCP to worker goroutines
// serving gossipq sessions on the population's partitions, and merges what
// they ship.
func (b *bench) replayShards(rep *report, spans *spanLog, parent int, values []int64) error {
	sp, seed := b.sp, b.in.popSeed
	S := b.shardCount()
	addrs := make([]string, S+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	// Closing the transports ends the workers' Run loops; the workers are
	// waited for before their sessions close.
	peers := make([]*livenet.PeerTransport, S+1)
	var sessions []*gossipq.Session
	var wg sync.WaitGroup
	defer func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
		wg.Wait()
		for _, s := range sessions {
			s.Close()
		}
	}()
	for i := range peers {
		p, err := livenet.NewTCPPeerTransport(i, addrs, nil)
		if err != nil {
			return err
		}
		peers[i] = p
		addrs[i] = p.Addr()
	}
	for _, p := range peers {
		p.SetPeerAddrs(addrs)
	}
	for i := 0; i < S; i++ {
		lo, hi := shard.Partition(len(values), S, i)
		s, err := gossipq.NewSession(values[lo:hi], gossipq.Config{Seed: shard.SeedFor(seed, i), Workers: 1})
		if err != nil {
			return err
		}
		sessions = append(sessions, s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard.NewWorker(i, peers[i], gossipq.NewSessionBackend(s), nil).Run()
		}()
	}
	ct := newCountingTransport(peers[S], S)
	defer ct.Close()
	r := shard.NewRouter(ct, S, time.Minute, nil, addrs[:S])

	dirty := make([]bool, S)
	for i := range dirty {
		dirty[i] = true
	}
	var gathers []time.Duration
	var got []shard.ShardSummary
	var err error
	var frames, words int64
	for k := 0; k < 2; k++ {
		f0, w0 := ct.frames.Load(), ct.words.Load()
		gathers = append(gathers, spans.time("shard.Gather", parent, func() { got, err = r.Gather(sp.eps/2, dirty, got[:0]) }))
		if err != nil {
			return err
		}
		frames, words = ct.frames.Load()-f0, ct.words.Load()-w0
	}
	rep.add("shard.gather_s", medianDur(gathers).Seconds(), "s", len(gathers))
	rep.add("shard.frames_per_epoch", float64(frames), "count", 0)
	rep.add("shard.words_per_epoch", float64(words), "count", 0)
	rep.add("shard.hops_per_epoch", float64(r.Stats().HopsPerEpoch), "count", 0)

	sums := make([]*gossipq.Summary, len(got))
	for i, g := range got {
		if sums[i], err = gossipq.NewSummaryFromCuts(g.Eps, g.N, g.Cuts); err != nil {
			return err
		}
	}
	var merged *gossipq.Summary
	var merges []float64
	for k := 0; k < 20; k++ {
		d := spans.time("summary.MergeSummaries", parent, func() {
			for i := 0; i < 10; i++ {
				if merged, err = gossipq.MergeSummaries(sums, sp.eps); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		merges = append(merges, us(d)/10)
	}
	rep.add("summary.merge_us", median(merges), "us", len(merges)*10)
	o := stats.NewOracle(values)
	for _, phi := range phiMix {
		b.checkLocal(rep, o.WithinEpsilon(merged.Query(0, phi), phi, sp.eps), "merged summary answer")
	}

	var rtts []time.Duration
	mr := rng(b.seed, tagMuts)
	for k := 0; k < 100; k++ {
		i := k % S
		lo, hi := shard.Partition(len(values), S, i)
		ops := []shard.Op{{Kind: shard.OpUpdate, Index: mr.IntN(hi - lo), Value: values[mr.IntN(len(values))]}}
		rtts = append(rtts, spans.time("shard.Mutate", parent, func() { _, _, err = r.Mutate(i, ops) }))
		if err != nil {
			return err
		}
	}
	rep.add("shard.mutate_rtt_us", us(medianDur(rtts)), "us", len(rtts))
	return nil
}

// attribute reports each layer's self time from the spans, and how far the
// layers' costs fall from the end-to-end figures they make up.
func (b *bench) attribute(rep, e2e *report, spans *spanLog) {
	self := spans.selfTimes()
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	rep.linef("self time by layer (spans recorded in the benchmark):")
	for _, l := range layers {
		rep.linef("  %-12s %10.3f s", l, self[l].Seconds())
	}
	v := func(name string) float64 { return rep.metrics[name].Value }

	// Read path: client p50 = client/kernel/loopback + HTTP handler + session.
	read := e2e.metrics["read_p50_us"].Value
	session := v("session.snapshot_ask_ns") / 1000
	handler := v("http.quantile_handler_us")
	rep.add("http.overhead_us", read-session, "us", 0)
	rep.linef("read_p50_us %.1f us = session %.3f us + http handler self %.1f us + client/kernel/loopback %.1f us; http+session cover %.1f%%",
		read, session, handler-session, read-handler, 100*handler/read)

	r, ok := e2e.metrics["repair_s"]
	switch {
	case !ok:
	case b.sp.shards > 0:
		// A sharded repair is a gather from the shards over budget plus a
		// merge; the replay's gather rebuilds every shard at once.
		gather, merge := v("shard.gather_s"), v("summary.merge_us")/1e6
		rep.linef("repair_s %.3f s vs layers: shard gather of an all-dirty epoch %.3f s + merge %.6f s = %.3f s (%.1f%% of repair_s; a repair rebuilds only the shards over budget, and the rest is HTTP and the router's locking)",
			r.Value, gather, merge, gather+merge, 100*(gather+merge)/r.Value)
	default:
		// Nested inside one Refresh: session wraps summary wraps tournament
		// wraps sim rounds. Sim's share is its per-round cost times the
		// refresh's round count.
		refresh, build, grid := v("session.refresh_s"), v("summary.build_s"), v("tournament.grid_s")
		simS := v("sim.pull_round_us") * v("sim.rounds_per_refresh") / 1e6
		rep.linef("repair_s %.3f s vs layers: session self %.3f + summary self %.3f + tournament self %.3f + sim %.3f = %.3f s (%.1f%% of repair_s; the rest is HTTP, lock waits and contention with the traffic)",
			r.Value, refresh-build, build-grid, grid-simS, simS, refresh, 100*refresh/r.Value)
	}
	if n := len(b.in.muts); n > 0 {
		rep.linef("replayed %d mutation batches of the workload's stream", n)
	}
}
