// Command svcbench is the repository's benchmark: one load-generator process
// that drives the real `gossipq serve` and `gossipq shard` binaries over
// loopback HTTP and TCP, checks every answer against its own oracle, and
// prints the metrics named in BENCHMARK.json. With -trace 1 it instead
// reports per-layer costs from spans recorded around client requests and
// around in-process calls into each layer. See README.md.
//
//	svcbench -workload churn-repair -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndMetrics are the metrics of an end-to-end run's JSON line: the
// end_to_end list of BENCHMARK.json.
var endToEndMetrics = []string{"setup_s", "repair_s"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: read-steady|churn-repair|shard-tcp|live-exact")
		seed     = flag.Uint64("seed", 1, "workload seed; every input derives from it")
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		bin      = flag.String("gossipq", ".bench_build/gossipq", "gossipq binary under test")
		outDir   = flag.String("out", ".bench_build", "directory for server logs and trace files")
	)
	flag.Parse()
	sp, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "svcbench: need -workload (one of %v), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	logDir := filepath.Join(*outDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	runLen := time.Duration(*seconds) * time.Second
	in := generate(sp, *seed, runLen)
	b := &bench{sp: sp, in: in, seed: *seed, run: runLen, bin: *bin, outDir: *outDir, logDir: logDir}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = b.traced()
	} else {
		rep, err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	rep.write(os.Stdout)
	if !rep.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

type bench struct {
	sp     spec
	in     *inputs
	seed   uint64
	run    time.Duration
	bin    string
	outDir string
	logDir string
	tagSeq int
}

func (b *bench) tag(what string) string {
	b.tagSeq++
	return fmt.Sprintf("%s-seed%d-%s%d", b.sp.name, b.seed, what, b.tagSeq)
}

// report is one run's output: human-readable lines, then the JSON result.
type report struct {
	lines     []string
	metrics   map[string]metric
	keys      []string // the metrics the JSON line carries, in order
	correct   bool
	attempted int
	failed    int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(keys []string) *report {
	return &report{metrics: map[string]metric{}, keys: keys, correct: true}
}

// add records a metric and prints it with its sample count.
func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if samples > 0 {
		r.linef("%-32s %14.4f %-6s (n=%d)", name, v, unit, samples)
	} else {
		r.linef("%-32s %14.4f %s", name, v, unit)
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect with a reason.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.linef("FAIL: "+format, args...)
}

func (r *report) write(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for _, k := range r.keys {
		m, ok := r.metrics[k]
		if !ok {
			// A metric the run could not measure makes the run incorrect
			// rather than silently reporting a placeholder.
			out.Correct = false
			fmt.Fprintf(w, "FAIL: metric %s not measured\n", k)
			continue
		}
		out.Metrics[k] = m
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	js, _ := json.Marshal(out) // plain structs of numbers and strings
	fmt.Fprintln(w, string(js))
}

// setupRuns is how many times each end-to-end run launches the deployment;
// setup_s is their median and the last launch serves the timed phase.
const setupRuns = 3

// readLimit is the p99 snapshot-read latency (median over the step's
// windows) a step of the read-rate ladder must stay under to count towards
// read_max_qps.
const readLimit = 10 * time.Millisecond

func (b *bench) endToEnd() (*report, error) {
	rep := newReport(endToEndMetrics)
	rep.linef("workload %v seed %d seconds %v nproc %d", b.sp, b.seed, b.run.Seconds(), runtime.NumCPU())
	var (
		setups       []float64
		setupRepairs []sample
		c            *cluster
	)
	for i := 0; i < setupRuns; i++ {
		cl, d, err := launch(b.sp, b.in, b.bin, b.logDir, b.tag("setup"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupRuns-1 {
			c = cl
			break
		}
		for _, mb := range b.in.launchRepairs(i) {
			setupRepairs = append(setupRepairs, sendOnce(cl.addr, "POST", "/mutate", mb.body))
		}
		cl.stop()
	}
	defer c.stop()
	rep.add("setup_s", median(setups), "s", len(setups))

	ph, err := b.drive(c, nil, 0)
	if err != nil {
		return nil, err
	}
	ph.setupRepairs = setupRepairs
	b.reportPhase(rep, ph)
	return rep, nil
}

// phase is a timed phase plus what the generator learned around it.
type phase struct {
	*phaseResult
	repairs      []sample           // the idle repairs after the timed phase
	setupRepairs []sample           // the idle repairs sent to the set-up-only launches
	atStart      map[string]float64 // /metrics as the phase starts (traced runs)
	atQuiet      map[string]float64 // /metrics as the quiet part ends (traced runs)
	before       map[string]float64 // /metrics after the timed phase, before the idle repairs
	after        map[string]float64 // /metrics at the end
	rss          []float64          // VmHWM per process, MB, launch order
	procs        []string
	batches      []*mutBatch // mutation bodies aligned with muts()
}

func (p *phase) muts() []sample {
	return append(append([]sample(nil), p.phaseResult.muts...), p.repairs...)
}

// drive runs the timed phase and the idle repairs on a launched cluster and
// collects the server-side readings the metrics and path guards need.
//
// A traced run also scrapes /metrics as the phase starts and as its quiet
// part ends, so the server-side read time of the quiet reads alone is known.
func (b *bench) drive(c *cluster, spans *spanLog, parent int) (*phase, error) {
	ph := &phase{}
	var onBusy func()
	var quietErr error
	if spans != nil {
		var err error
		if ph.atStart, err = scrape(c.addr); err != nil {
			return nil, err
		}
		onBusy = func() { ph.atQuiet, quietErr = scrape(c.addr) }
	}
	ph.phaseResult = runPhase(c.addr, b.in, b.run, spans, parent, onBusy)
	if quietErr != nil {
		return nil, quietErr
	}
	var err error
	if ph.before, err = scrape(c.addr); err != nil {
		return nil, err
	}
	for i := range b.in.muts {
		ph.batches = append(ph.batches, &b.in.muts[i])
	}
	time.Sleep(200 * time.Millisecond) // let the phase's backlog settle
	for _, mb := range b.in.launchRepairs(setupRuns - 1) {
		s := sendOnce(c.addr, "POST", "/mutate", mb.body)
		if spans != nil {
			spans.add("http.POST /mutate", parent, s.sent, s.end)
		}
		ph.repairs = append(ph.repairs, s)
		ph.batches = append(ph.batches, mb)
	}
	if ph.after, err = scrape(c.addr); err != nil {
		return nil, err
	}
	if ph.rss, err = c.peakRSS(); err != nil {
		return nil, err
	}
	for _, p := range c.procs {
		ph.procs = append(ph.procs, p.name)
	}
	return ph, nil
}

// reportPhase derives every end-to-end metric from a phase, checks the
// answers and the path guards, and fills the counts.
func (b *bench) reportPhase(rep *report, ph *phase) {
	b.readMetrics(rep, ph)
	busy, idle := b.mutationMetrics(rep, ph)
	live, exact := b.protocolMetrics(rep, ph)
	total := 0.0
	for i, v := range ph.rss {
		rep.linef("  VmHWM %-8s %10.1f MB", ph.procs[i], v)
		total += v
	}
	rep.add("peak_rss_mb", total, "MB", 0)
	rep.add("loadgen.late_p99_ms", ms(lateness(ph.reads, ph.phaseResult.muts).pct(99)), "ms", 0)
	b.correctness(rep, ph)
	b.pathGuards(rep, ph, busy, idle, live, exact)
}

// readMetrics reports the quiet phase's snapshot reads, then the ladder
// above them (read-steady) or the reads beside the workload's traffic.
func (b *bench) readMetrics(rep *report, ph *phase) {
	in := b.in
	steps := make([][]*sample, len(in.steps))
	abandoned := make([]bool, len(in.steps))
	for i := range ph.reads {
		s := &ph.reads[i]
		st := in.reads[i].step
		if s.skipped {
			abandoned[st] = true
			continue
		}
		steps[st] = append(steps[st], s)
	}
	p50s, p99s := windowPercentiles(steps[0], ph.start)
	rep.add("read_p50_us", us(medianDur(p50s)), "us", len(steps[0]))
	rep.add("read_p99_us", us(medianDur(p99s)), "us", len(steps[0]))
	ws := make([]string, len(p50s))
	for i, d := range p50s {
		ws[i] = fmt.Sprintf("%.0f", us(d))
	}
	rep.linef("  quiet-phase p50 of each %v window (us): %s", readWindow, strings.Join(ws, " "))

	if len(in.steps) < 2 {
		return
	}
	if !in.steps[1].ladder {
		p50, p99 := windowed(steps[1], ph.start)
		rep.add("read_busy_p50_us", us(p50), "us", len(steps[1]))
		rep.add("read_busy_p99_us", us(p99), "us", len(steps[1]))
		return
	}
	maxQPS := 0.0
	for i, st := range in.steps {
		_, p99 := windowed(steps[i], ph.start)
		pass := !abandoned[i] && len(steps[i]) > 0 && p99 <= readLimit
		rep.linef("  ladder %6.0f q/s: p99 %9.1f us over %d reads, pass=%v", st.rate, us(p99), len(steps[i]), pass)
		if !pass {
			break
		}
		maxQPS = st.rate
	}
	rep.add("read_max_qps", maxQPS, "q/s", 0)
}

// mutationMetrics reports /mutate latency (open loop, from due time) and
// the repairs (from send): repair_s over the idle repairs, repair_busy_s
// over those inside the traffic. It returns how many of each ran.
func (b *bench) mutationMetrics(rep *report, ph *phase) (busy, idle int) {
	var lat []time.Duration
	for i := range ph.phaseResult.muts {
		if s := &ph.phaseResult.muts[i]; !s.sent.IsZero() {
			lat = append(lat, s.latency())
		}
	}
	if len(lat) > 0 {
		l := sorted(lat)
		rep.add("mutate_p50_ms", ms(l.pct(50)), "ms", len(l))
		rep.add("mutate_p99_ms", ms(l.pct(99)), "ms", len(l))
	}
	busyRepairs := rebuilt(ph.phaseResult.muts)
	idleRepairs := rebuilt(append(append([]sample(nil), ph.setupRepairs...), ph.repairs...))
	if len(busyRepairs) > 0 {
		rep.add("repair_busy_s", medianDur(busyRepairs).Seconds(), "s", len(busyRepairs))
	}
	if len(idleRepairs) > 0 {
		rep.add("repair_s", medianDur(idleRepairs).Seconds(), "s", len(idleRepairs))
		ws := make([]string, len(idleRepairs))
		for i, d := range idleRepairs {
			ws[i] = fmt.Sprintf("%.3f", d.Seconds())
		}
		rep.linef("  idle repairs (s): %s", strings.Join(ws, " "))
	}
	return len(busyRepairs), len(idleRepairs)
}

// rebuilt returns the send-to-response times of the mutations whose
// response says the snapshot was rebuilt.
func rebuilt(ss []sample) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		var mj mutateJSON
		if s.ok() && json.Unmarshal(s.body, &mj) == nil && mj.Repair == "rebuilt" {
			out = append(out, s.end.Sub(s.sent))
		}
	}
	return out
}

// protocolMetrics reports the closed-loop live and exact queries and
// returns how many of each ran.
func (b *bench) protocolMetrics(rep *report, ph *phase) (int, int) {
	var live, exact []time.Duration
	for i := range ph.proto {
		if b.in.proto[i].exact {
			exact = append(exact, ph.proto[i].latency())
		} else {
			live = append(live, ph.proto[i].latency())
		}
	}
	if len(live) > 0 {
		l := sorted(live)
		rep.add("live_p50_ms", ms(l.pct(50)), "ms", len(l))
		rep.add("live_p99_ms", ms(l.pct(99)), "ms", len(l))
	}
	if len(exact) > 0 {
		rep.add("exact_p50_ms", ms(sorted(exact).pct(50)), "ms", len(exact))
	}
	return len(live), len(exact)
}

// correctness counts transport and status failures, bad mutation
// responses, and answers outside the oracle's bound.
func (b *bench) correctness(rep *report, ph *phase) {
	v := verify(b.sp, b.in, ph)
	rep.attempted, rep.failed = 0, v.missed+v.badMutations
	for _, ss := range [][]sample{ph.reads, ph.proto} {
		for i := range ss {
			if ss[i].skipped || ss[i].sent.IsZero() {
				continue
			}
			rep.attempted++
			if !ss[i].ok() {
				rep.failed++
			}
		}
	}
	for _, s := range ph.muts() {
		if !s.sent.IsZero() {
			rep.attempted++ // failures are in badMutations
		}
	}
	for _, s := range ph.setupRepairs {
		rep.attempted++
		if !s.ok() {
			rep.failed++
		}
	}
	rep.add("error_ratio", float64(rep.failed)/float64(rep.attempted), "1", rep.attempted)
	rep.linef("oracle: %d answers checked, %d outside their bound", v.checked, v.missed)
	for _, n := range v.notes {
		rep.linef("  %s", n)
	}
	if rep.failed > 0 {
		rep.fail("%d of %d requests failed or answered outside the oracle", rep.failed, rep.attempted)
	}
}

// lateness collects the generator's own scheduling delay over every
// open-loop stream.
func lateness(streams ...[]sample) latencies {
	var ds []time.Duration
	for _, ss := range streams {
		var prevEnd time.Time
		for i := range ss {
			s := &ss[i]
			if s.skipped || s.sent.IsZero() {
				continue
			}
			if d, ok := s.late(prevEnd); ok {
				ds = append(ds, d)
			}
			prevEnd = s.end
		}
	}
	return sorted(ds)
}

// pathGuards assert that each workload measured the path it exists for.
func (b *bench) pathGuards(rep *report, ph *phase, busy, idle, live, exact int) {
	guard := func(ok bool, format string, args ...any) {
		if ok {
			rep.linef("guard ok: "+format, args...)
		} else {
			rep.fail("path guard: "+format, args...)
		}
	}
	if len(b.in.muts) == 0 {
		r := ph.before["gossipq_snapshot_refreshes_total"]
		guard(r == 1, "no snapshot rebuild during the timed phase (refreshes=%g)", r)
	} else {
		guard(busy >= 1, "repairs ran inside the traffic (%d)", busy)
	}
	sent := len(ph.setupRepairs) + len(ph.repairs)
	guard(idle == sent, "every idle repair rebuilt (%d of %d)", idle, sent)
	if b.sp.shards > 0 {
		q := ph.after["gossipq_query_refreshes_total"]
		h := ph.after["gossipq_shard_hops_per_epoch"]
		guard(q == 0, "no query forced a refresh (gossipq_query_refreshes_total=%g)", q)
		guard(h == 2, "two cross-shard hops per epoch (gossipq_shard_hops_per_epoch=%g)", h)
	}
	if b.sp.protocol {
		guard(live > 0 && exact > 0, "live and exact queries both ran (%d live, %d exact)", live, exact)
	}
}

// readWindow is the length of the slices a phase's reads are cut into for the
// read percentiles.
const readWindow = 500 * time.Millisecond

// windowed returns the median over half-second windows (by due time) of each
// window's p50 and p99 read latency. A burst of interference from outside
// the benchmark — other tenants of the machine — spoils one window, not the
// reported figure.
func windowed(ss []*sample, start time.Time) (p50, p99 time.Duration) {
	p50s, p99s := windowPercentiles(ss, start)
	return medianDur(p50s), medianDur(p99s)
}

// windowPercentiles returns each window's p50 and p99, in time order.
func windowPercentiles(ss []*sample, start time.Time) (p50s, p99s []time.Duration) {
	byWin := map[int][]time.Duration{}
	for _, s := range ss {
		w := int(s.due.Sub(start) / readWindow)
		byWin[w] = append(byWin[w], s.latency())
	}
	wins := make([]int, 0, len(byWin))
	for w := range byWin {
		wins = append(wins, w)
	}
	sort.Ints(wins)
	for _, w := range wins {
		// A window needs a hundred samples for its p99 to have one beyond.
		if len(byWin[w]) < 100 {
			continue
		}
		l := sorted(byWin[w])
		p50s = append(p50s, l.pct(50))
		p99s = append(p99s, l.pct(99))
	}
	return p50s, p99s
}
