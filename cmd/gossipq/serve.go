package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
	"gossipq/internal/telemetry"
)

// serveCmd implements `gossipq serve`: it loads one gossipq.Session over a
// synthetic population and serves quantile queries over HTTP/JSON. The
// session layer makes the handlers trivially concurrent — every request
// checks an engine/scratch rig out of the session pool and runs its own
// deterministic gossip computation; with -summary-eps the session also
// publishes a versioned ε-summary snapshot and approximate queries become
// local lock-free lookups (responses report mode "snapshot" and the
// generation that answered).
//
//	GET  /quantile?phi=0.99&eps=0.01[&exact=true][&mode=live]   one query
//	POST /batch    {"queries":[{"phi":0.5,"eps":0.05},{"phi":0.9,"exact":true}]}
//	POST /mutate   {"ops":[{"op":"insert","value":7},{"op":"update","index":0,"value":9}]}
//	GET  /healthz  liveness + population, traffic, generation, and snapshot drift status
//	GET  /metrics  Prometheus text exposition of the server's telemetry
//
// /mutate applies the batch atomically as one population generation; later
// queries answer for the mutated population. With the snapshot tier on, each
// mutation ends with a drift-gated repair attempt: while the published
// summary's accumulated drift stays under its ⌊(1−θ)·εn⌋ budget the repair
// is skipped (the stale summary still answers within ±εn), and once the
// budget is reached the summary is rebuilt synchronously, bumping the
// snapshot version. The response reports which of the two happened.
//
// With -debug-addr a second listener serves net/http/pprof on its own mux,
// kept off the public address so profiling endpoints are never exposed by
// accident.
//
// The work splits in three steps — flags to serveConfig
// (parseServeConfig), config to backend (newBackend), backend to
// http.Handler (newHandler) — and serveCmd itself only listens, waits for a
// signal, and shuts down. The server shuts down gracefully on
// SIGINT/SIGTERM: in-flight requests drain, the background refresher stops,
// and the process exits 0.
func serveCmd(args []string) int {
	cfg, err := parseServeConfig(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := newBackend(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	slog.Info("serving",
		"n", cfg.n, "workload", cfg.workload, "seed", cfg.seed, "eps_default", cfg.eps, "addr", cfg.addr)
	srv := &http.Server{Addr: cfg.addr, Handler: newHandler(cfg, b)}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		// pprof registers on its own mux and listener: profiling stays
		// reachable only on the operator-chosen debug address.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: cfg.debugAddr, Handler: dmux}
		go func() {
			slog.Info("debug listener on", "addr", cfg.debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				slog.Error("debug listener failed", "err", err)
			}
		}()
	}

	select {
	case err := <-errc:
		// Listen failed before any signal (bad address, port in use, ...).
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-ctx.Done():
	}
	slog.Info("signal received, draining")
	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b.Close() // stop the snapshot refresher (and any shard gang) after the last request drains
	slog.Info("bye")
	return 0
}

// serveConfig is `gossipq serve`'s configuration, one field per flag.
type serveConfig struct {
	addr, debugAddr string
	n               int
	workload        string
	seed            uint64
	eps             float64
	workers         int
	prewarm         int
	check           bool
	sumEps          float64
	refresh         time.Duration
	shards          int
	shardAddrs      []string
	routerAddr      string
	shardTimeout    time.Duration
}

// parseServeConfig parses the serve flags, installs the -log-level logger
// as the default, and checks the flags against each other.
func parseServeConfig(args []string) (serveConfig, error) {
	fs := flag.NewFlagSet("gossipq serve", flag.ExitOnError)
	var (
		cfg        serveConfig
		logLevel   string
		shardAddrs string
	)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8356", "listen address")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "listen address for net/http/pprof (empty disables the debug listener)")
	fs.StringVar(&logLevel, "log-level", "info", "log verbosity: debug|info|warn|error (debug logs every request)")
	fs.IntVar(&cfg.n, "n", 65536, "number of nodes")
	fs.StringVar(&cfg.workload, "workload", "uniform", "value distribution: "+strings.Join(dist.Names(), "|"))
	fs.Uint64Var(&cfg.seed, "seed", 1, "session seed (each query derives its engine from (seed, query id))")
	fs.Float64Var(&cfg.eps, "eps", 0.05, "default approximation width for queries that omit eps")
	fs.IntVar(&cfg.workers, "workers", 0, "simulation workers per protocol run — pulls and per-node tournament work of every query and snapshot rebuild (0: GOMAXPROCS, or one per shard with -shards; 1 leaves the cores to concurrent live queries)")
	fs.IntVar(&cfg.prewarm, "prewarm", 0, "build this many query rigs at startup (0: one per core); concurrency beyond the warm pool pays rig construction on first overlap")
	fs.BoolVar(&cfg.check, "check", false, "verify every answer against the centralized oracle (adds \"ok\" to responses)")
	fs.Float64Var(&cfg.sumEps, "summary-eps", 0, "serve approximate queries from a versioned ε-summary snapshot at this width (0 disables the snapshot tier; sharded serving defaults it to -eps)")
	fs.DurationVar(&cfg.refresh, "refresh", 0, "rebuild the snapshot every interval (0 keeps the initial build; requires -summary-eps)")
	fs.IntVar(&cfg.shards, "shards", 0, "partition the population across this many shard workers (0: single-process session)")
	fs.StringVar(&shardAddrs, "shard-addrs", "",
		"comma-separated worker addresses of running `gossipq shard` processes (empty with -shards > 0: in-process worker gang)")
	fs.StringVar(&cfg.routerAddr, "router-addr", "127.0.0.1:0", "this router's livenet listen address in process-mode sharding")
	fs.DurationVar(&cfg.shardTimeout, "shard-timeout", 60*time.Second, "per-epoch shard answer deadline; a shard missing it serves a 503")
	fs.Parse(args)

	logger, err := newLogger(logLevel)
	if err != nil {
		return cfg, err
	}
	slog.SetDefault(logger)
	if cfg.shards > 0 {
		if cfg.sumEps == 0 {
			// Sharded queries are always snapshot-served; an explicit width
			// keeps the refresher and the mutate-repair gate meaningful.
			cfg.sumEps = cfg.eps
		}
		if shardAddrs != "" {
			cfg.shardAddrs = strings.Split(shardAddrs, ",")
			if len(cfg.shardAddrs) != cfg.shards {
				return cfg, fmt.Errorf("gossipq serve: -shard-addrs has %d entries, want -shards = %d", len(cfg.shardAddrs), cfg.shards)
			}
		}
	}
	if cfg.refresh > 0 && cfg.sumEps == 0 {
		return cfg, errors.New("gossipq serve: -refresh requires -summary-eps")
	}
	return cfg, nil
}

// quantileBackend is the session surface the HTTP layer serves: both the
// single-process gossipq.Session and the distributed gossipq.ShardedSession
// satisfy it, which is what lets `gossipq serve` swap the engine under the
// same endpoints with -shards.
type quantileBackend interface {
	Ask(gossipq.Query) (gossipq.Answer, error)
	Batch([]gossipq.Query) ([]gossipq.Answer, error)
	Mutate([]gossipq.Mutation) (uint64, error)
	N() int
	Generation() uint64
	Snapshot() (gossipq.SnapshotInfo, bool)
	Refresh(float64) (gossipq.SnapshotInfo, error)
	StartRefresher(float64, time.Duration) (gossipq.SnapshotInfo, error)
	Close() error
}

// backend is the quantile service behind the handlers plus the parts of
// serving that differ between the two session shapes.
type backend struct {
	quantileBackend
	// stats reads the counters both shapes share — the snapshot publisher's
	// and the population generation — in SessionStats form; a sharded
	// backend fills only those fields.
	stats func() gossipq.SessionStats
	// rows are the shape's own /metrics series.
	rows []metricRow
	// health adds the shape's own fields to a /healthz report; an error
	// turns the report into a 503.
	health func(h map[string]any) error
	// verify reports whether x answers q — within ±εn, or exactly for exact
	// queries — against the centralized oracle; nil without -check.
	verify func(q gossipq.Query, x int64) bool
}

// newBackend builds the serving engine cfg describes — a single-process
// Session, or with -shards a ShardedSession whose workers are an in-process
// gang or remote `gossipq shard` processes — and, with -summary-eps,
// publishes its first snapshot and starts the refresher.
func newBackend(cfg serveConfig) (*backend, error) {
	kind, err := dist.ByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	values := dist.Generate(kind, cfg.n, cfg.seed)
	var b *backend
	if cfg.shards > 0 {
		b, err = newShardedBackend(cfg, values)
	} else {
		b, err = newSessionBackend(cfg, values)
	}
	if err != nil {
		return nil, err
	}
	if cfg.sumEps > 0 {
		info, err := b.StartRefresher(cfg.sumEps, cfg.refresh)
		if err != nil {
			b.Close()
			return nil, err
		}
		slog.Info("snapshot tier on",
			"eps", info.Eps, "grid", info.GridSize,
			"build_rounds", info.BuildMetrics.Rounds, "build_messages", info.BuildMetrics.Messages,
			"refresh", cfg.refresh)
	}
	return b, nil
}

func newSessionBackend(cfg serveConfig, values []int64) (*backend, error) {
	s, err := gossipq.NewSession(values, gossipq.Config{Seed: cfg.seed, Workers: cfg.workers})
	if err != nil {
		return nil, err
	}
	if cfg.check {
		// Pay the oracle sort now, not on the first checked request.
		s.OracleQuantile(0.5)
	}
	// Warm the rig pool to the expected live-query concurrency so
	// overlapping requests never pay multi-MB rig construction mid-flight
	// (the default assumes roughly one in-flight live query per core).
	rigs := cfg.prewarm
	if rigs <= 0 {
		rigs = runtime.GOMAXPROCS(0)
	}
	s.Prewarm(rigs)
	slog.Info("rig pool prewarmed", "rigs", rigs)
	return wrapSession(s, cfg.check), nil
}

// wrapSession adapts a single-process session to the handlers.
func wrapSession(s *gossipq.Session, check bool) *backend {
	st := func(f func(gossipq.SessionStats) float64) func() float64 {
		return func() float64 { return f(s.Stats()) }
	}
	b := &backend{
		quantileBackend: s,
		stats:           s.Stats,
		rows: []metricRow{
			counter("gossipq_queries_total", queriesHelp,
				st(func(s gossipq.SessionStats) float64 { return float64(s.LiveQueries) }), telemetry.L("mode", "live")),
			counter("gossipq_queries_total", queriesHelp,
				st(func(s gossipq.SessionStats) float64 { return float64(s.ExactQueries) }), telemetry.L("mode", "exact")),
			counter("gossipq_snapshot_fallbacks_total", "ServeSnapshot queries that fell back to a live run.",
				st(func(s gossipq.SessionStats) float64 { return float64(s.SnapshotFallbacks) })),
			counter("gossipq_mutations_total", mutationsHelp,
				st(func(s gossipq.SessionStats) float64 { return float64(s.Inserts) }), telemetry.L("op", "insert")),
			counter("gossipq_mutations_total", mutationsHelp,
				st(func(s gossipq.SessionStats) float64 { return float64(s.Deletes) }), telemetry.L("op", "delete")),
			counter("gossipq_mutations_total", mutationsHelp,
				st(func(s gossipq.SessionStats) float64 { return float64(s.Updates) }), telemetry.L("op", "update")),
		},
		health: func(h map[string]any) error {
			st := s.Stats()
			h["queries_issued"] = s.QueriesIssued()
			h["queries"] = map[string]int64{
				"live":               st.LiveQueries,
				"exact":              st.ExactQueries,
				"snapshot":           st.SnapshotQueries,
				"snapshot_fallbacks": st.SnapshotFallbacks,
			}
			h["mutations"] = map[string]int64{
				"inserts": st.Inserts,
				"deletes": st.Deletes,
				"updates": st.Updates,
			}
			return nil
		},
	}
	if check {
		b.verify = func(q gossipq.Query, x int64) bool {
			if q.Exact {
				return x == s.OracleQuantile(q.Phi)
			}
			return s.Verify(x, q.Phi, q.Eps)
		}
	}
	return b
}

func newShardedBackend(cfg serveConfig, values []int64) (*backend, error) {
	scfg := gossipq.Config{Seed: cfg.seed, Workers: cfg.workers}
	if scfg.Workers == 0 {
		// S shard sessions already split the cores, as S `gossipq
		// shard` processes on one host do: one engine worker each.
		scfg.Workers = 1
	}
	if cfg.shardAddrs == nil {
		ss, err := gossipq.NewShardedSession(values, cfg.shards, scfg)
		if err != nil {
			return nil, err
		}
		slog.Info("sharded gang up", "shards", cfg.shards, "n", cfg.n)
		return wrapSharded(ss, values, cfg.check), nil
	}
	peerAddrs := append(append([]string{}, cfg.shardAddrs...), cfg.routerAddr)
	tr, err := livenet.NewTCPPeerTransport(shard.RouterPeer(cfg.shards), peerAddrs, func(err error) {
		slog.Warn("router transport error", "err", err)
	})
	if err != nil {
		return nil, err
	}
	ss, err := gossipq.NewShardedClient(tr, cfg.shards, cfg.shardAddrs, cfg.shardTimeout, scfg)
	if err != nil {
		tr.Close()
		return nil, err
	}
	slog.Info("shard router up", "shards", cfg.shards, "workers", strings.Join(cfg.shardAddrs, ","), "router", tr.Addr())
	return wrapSharded(ss, values, cfg.check), nil
}

// wrapSharded adapts a sharded session to the handlers. With check, values
// must be the whole population the workers loaded: the check mirror replays
// this router's mutations over it.
func wrapSharded(ss *gossipq.ShardedSession, values []int64, check bool) *backend {
	st := func(f func(gossipq.ShardedStats) float64) func() float64 {
		return func() float64 { return f(ss.Stats()) }
	}
	b := &backend{
		quantileBackend: ss,
		stats: func() gossipq.SessionStats {
			st := ss.Stats()
			return gossipq.SessionStats{SnapshotQueries: st.SnapshotQueries, Refreshes: st.Refreshes,
				RefreshesSkipped: st.RefreshesSkipped, RefreshBuildTotal: st.RefreshBuildTotal,
				LastRefreshBuild: st.LastRefreshBuild, Generation: st.Generation}
		},
		rows: []metricRow{
			counter("gossipq_query_refreshes_total",
				"Queries that forced a merged-summary rebuild because no published snapshot covered their width.",
				st(func(s gossipq.ShardedStats) float64 { return float64(s.QueryRefreshes) })),
			gauge("gossipq_shards", "Shard workers behind this router.",
				st(func(s gossipq.ShardedStats) float64 { return float64(s.Shards) })),
			counter("gossipq_shard_epochs_total", "Cross-shard merge epochs driven by this router.",
				st(func(s gossipq.ShardedStats) float64 { return float64(s.Epochs) })),
			gauge("gossipq_shard_hops_per_epoch", "Cross-shard message hops per merge epoch (constant in S and n).",
				st(func(s gossipq.ShardedStats) float64 { return float64(s.HopsPerEpoch) })),
			counter("gossipq_mutation_ops_total", "Mutation operations routed to shards.",
				st(func(s gossipq.ShardedStats) float64 { return float64(s.MutationOps) })),
		},
		health: func(h map[string]any) error {
			st := ss.Stats()
			h["queries"] = map[string]int64{
				"snapshot":        st.SnapshotQueries,
				"query_refreshes": st.QueryRefreshes,
			}
			h["sharding"] = map[string]any{
				"shards":            st.Shards,
				"epochs":            st.Epochs,
				"hops_per_epoch":    st.HopsPerEpoch,
				"refreshes":         st.Refreshes,
				"refreshes_skipped": st.RefreshesSkipped,
				"mutation_ops":      st.MutationOps,
			}
			// Live per-shard health: a shard missing its deadline degrades
			// the whole report to a 503 — the router cannot promise merged
			// answers while a shard is down.
			health, err := ss.Health()
			if err != nil {
				return err
			}
			rows := make([]map[string]any, len(health))
			for i, sh := range health {
				rows[i] = map[string]any{
					"shard":      sh.Shard,
					"addr":       sh.Addr,
					"n":          sh.N,
					"generation": sh.Gen,
					"drift":      sh.Drift,
				}
			}
			h["shard_health"] = rows
			return nil
		},
	}
	if check {
		ss.EnableCheck(values)
		b.verify = func(q gossipq.Query, x int64) bool {
			if q.Exact {
				want, err := ss.OracleQuantile(q.Phi)
				return err == nil && x == want
			}
			ok, err := ss.Verify(x, q.Phi, q.Eps)
			return err == nil && ok
		}
	}
	return b
}

// server holds what the endpoint handlers share.
type server struct {
	cfg serveConfig
	b   *backend
	m   *serverMetrics
	// defaultMode is what queries get unless they say mode=live/snapshot
	// themselves: with the snapshot tier on, approximate traffic reads the
	// published summary and only exact (or explicitly live) queries run the
	// protocol per request. (A sharded backend serves snapshots regardless.)
	defaultMode gossipq.ServeMode
}

// newHandler wires b's endpoints and telemetry into one http.Handler.
func newHandler(cfg serveConfig, b *backend) http.Handler {
	s := &server{cfg: cfg, b: b, m: newServerMetrics(b)}
	if cfg.sumEps > 0 {
		s.defaultMode = gossipq.ServeSnapshot
	}
	mux := http.NewServeMux()
	for path, h := range map[string]http.HandlerFunc{
		"/quantile": s.quantile,
		"/batch":    s.batch,
		"/mutate":   s.mutate,
		"/healthz":  s.healthz,
		"/metrics":  s.metrics,
	} {
		mux.Handle(path, s.m.instrument(path, h))
	}
	return mux
}

func (s *server) quantile(w http.ResponseWriter, r *http.Request) {
	q, err := queryFromURL(r, s.cfg.eps, s.defaultMode)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	a, err := s.b.Ask(q)
	if err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.b.answerJSON(q, a))
}

func (s *server) batch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req batchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	qs, err := req.queries(s.cfg.eps, s.defaultMode)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	answers, err := s.b.Batch(qs)
	if err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	resp := struct {
		Answers []answerJSON `json:"answers"`
	}{Answers: make([]answerJSON, len(answers))}
	for i, a := range answers {
		resp.Answers[i] = s.b.answerJSON(qs[i], a)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) mutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req mutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ops, err := req.mutations()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	gen, err := s.b.Mutate(ops)
	if err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	resp := map[string]any{
		"generation": gen,
		"ops":        len(ops),
		"n":          s.b.N(),
		"repair":     "off",
	}
	if s.cfg.sumEps > 0 {
		// Drift-gated repair: a no-op while the published summary is
		// still within its budget, a synchronous rebuild once the
		// mutation pushed it over. (Sharded: only drifted-over-budget
		// shards rebuild.)
		before, _ := s.b.Snapshot()
		info, err := s.b.Refresh(s.cfg.sumEps)
		if err != nil {
			httpError(w, errStatus(err), err)
			return
		}
		if info.Version > before.Version {
			resp["repair"] = "rebuilt"
		} else {
			resp["repair"] = "skipped"
		}
		resp["snapshot_version"] = info.Version
		resp["snapshot_drift"] = info.Drift
		resp["drift_budget"] = info.DriftBudget
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := map[string]any{
		"status":         "ok",
		"n":              s.b.N(),
		"workload":       s.cfg.workload,
		"uptime_seconds": time.Since(s.m.start).Seconds(),
		"generation":     s.b.Generation(),
		"runtime": map[string]any{
			"goroutines":       runtime.NumGoroutine(),
			"heap_alloc_bytes": ms.HeapAlloc,
		},
	}
	if err := s.b.health(h); err != nil {
		h["status"] = "degraded"
		h["error"] = err.Error()
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	if info, ok := s.b.Snapshot(); ok {
		h["snapshot_version"] = info.Version
		h["snapshot_eps"] = info.Eps
		h["snapshot_age_ms"] = info.Age().Milliseconds()
		h["snapshot_drift"] = info.Drift
		h["drift_budget"] = info.DriftBudget
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	if _, err := s.m.reg.WriteTo(w); err != nil {
		slog.Debug("metrics scrape write failed", "err", err)
	}
}

// newLogger builds the process logger at the requested level. Logs go to
// stderr in logfmt-ish text form.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("gossipq serve: bad -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// serverMetrics is the serving tier's telemetry: per-endpoint request/error
// counters and latency histograms recorded in the handler path (zero-alloc,
// lock-free), plus scrape-time collector functions over the session's own
// counters and the Go runtime — no double bookkeeping on any hot path.
type serverMetrics struct {
	reg   *telemetry.Registry
	start time.Time

	requests map[string]*telemetry.Counter
	errors   map[string]*telemetry.Counter
	latency  map[string]*telemetry.Histogram
}

// metricEndpoints enumerates the instrumented paths; per-path series are
// pre-registered so the request path never touches the registry lock.
var metricEndpoints = []string{"/quantile", "/batch", "/mutate", "/healthz", "/metrics"}

// metricRow is one series computed at scrape time: a counter, or a gauge
// when gauge is set.
type metricRow struct {
	name, help string
	gauge      bool
	value      func() float64
	labels     []telemetry.Label
}

func counter(name, help string, value func() float64, labels ...telemetry.Label) metricRow {
	return metricRow{name: name, help: help, value: value, labels: labels}
}

func gauge(name, help string, value func() float64, labels ...telemetry.Label) metricRow {
	return metricRow{name: name, help: help, gauge: true, value: value, labels: labels}
}

// Help texts of the families registered once per label value.
const (
	queriesHelp   = "Session queries answered, by serving mode."
	mutationsHelp = "Population mutations applied, by operation kind."
)

// sharedRows are the /metrics series both session shapes export: the
// published snapshot's metadata, the publisher's counters, population and
// process gauges.
func sharedRows(b *backend, start time.Time) []metricRow {
	snap := func(f func(gossipq.SnapshotInfo) float64) func() float64 {
		return func() float64 {
			if info, ok := b.Snapshot(); ok {
				return f(info)
			}
			return 0
		}
	}
	pub := func(f func(gossipq.SessionStats) float64) func() float64 {
		return func() float64 { return f(b.stats()) }
	}
	return []metricRow{
		gauge("gossipq_snapshot_version", "Version of the published snapshot generation (0 when none).",
			snap(func(i gossipq.SnapshotInfo) float64 { return float64(i.Version) })),
		gauge("gossipq_snapshot_eps", "Accuracy width of the published snapshot (0 when none).",
			snap(func(i gossipq.SnapshotInfo) float64 { return i.Eps })),
		gauge("gossipq_snapshot_age_seconds", "Age of the published snapshot (0 when none).",
			snap(func(i gossipq.SnapshotInfo) float64 { return i.Age().Seconds() })),
		gauge("gossipq_snapshot_grid_size", "Cut points per node in the published snapshot (0 when none).",
			snap(func(i gossipq.SnapshotInfo) float64 { return float64(i.GridSize) })),
		gauge("gossipq_snapshot_drift", "Mutation ops applied since the published snapshot was built (0 when none).",
			snap(func(i gossipq.SnapshotInfo) float64 { return float64(i.Drift) })),
		gauge("gossipq_snapshot_drift_budget", "Drift the published snapshot tolerates before repair is forced (0 when none).",
			snap(func(i gossipq.SnapshotInfo) float64 { return float64(i.DriftBudget) })),
		gauge("gossipq_population", "Current population size (moves with /mutate).",
			func() float64 { return float64(b.N()) }),
		gauge("gossipq_uptime_seconds", "Seconds since the server started.",
			func() float64 { return time.Since(start).Seconds() }),
		gauge("go_goroutines", "Current goroutine count.",
			func() float64 { return float64(runtime.NumGoroutine()) }),
		gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
			func() float64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}),
		counter("gossipq_queries_total", queriesHelp,
			pub(func(s gossipq.SessionStats) float64 { return float64(s.SnapshotQueries) }), telemetry.L("mode", "snapshot")),
		gauge("gossipq_generation", "Current population generation (one step per successful mutation call).",
			pub(func(s gossipq.SessionStats) float64 { return float64(s.Generation) })),
		counter("gossipq_snapshot_refreshes_total", "Completed snapshot builds (sharded: gather plus merge).",
			pub(func(s gossipq.SessionStats) float64 { return float64(s.Refreshes) })),
		counter("gossipq_snapshot_repairs_skipped_total",
			"Gated refreshes skipped because the published summary's drift (sharded: every shard's) stayed within budget.",
			pub(func(s gossipq.SessionStats) float64 { return float64(s.RefreshesSkipped) })),
		counter("gossipq_snapshot_refresh_build_seconds_total", "Cumulative wall-clock time spent building snapshots.",
			pub(func(s gossipq.SessionStats) float64 { return s.RefreshBuildTotal.Seconds() })),
		gauge("gossipq_snapshot_last_refresh_build_seconds", "Wall-clock duration of the most recent snapshot build.",
			pub(func(s gossipq.SessionStats) float64 { return s.LastRefreshBuild.Seconds() })),
	}
}

func newServerMetrics(b *backend) *serverMetrics {
	m := &serverMetrics{
		reg:      telemetry.NewRegistry(),
		start:    time.Now(),
		requests: map[string]*telemetry.Counter{},
		errors:   map[string]*telemetry.Counter{},
		latency:  map[string]*telemetry.Histogram{},
	}
	// 1µs..~8.4s in doubling buckets covers snapshot lookups (sub-µs rounds
	// up into the first bucket) through cold exact runs.
	durBuckets := telemetry.ExpBuckets(1000, 2, 24)
	for _, path := range metricEndpoints {
		l := telemetry.L("path", path)
		m.requests[path] = m.reg.Counter("gossipq_http_requests_total",
			"HTTP requests served, by endpoint.", l)
		m.errors[path] = m.reg.Counter("gossipq_http_errors_total",
			"HTTP responses with status >= 400, by endpoint.", l)
		m.latency[path] = m.reg.Histogram("gossipq_http_request_duration_seconds",
			"HTTP request latency, by endpoint.", durBuckets, telemetry.Seconds, l)
	}
	for _, r := range append(sharedRows(b, m.start), b.rows...) {
		if r.gauge {
			m.reg.GaugeFunc(r.name, r.help, r.value, r.labels...)
		} else {
			m.reg.CounterFunc(r.name, r.help, r.value, r.labels...)
		}
	}
	return m
}

// statusWriter captures the response status for error accounting; an unset
// status means the handler wrote a body (or nothing) with an implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-endpoint request counter, latency
// histogram, and error counter. The recording itself is allocation-free; the
// wrapper allocates one statusWriter per request, which net/http's own
// per-request allocations dwarf.
func (m *serverMetrics) instrument(path string, h http.HandlerFunc) http.Handler {
	reqs, errs, lat := m.requests[path], m.errors[path], m.latency[path]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		d := time.Since(start)
		reqs.Inc()
		lat.Observe(d.Nanoseconds())
		if sw.status >= 400 {
			errs.Inc()
		}
		slog.Debug("request", "path", path, "status", sw.status, "dur", d)
	})
}

// queryJSON is the wire shape of one query; a zero eps selects the server's
// default width, an empty mode the server's default serving mode. Phi is a
// pointer so an omitted (or typo'd) phi key is a 400, matching /quantile's
// missing-parameter check, rather than silently answering the 0-quantile.
type queryJSON struct {
	Phi   *float64 `json:"phi"`
	Eps   float64  `json:"eps"`
	Exact bool     `json:"exact"`
	Mode  string   `json:"mode"`
}

func (q queryJSON) query(defaultEps float64, defaultMode gossipq.ServeMode) (gossipq.Query, error) {
	if q.Phi == nil {
		return gossipq.Query{}, fmt.Errorf("missing phi in query")
	}
	eps := q.Eps
	if eps == 0 {
		eps = defaultEps
	}
	mode, err := parseMode(q.Mode, defaultMode)
	if err != nil {
		return gossipq.Query{}, err
	}
	return gossipq.Query{Phi: *q.Phi, Eps: eps, Exact: q.Exact, Mode: mode}, nil
}

// batchRequest is the /batch body.
type batchRequest struct {
	Queries []queryJSON `json:"queries"`
}

func (b batchRequest) queries(defaultEps float64, defaultMode gossipq.ServeMode) ([]gossipq.Query, error) {
	qs := make([]gossipq.Query, len(b.Queries))
	for i, qj := range b.Queries {
		q, err := qj.query(defaultEps, defaultMode)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// mutateRequest is the /mutate body.
type mutateRequest struct {
	Ops []mutationJSON `json:"ops"`
}

func (m mutateRequest) mutations() ([]gossipq.Mutation, error) {
	ops := make([]gossipq.Mutation, len(m.Ops))
	for i, mj := range m.Ops {
		op, err := mj.mutation()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		ops[i] = op
	}
	return ops, nil
}

// mutationJSON is the wire shape of one population mutation. Op uses
// gossipq.MutOp's wire spelling; Index is a pointer so delete/update reject
// an omitted index instead of silently targeting position 0.
type mutationJSON struct {
	Op    string `json:"op"`
	Index *int   `json:"index"`
	Value int64  `json:"value"`
}

func (m mutationJSON) mutation() (gossipq.Mutation, error) {
	var op gossipq.MutOp
	switch m.Op {
	case gossipq.OpInsert.String():
		op = gossipq.OpInsert
	case gossipq.OpDelete.String():
		op = gossipq.OpDelete
	case gossipq.OpUpdate.String():
		op = gossipq.OpUpdate
	default:
		return gossipq.Mutation{}, fmt.Errorf("bad op %q (want insert, delete, or update)", m.Op)
	}
	mut := gossipq.Mutation{Op: op, Value: m.Value}
	if op != gossipq.OpInsert {
		if m.Index == nil {
			return gossipq.Mutation{}, fmt.Errorf("op %q requires an index", m.Op)
		}
		mut.Index = *m.Index
	}
	return mut, nil
}

// parseMode maps the wire spelling to a ServeMode; "" keeps the server
// default, "live" forces a per-query protocol run even when the snapshot
// tier is on, "snapshot" asks for a snapshot read (falling back to live if
// nothing published covers the width).
func parseMode(s string, def gossipq.ServeMode) (gossipq.ServeMode, error) {
	switch s {
	case "":
		return def, nil
	case "live":
		return gossipq.ServeLive, nil
	case "snapshot":
		return gossipq.ServeSnapshot, nil
	}
	return def, fmt.Errorf("bad mode %q (want live or snapshot)", s)
}

// answerJSON is the wire shape of one answer. OK is present only when the
// server runs with -check; SnapshotVersion only on snapshot-served answers.
type answerJSON struct {
	Phi             float64 `json:"phi"`
	Eps             float64 `json:"eps,omitempty"`
	Exact           bool    `json:"exact"`
	Value           int64   `json:"value"`
	Mode            string  `json:"mode"`
	SnapshotVersion uint64  `json:"snapshot_version,omitempty"`
	QueryID         uint64  `json:"query_id"`
	Covered         int     `json:"covered"`
	Rounds          int     `json:"rounds"`
	Messages        int64   `json:"messages"`
	Error           string  `json:"error,omitempty"`
	OK              *bool   `json:"ok,omitempty"`
}

func queryFromURL(r *http.Request, defaultEps float64, defaultMode gossipq.ServeMode) (gossipq.Query, error) {
	q := gossipq.Query{Eps: defaultEps, Mode: defaultMode}
	phiS := r.URL.Query().Get("phi")
	if phiS == "" {
		return q, fmt.Errorf("missing phi parameter")
	}
	phi, err := strconv.ParseFloat(phiS, 64)
	if err != nil {
		return q, fmt.Errorf("bad phi: %w", err)
	}
	q.Phi = phi
	if epsS := r.URL.Query().Get("eps"); epsS != "" {
		eps, err := strconv.ParseFloat(epsS, 64)
		if err != nil {
			return q, fmt.Errorf("bad eps: %w", err)
		}
		q.Eps = eps
	}
	if exS := r.URL.Query().Get("exact"); exS != "" {
		exact, err := strconv.ParseBool(exS)
		if err != nil {
			return q, fmt.Errorf("bad exact: %w", err)
		}
		q.Exact = exact
	}
	if q.Mode, err = parseMode(r.URL.Query().Get("mode"), defaultMode); err != nil {
		return q, err
	}
	return q, nil
}

// answerJSON renders a for the wire, with the -check verdict when b has a
// verifier.
func (b *backend) answerJSON(q gossipq.Query, a gossipq.Answer) answerJSON {
	out := answerJSON{
		Phi:             q.Phi,
		Exact:           q.Exact,
		Value:           a.Value,
		Mode:            a.Mode.String(),
		SnapshotVersion: a.SnapshotVersion,
		QueryID:         a.QueryID,
		Covered:         a.Covered,
		Rounds:          a.Metrics.Rounds,
		Messages:        a.Metrics.Messages,
	}
	if !q.Exact {
		out.Eps = q.Eps
	}
	if a.Err != nil {
		out.Error = a.Err.Error()
		return out
	}
	if b.verify != nil {
		ok := b.verify(q, a.Value)
		out.OK = &ok
	}
	return out
}

// errStatus maps a backend error to an HTTP status: a shard missing its
// deadline (or a closed transport) is a 503 — the deployment is degraded, not
// the request — while everything else is the request's own fault (422).
func errStatus(err error) int {
	var down *shard.ShardDownError
	if errors.As(err, &down) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// maxBodyBytes caps a /batch or /mutate request body: room for a mutation
// batch of ~200k operations, while one oversized POST can no longer make
// the server buffer an unbounded body.
const maxBodyBytes = 8 << 20

// decodeJSON decodes r's JSON body into v, reading at most maxBodyBytes. On
// failure it writes the error response itself — 413 for an oversized body,
// 400 for a malformed one — and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", maxBodyBytes))
	} else {
		httpError(w, http.StatusBadRequest, err)
	}
	return false
}

// httpError writes an error response with the body fully buffered first, so
// the status line, Content-Length, and payload are always consistent.
func httpError(w http.ResponseWriter, code int, err error) {
	b, mErr := json.Marshal(map[string]string{"error": err.Error()})
	if mErr != nil {
		// Marshaling a map[string]string cannot fail; keep a plain-text
		// fallback anyway rather than sending an empty body.
		http.Error(w, err.Error(), code)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	w.Write(b)
}

// writeJSON encodes v into a buffer before touching the ResponseWriter: an
// encoding failure becomes a clean 500 instead of a half-written response
// (the old stream-encode path could only log after the headers were gone),
// and responses carry an exact Content-Length.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		slog.Error("encoding response", "err", err)
		httpError(w, http.StatusInternalServerError, fmt.Errorf("encoding response"))
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	if _, err := w.Write(b); err != nil {
		slog.Debug("writing response", "err", err)
	}
}
