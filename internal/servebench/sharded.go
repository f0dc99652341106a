package servebench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
	"gossipq/internal/telemetry"
)

// RunSharded measures the distributed shard tier: the population is split
// across o.Shards shard sessions, the timed quantities are the warm
// cross-shard refresh (parallel shard builds + one constant-round merge —
// the wall-clock the tier exists to shrink) and the snapshot-read closed
// loop over the merged summary. o.Transport picks the wire: "chan" is the
// in-process gang (the scaling-sweep shape — no serialization, so the S=1
// vs S=4 ratio isolates build parallelism), "tcp" stands every worker and
// the router on its own TCP PeerTransport through loopback (the deployment
// shape, with framing and socket costs included).
func RunSharded(o Options) (Result, error) {
	o = o.withDefaults()
	if o.Shards < 1 {
		return Result{}, fmt.Errorf("servebench: sharded run needs Shards >= 1, got %d", o.Shards)
	}
	if o.Exact {
		return Result{}, fmt.Errorf("servebench: Exact and Shards are mutually exclusive (the shard tier serves merged snapshots)")
	}
	if o.Transport == "" {
		o.Transport = "chan"
	}
	if o.Transport != "chan" && o.Transport != "tcp" {
		return Result{}, fmt.Errorf("servebench: unknown shard transport %q (want chan or tcp)", o.Transport)
	}
	if o.SummaryEps <= 0 {
		// The shard tier's serving width: wide enough that a 2^22 build
		// finishes in benchmark time, and the width the CI shard smoke uses.
		o.SummaryEps = 0.2
	}
	qeps := o.Eps
	if qeps < o.SummaryEps {
		qeps = o.SummaryEps
	}
	if o.GOMAXPROCS > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(o.GOMAXPROCS))
	}

	values := dist.Generate(dist.Uniform, o.N, o.Seed)
	ss, cleanup, err := buildShardedRig(o, values)
	if err != nil {
		return Result{}, err
	}
	defer cleanup()

	// One cold refresh absorbs lazy allocation (the shards' rig pools), then
	// the timed refresh measures the steady state the refresher loop lives
	// in.
	if _, err := ss.ForceRefresh(o.SummaryEps); err != nil {
		return Result{}, err
	}
	refreshStart := time.Now()
	if _, err := ss.ForceRefresh(o.SummaryEps); err != nil {
		return Result{}, err
	}
	refreshNs := float64(time.Since(refreshStart).Nanoseconds())

	// Warm the read path in the measured shape: one snapshot query per
	// client, concurrently.
	if err := shardedClients(ss, o, qeps, 1, nil); err != nil {
		return Result{}, err
	}

	lat := latencyHistogram()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	err = shardedClients(ss, o, qeps, o.QueriesPerClient, lat)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Result{}, err
	}

	queries := o.Clients * o.QueriesPerClient
	name := fmt.Sprintf("serve/sharded-%s/n=%d/shards=%d/clients=%d",
		o.Transport, o.N, o.Shards, o.Clients)
	if o.Workers > 1 {
		name += fmt.Sprintf("/workers=%d", o.Workers)
	}
	if o.GOMAXPROCS > 0 {
		name += fmt.Sprintf("/gmp=%d", o.GOMAXPROCS)
	}
	return Result{
		Name:           name,
		Mode:           "sharded",
		N:              o.N,
		Clients:        o.Clients,
		Workers:        o.Workers,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Queries:        queries,
		QueriesPerSec:  float64(queries) / elapsed.Seconds(),
		NsPerQuery:     float64(elapsed.Nanoseconds()) / float64(queries),
		AllocsPerQuery: float64(after.Mallocs-before.Mallocs) / float64(queries),
		BytesPerQuery:  float64(after.TotalAlloc-before.TotalAlloc) / float64(queries),
		LatencyP50Ns:   lat.Quantile(0.5),
		LatencyP99Ns:   lat.Quantile(0.99),
		LatencyMaxNs:   lat.Max(),
		Shards:         o.Shards,
		Transport:      o.Transport,
		RefreshNs:      refreshNs,
	}, nil
}

// shardedClients runs the snapshot-read closed loop: Clients goroutines,
// each issuing count ServeSnapshot queries back-to-back against the merged
// summary. Snapshot reads are lock-free, so this is the same loop shape as
// Run's snapshot mode.
func shardedClients(ss *gossipq.ShardedSession, o Options, qeps float64, count int, lat *telemetry.Histogram) error {
	var wg sync.WaitGroup
	errs := make(chan error, o.Clients)
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				qStart := time.Now()
				a, err := ss.Ask(gossipq.Query{Phi: phiFor(c, i), Eps: qeps, Mode: gossipq.ServeSnapshot})
				if err == nil && a.Mode != gossipq.ServeSnapshot {
					err = fmt.Errorf("servebench: sharded query was not served from the merged snapshot")
				}
				if err != nil {
					errs <- err
					return
				}
				if lat != nil {
					lat.Observe(int64(time.Since(qStart)))
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	return nil
}

// buildShardedRig stands up the shard tier for one measurement. The chan
// shape is gossipq.NewShardedSession verbatim; the tcp shape wires S worker
// processes' worth of PeerTransports plus the router peer through loopback
// TCP — the same topology `gossipq shard` + `gossipq serve -shards` deploy
// across real processes, collapsed into one process so the benchmark needs
// no exec.
func buildShardedRig(o Options, values []int64) (*gossipq.ShardedSession, func(), error) {
	cfg := gossipq.Config{Seed: o.Seed, Workers: o.Workers}
	if o.Transport == "chan" {
		ss, err := gossipq.NewShardedSession(values, o.Shards, cfg)
		if err != nil {
			return nil, nil, err
		}
		return ss, func() { ss.Close() }, nil
	}

	S := o.Shards
	addrs := make([]string, S+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	peers := make([]*livenet.PeerTransport, S+1)
	var sessions []*gossipq.Session
	cleanup := func() {
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
		for _, s := range sessions {
			s.Close()
		}
	}
	for i := range peers {
		p, err := livenet.NewTCPPeerTransport(i, addrs, nil)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		peers[i] = p
		addrs[i] = p.Addr()
	}
	for _, p := range peers {
		p.SetPeerAddrs(addrs)
	}
	for i := 0; i < S; i++ {
		lo, hi := shard.Partition(len(values), S, i)
		scfg := cfg
		scfg.Seed = shard.SeedFor(cfg.Seed, i)
		sess, err := gossipq.NewSession(values[lo:hi], scfg)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		sessions = append(sessions, sess)
		go shard.NewWorker(i, peers[i], gossipq.NewSessionBackend(sess), nil).Run()
	}
	// Loopback workers in this very process: the deadline is a hang
	// backstop, and a 2^22 shard build can legitimately run for minutes.
	client, err := gossipq.NewShardedClient(peers[S], S, addrs[:S], time.Hour, cfg)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return client, func() {
		// The client owns the router peer; close it before tearing down the
		// worker transports so in-flight epochs drain cleanly.
		client.Close()
		cleanup()
	}, nil
}
