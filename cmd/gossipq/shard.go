package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gossipq"
	"gossipq/internal/dist"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
)

// shardCmd implements `gossipq shard`: one shard worker process of a
// distributed quantile deployment. The worker deterministically regenerates
// the whole synthetic population from (-workload, -n, -seed), keeps only its
// partition slice (shard.Partition), loads it into a gossipq.Session seeded
// with shard.SeedFor(seed, index), and serves refresh/mutate/ping requests
// from the router (`gossipq serve -shards S -shard-addrs ...`) over livenet
// TCP peer frames until SIGINT/SIGTERM, then exits 0 gracefully.
//
// Every process of one deployment — all S workers and the router — must run
// with the same -shards, -n, -workload, and -seed, and the same -addrs list
// (S worker addresses followed by the router's); each worker listens on its
// own entry. The shared flags are what make the deployment's merged
// summaries bit-identical to an in-process gang over the same population.
func shardCmd(args []string) int {
	fs := flag.NewFlagSet("gossipq shard", flag.ExitOnError)
	var (
		index    = fs.Int("index", -1, "this worker's shard index in [0, shards)")
		shards   = fs.Int("shards", 0, "total shard count S")
		addrs    = fs.String("addrs", "", "comma-separated peer addresses: S worker addresses then the router's (S+1 entries)")
		n        = fs.Int("n", 65536, "whole population size (the worker keeps its partition slice)")
		workload = fs.String("workload", "uniform", "value distribution: "+strings.Join(dist.Names(), "|"))
		seed     = fs.Uint64("seed", 1, "deployment root seed (the worker derives its shard seed from it)")
		workers  = fs.Int("workers", 1, "simulation workers for this shard's protocol runs")
		logLevel = fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	)
	fs.Parse(args)

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	slog.SetDefault(logger)

	peerAddrs := strings.Split(*addrs, ",")
	if *shards < 1 || *index < 0 || *index >= *shards {
		fmt.Fprintln(os.Stderr, "gossipq shard: need -shards >= 1 and -index in [0, shards)")
		return 2
	}
	if len(peerAddrs) != *shards+1 {
		fmt.Fprintf(os.Stderr, "gossipq shard: -addrs has %d entries, want shards+1 = %d (workers then router)\n",
			len(peerAddrs), *shards+1)
		return 2
	}
	kind, err := dist.ByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	values := dist.Generate(kind, *n, *seed)
	lo, hi := shard.Partition(*n, *shards, *index)
	cfg := gossipq.Config{Seed: shard.SeedFor(*seed, *index), Workers: *workers}
	session, err := gossipq.NewSession(values[lo:hi], cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer session.Close()

	tr, err := livenet.NewTCPPeerTransport(*index, peerAddrs, func(err error) {
		slog.Warn("transport error", "err", err)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	slog.Info("shard worker up",
		"shard", *index, "shards", *shards, "addr", tr.Addr(),
		"slice_n", hi-lo, "whole_n", *n, "workload", *workload, "seed", *seed)

	done := make(chan struct{})
	go func() {
		defer close(done)
		shard.NewWorker(*index, tr, gossipq.NewSessionBackend(session), nil).Run()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		slog.Info("signal received, shutting down")
	case <-done:
		slog.Info("transport closed, shutting down")
	}
	// Closing the transport ends the worker's inbox and its Run loop.
	tr.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		slog.Warn("worker loop did not drain in time")
	}
	slog.Info("bye")
	return 0
}
