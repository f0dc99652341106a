package shard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gossipq/internal/livenet"
)

// Health is one shard's answer to a ping.
type Health struct {
	Shard int
	Addr  string
	N     int
	Gen   uint64
	// Drift is the number of mutation ops the shard has applied since its
	// last summary build.
	Drift uint64
}

// RouterStats counts the router's cross-shard communication. Epochs is the
// number of completed refresh gathers; HopsPerEpoch is the constant the
// conformance shard axis pins: every gather costs exactly one broadcast hop
// and one reply hop regardless of population size or shard count — the
// constant-round merge.
type RouterStats struct {
	Epochs       uint64
	HopsPerEpoch int
}

// Router drives a group of shard workers from the serving side: it owns
// peer index RouterPeer(shards) on the transport and issues refresh
// (Gather), mutation (Mutate), and health (Ping) epochs, matching replies
// to requests by epoch id. All methods serialize on the router — the shard
// tier's callers (ShardedSession, the HTTP layer) already funnel through
// locks, and one inbox cannot be demultiplexed concurrently.
type Router struct {
	tr      livenet.Transport
	shards  int
	self    int
	timeout time.Duration
	bar     *Barrier
	addrs   []string

	mu    sync.Mutex
	epoch int32
	// epochs counts completed gathers; atomic so Stats never waits on a
	// gather holding mu.
	epochs atomic.Uint64
}

// NewRouter builds a router for shards workers over tr. timeout bounds how
// long any single shard may take to answer before the epoch fails with
// ShardDownError (0 means a generous default — a worker's rebuild cost is
// real compute, not just a network hop). bar, when non-nil, is the
// in-process merge barrier shared with the workers; addrs, when non-nil,
// annotates errors and health reports with shard addresses (process mode).
func NewRouter(tr livenet.Transport, shards int, timeout time.Duration, bar *Barrier, addrs []string) *Router {
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	return &Router{tr: tr, shards: shards, self: RouterPeer(shards), timeout: timeout, bar: bar, addrs: addrs}
}

// addr returns shard i's address, or "" when unknown (in-process mode).
func (r *Router) addr(i int) string {
	if i < len(r.addrs) {
		return r.addrs[i]
	}
	return ""
}

// Gather runs one refresh epoch: every shard i with dirty[i] rebuilds its
// summary at width eps, and the rebuilt summaries are appended to out in
// shard order. Clean shards are not contacted — the caller reuses its
// cached copies (the drift-gated repair). The epoch costs one broadcast hop
// and one reply hop whatever the shard count; a shard that does not answer
// within the timeout fails the epoch with ShardDownError.
func (r *Router) Gather(eps float64, dirty []bool, out []ShardSummary) ([]ShardSummary, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	need := 0
	for i := 0; i < r.shards; i++ {
		if dirty[i] {
			need++
		}
	}
	if need == 0 {
		return out, nil
	}
	rid := r.nextEpoch()
	var co *livenet.Coordinator
	if r.bar != nil {
		co = r.bar.arm(need + 1)
		defer r.bar.disarm()
	}
	req := livenet.Message{Kind: KindRefresh, Round: rid, From: int32(r.self),
		Value: int64(math.Float64bits(eps))}
	for i := 0; i < r.shards; i++ {
		if dirty[i] {
			if co != nil {
				co.NoteSent()
			}
			r.tr.Send(i, req)
		}
	}

	got := make(map[int]ShardSummary, need)
	var firstErr error
	deadline := time.After(r.timeout)
	for len(got) < need {
		select {
		case m, ok := <-r.tr.Inbox(r.self):
			if !ok {
				return out, fmt.Errorf("shard: router transport closed")
			}
			if co != nil {
				co.NoteReceived()
			}
			if m.Round != rid {
				continue // stray reply from an abandoned epoch
			}
			switch m.Kind {
			case KindSummary:
				id := int(m.From)
				got[id] = ShardSummary{Shard: id, N: int(m.Value), Eps: eps,
					Gen: uint64(m.Value2), Cuts: m.Payload}
			case KindError:
				// Record the failure but keep collecting: in barrier mode
				// every participant must be accounted before the epoch can
				// close.
				got[int(m.From)] = ShardSummary{Shard: int(m.From), N: -1}
				if firstErr == nil {
					firstErr = fmt.Errorf("shard %d: rebuild failed (code %d)", m.From, m.Value)
				}
			}
		case <-deadline:
			for i := 0; i < r.shards; i++ {
				if dirty[i] {
					if _, ok := got[i]; !ok {
						return out, &ShardDownError{Shard: i, Addr: r.addr(i)}
					}
				}
			}
		}
	}
	if co != nil {
		// Close the merge barrier: all replies are consumed, so the release
		// fires as soon as every refreshed worker has arrived.
		<-co.Arrive()
	}
	if firstErr != nil {
		return out, firstErr
	}
	r.epochs.Add(1)
	for i := 0; i < r.shards; i++ {
		if dirty[i] {
			out = append(out, got[i])
		}
	}
	return out, nil
}

// Mutate applies one encoded batch to a single shard and returns its new
// size and generation.
func (r *Router) Mutate(shard int, ops []Op) (n int, gen uint64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rid := r.nextEpoch()
	r.tr.Send(shard, livenet.Message{Kind: KindMutate, Round: rid, From: int32(r.self),
		Payload: EncodeOps(nil, ops)})
	m, err := r.await(shard, rid, KindMutateAck)
	if err != nil {
		return 0, 0, err
	}
	return int(m.Value), uint64(m.Value2), nil
}

// Ping fetches one shard's health.
func (r *Router) Ping(shard int) (Health, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rid := r.nextEpoch()
	r.tr.Send(shard, livenet.Message{Kind: KindPing, Round: rid, From: int32(r.self)})
	m, err := r.await(shard, rid, KindPong)
	if err != nil {
		return Health{}, err
	}
	h := Health{Shard: shard, Addr: r.addr(shard), N: int(m.Value), Gen: uint64(m.Value2)}
	if len(m.Payload) > 0 {
		h.Drift = uint64(m.Payload[0])
	}
	return h, nil
}

// Stats reports the cross-shard round accounting.
func (r *Router) Stats() RouterStats {
	return RouterStats{Epochs: r.epochs.Load(), HopsPerEpoch: 2}
}

// nextEpoch assigns a request id; callers hold r.mu.
func (r *Router) nextEpoch() int32 {
	r.epoch++
	return r.epoch
}

// await collects the single want-kind reply to epoch rid from shard,
// discarding strays; callers hold r.mu. Mutations and pings run outside the
// merge barrier (they are single-shard request/response, not epochs), so no
// coordinator accounting happens here.
func (r *Router) await(shard int, rid int32, want livenet.Kind) (livenet.Message, error) {
	deadline := time.After(r.timeout)
	for {
		select {
		case m, ok := <-r.tr.Inbox(r.self):
			if !ok {
				return livenet.Message{}, fmt.Errorf("shard: router transport closed")
			}
			if m.Round != rid || int(m.From) != shard {
				continue
			}
			if m.Kind == KindError {
				return livenet.Message{}, fmt.Errorf("shard %d: request failed (code %d)", shard, m.Value)
			}
			if m.Kind == want {
				return m, nil
			}
		case <-deadline:
			return livenet.Message{}, &ShardDownError{Shard: shard, Addr: r.addr(shard)}
		}
	}
}
