package sim

import "testing"

// TestParallelRoundAllocs pins the gang's allocation-free dispatch: once an
// engine has run its first parallel round (which starts the worker gang),
// every round kind — and the per-query Reset — must allocate nothing, no
// matter how many shards dispatch. This is the multicore counterpart of the
// serial zero-alloc guarantees the session layer asserts.
func TestParallelRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 20000
	e := New(n, 11, WithWorkers(8))
	if len(e.bounds) == 2 {
		t.Fatalf("n=%d workers=8 produced a serial engine; want sharded", n)
	}
	ws := NewWorkspace[int64](e)
	dst := ws.Dst(0)
	send := func(v int) (int64, bool) { return int64(v), true }
	recv := func(v int, in []Delivery[int64]) {}
	batchSend := func(v int) []int64 { return nil }
	ws.ReserveBatch(1)
	ws.ReserveInbox(n)

	// Warm-up: start the gang, grow every buffer to steady state.
	ws.Pull(dst, 64)
	ws.Push(64, send, recv)
	ws.PushBatch(64, batchSend, recv, nil)
	e.Reset(11)

	cases := []struct {
		name string
		op   func()
	}{
		{"Pull", func() { ws.Pull(dst, 64) }},
		{"Push", func() { ws.Push(64, send, recv) }},
		{"PushBatch", func() { ws.PushBatch(64, batchSend, recv, nil) }},
		{"Reset", func() { e.Reset(11) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.op); got != 0 {
			t.Errorf("%s on a sharded engine: %.1f allocs/round, want 0", c.name, got)
		}
	}
}

// TestPullRoundsAllocs pins the fused multi-round primitive's dispatch at
// zero allocations on a 2-shard engine once its per-shard peer blocks exist:
// the span is a func value built once, exactly as the tournament's bound
// span methods are.
func TestPullRoundsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 8192
	e := New(n, 13, WithWorkers(2), WithFailures(UniformFailures(0.1)))
	if len(e.bounds) != 3 {
		t.Fatalf("n=%d workers=2 produced %d shards; want 2", n, len(e.bounds)-1)
	}
	next := make([]int32, n)
	span := func(_, lo, hi int, peers []int32) {
		copy(next[lo:hi], peers)
	}
	e.PullRounds(15, 64, span) // warm-up: gang and peer blocks at the largest k
	for _, k := range []int{2, 3, 15} {
		if got := testing.AllocsPerRun(20, func() { e.PullRounds(k, 64, span) }); got != 0 {
			t.Errorf("PullRounds(k=%d) on a 2-shard engine: %.1f allocs, want 0", k, got)
		}
	}
}
