package main

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one request as the generator saw it. due is when the schedule
// wanted it sent (equal to sent in a closed loop); latency is measured from
// due, so a stall also charges every request queued behind it.
type sample struct {
	due, sent, end time.Time
	status         int
	body           []byte
	err            error
	skipped        bool // a ladder step the server already failed; never sent
	traced         bool // a span was recorded for this request
}

func (s *sample) ok() bool { return s.err == nil && s.status == 200 }

// latency is due-to-response time; a failed request counts as infinitely
// slow, so it misses every latency limit.
func (s *sample) latency() time.Duration {
	if !s.ok() {
		return time.Duration(1<<63 - 1)
	}
	return s.end.Sub(s.due)
}

// late is how far behind schedule the generator itself sent the request:
// measured only for requests whose connection was idle at their due time,
// so it isolates scheduling delay from queueing behind a slow response.
func (s *sample) late(prevEnd time.Time) (time.Duration, bool) {
	if prevEnd.After(s.due) {
		return 0, false
	}
	return s.sent.Sub(s.due), true
}

// spinWindow is how long before a due time the generator stops sleeping and
// polls. Go's own timers wake about a millisecond late on Linux (the
// netpoller waits in whole milliseconds), which at snapshot-read latencies
// would be most of what is measured, so streams sleep in nanosleep(2) on a
// thread of their own with the timer slack cut to 1 ns, and spin out the
// remainder.
const spinWindow = 100 * time.Microsecond

// lockSchedulerThread pins the calling goroutine to its OS thread and cuts
// that thread's timer slack; call it at the top of a stream goroutine.
func lockSchedulerThread() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > spinWindow {
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			syscall.Nanosleep(&ts, nil)
		} else {
			runtime.Gosched()
		}
	}
}

// request is one scheduled call: offset from the phase start (ignored in a
// closed loop), method, target and body.
type request struct {
	at     time.Duration
	method string
	target string
	body   []byte
	step   int  // rate-schedule step
	ladder bool // a ladder step, abandoned once the stream falls behind it
}

// abandonLag is how far behind schedule an open-loop stream may fall before
// it stops sending the remaining requests of a ladder step above the
// quiet phase: that step has failed, and every later step would too.
const abandonLag = time.Second

// drainLimit bounds how long an open-loop stream keeps sending its backlog
// after the timed phase; requests still unsent then count as failed.
const drainLimit = 60 * time.Second

var errNotSent = errors.New("not sent: backlog outlived the drain limit")

// openLoop sends reqs on one keep-alive connection, each at its due time or
// as soon as the previous response is in.
//
// With spans non-nil, every other request records a span under parent: the
// untraced half is the baseline the tracing overhead is measured against.
func openLoop(addr string, start time.Time, run time.Duration, reqs []request, spans *spanLog, parent int) []sample {
	lockSchedulerThread()
	defer runtime.UnlockOSThread()
	out := make([]sample, len(reqs))
	c, err := dial(addr)
	hardStop := start.Add(run + drainLimit)
	failedStep := -1
	for i, r := range reqs {
		s := &out[i]
		s.due = start.Add(r.at)
		if failedStep >= 0 && r.step >= failedStep {
			s.skipped = true
			continue
		}
		waitUntil(s.due)
		s.sent = time.Now()
		if r.ladder && s.sent.Sub(s.due) > abandonLag {
			failedStep = r.step
			s.skipped = true
			continue
		}
		if s.sent.After(hardStop) {
			s.err, s.end = errNotSent, s.sent
			continue
		}
		if c == nil {
			if c, err = dial(addr); err != nil {
				s.err, s.end = err, time.Now()
				continue
			}
		}
		s.status, s.body, s.err = c.do(r.method, r.target, r.body)
		s.end = time.Now()
		if spans != nil && i%2 == 0 {
			path, _, _ := strings.Cut(r.target, "?")
			spans.add("http."+r.method+" "+path, parent, s.sent, s.end)
			s.traced = true
		}
		if s.err != nil {
			c.close()
			c = nil
		}
	}
	if c != nil {
		c.close()
	}
	return out
}

// closedLoop sends reqs back to back on one connection until the phase
// ends; it returns only the requests it sent.
func closedLoop(addr string, start, stop time.Time, reqs []request, spans *spanLog, parent int) []sample {
	lockSchedulerThread()
	defer runtime.UnlockOSThread()
	var out []sample
	c, err := dial(addr)
	waitUntil(start)
	for _, r := range reqs {
		now := time.Now()
		if !now.Before(stop) {
			break
		}
		s := sample{due: now, sent: now}
		if c == nil {
			if c, err = dial(addr); err != nil {
				s.err, s.end = err, time.Now()
				out = append(out, s)
				continue
			}
		}
		s.status, s.body, s.err = c.do(r.method, r.target, r.body)
		s.end = time.Now()
		if spans != nil {
			spans.add("http.GET /quantile", parent, s.sent, s.end)
			s.traced = true
		}
		if s.err != nil {
			c.close()
			c = nil
		}
		out = append(out, s)
	}
	if c != nil {
		c.close()
	}
	return out
}

// phaseResult holds the samples of every stream of one timed phase.
type phaseResult struct {
	start time.Time
	reads []sample
	muts  []sample
	proto []sample
}

// runPhase drives the workload's streams against addr for run: at most two
// connections at once, one per stream.
//
// onBusy, if non-nil, is called when the quiet phase ends.
func runPhase(addr string, in *inputs, run time.Duration, spans *spanLog, parent int, onBusy func()) *phaseResult {
	reads := make([]request, len(in.reads))
	for i, r := range in.reads {
		reads[i] = request{at: r.at, method: "GET", target: readTarget(r.phi), step: r.step, ladder: in.steps[r.step].ladder}
	}
	var muts, proto []request
	for _, b := range in.muts {
		muts = append(muts, request{at: b.at, method: "POST", target: "/mutate", body: b.body})
	}
	for _, q := range in.proto {
		proto = append(proto, request{method: "GET", target: protoTarget(q)})
	}

	res := &phaseResult{start: time.Now().Add(20 * time.Millisecond)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.reads = openLoop(addr, res.start, run, reads, spans, parent)
	}()
	if len(muts) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.muts = openLoop(addr, res.start, run, muts, spans, parent)
		}()
	}
	if len(proto) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.proto = closedLoop(addr, res.start.Add(in.busy), res.start.Add(run), proto, spans, parent)
		}()
	}
	if onBusy != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(res.start.Add(in.busy)))
			onBusy()
		}()
	}
	wg.Wait()
	return res
}

// sendOnce sends one request on a fresh connection (an idle repair).
func sendOnce(addr, method, target string, body []byte) sample {
	s := sample{due: time.Now()}
	s.sent = s.due
	c, err := dial(addr)
	if err != nil {
		s.err, s.end = err, time.Now()
		return s
	}
	defer c.close()
	s.status, s.body, s.err = c.do(method, target, body)
	s.end = time.Now()
	return s
}
