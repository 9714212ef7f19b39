package main

import (
	"bytes"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// traffic is what a load-generator phase sends: request k is built and its
// answer checked off the clock, so latency is the exchange alone (and, in
// an open loop, the wait for a free connection).
type traffic struct {
	base  string // http://host:port
	build func(k int64) wireReq
	check func(k int64, resp []byte) error // nil accepts any 2xx answer; must not keep resp
}

// exchange sends request k on c, reading the answer into buf, checks it,
// and returns when the response was complete. Each worker reuses its own
// buffer, so the generator makes little garbage and its collector takes
// little of the CPUs the server needs.
func (t *traffic) exchange(c *http.Client, k int64, buf *bytes.Buffer) (sent, done time.Time, err error) {
	q := t.build(k)
	sent = time.Now()
	resp, err := post(bgCtx, c, t.base+q.path, q.body, buf)
	done = time.Now()
	if err == nil && t.check != nil {
		err = t.check(k, resp)
	}
	return sent, done, err
}

// load is what one load-generator phase observed.
type load struct {
	lat       []float64 // µs per request; a failed request is +Inf, so it misses every latency limit
	attempted int64
	failed    int64
	errs      []string      // the first few failures
	elapsed   time.Duration // first send to last completion
	// Open loop only: how late each request was sent against its schedule,
	// how late the last one was, and whether the phase gave up because the
	// backlog grew past abortLate.
	late    []float64 // µs
	endLate time.Duration
	aborted bool
}

func (l *load) okRate() float64 {
	return float64(l.attempted-l.failed) / l.elapsed.Seconds()
}

// record adds one request's outcome; d is its latency.
func (l *load) record(d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		l.lat = append(l.lat, math.Inf(1))
		if len(l.errs) < maxProblems {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.lat = append(l.lat, float64(d.Nanoseconds())/1e3)
}

// closedLoop runs one worker per client, each sending its next request as
// soon as the previous one completes, until n requests have been sent.
func closedLoop(clients []*http.Client, n int64, t *traffic) *load {
	var next atomic.Int64
	start := time.Now()
	parts := make([]load, len(clients))
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(p *load, c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for k := next.Add(1) - 1; k < n; k = next.Add(1) - 1 {
				sent, done, err := t.exchange(c, k, &buf)
				p.record(done.Sub(sent), err)
			}
		}(&parts[w], clients[w])
	}
	wg.Wait()
	out := merge(parts)
	out.elapsed = time.Since(start)
	return out
}

// openLoop sends n requests on a fixed schedule, request k due at
// start + k/rate, over at most len(clients) connections: a worker claims
// the next request only once its connection is free, so when every
// connection is busy the schedule runs late and the wait counts in the
// latency, which is measured from the scheduled send time. The phase stops
// early once a request would be sent more than abortLate behind schedule:
// the backlog is growing and the rate is not sustained.
func openLoop(clients []*http.Client, rate float64, n int64, abortLate time.Duration, t *traffic) *load {
	var next atomic.Int64
	var aborted atomic.Bool
	start := time.Now().Add(2 * time.Millisecond)
	interval := float64(time.Second) / rate
	late := make([]float64, n)
	sent := make([]bool, n)
	parts := make([]load, len(clients))
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(p *load, c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for !aborted.Load() {
				k := next.Add(1) - 1
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) * interval))
				sleepUntil(due)
				behind := time.Since(due)
				if behind > abortLate {
					aborted.Store(true)
					return
				}
				late[k], sent[k] = float64(behind.Nanoseconds())/1e3, true
				_, done, err := t.exchange(c, k, &buf)
				p.record(done.Sub(due), err)
			}
		}(&parts[w], clients[w])
	}
	wg.Wait()
	out := merge(parts)
	out.elapsed = time.Since(start)
	out.aborted = aborted.Load()
	for k := n - 1; k >= 0; k-- {
		if sent[k] {
			out.endLate = time.Duration(late[k] * 1e3)
			break
		}
	}
	for k := range late {
		if sent[k] {
			out.late = append(out.late, late[k])
		}
	}
	return out
}

func merge(parts []load) *load {
	out := &load{}
	for i := range parts {
		out.lat = append(out.lat, parts[i].lat...)
		out.attempted += parts[i].attempted
		out.failed += parts[i].failed
		out.errs = append(out.errs, parts[i].errs...)
	}
	return out
}

// timerSlack is the Linux default timer slack: nanosleep returns about this
// late, so the generator wakes this much early.
const timerSlack = 50 * time.Microsecond

// sleepUntil blocks until t. Short waits use nanosleep directly, because
// the Go runtime's timers wake about a millisecond late on Linux — too
// coarse for a schedule with sub-millisecond gaps.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= timerSlack:
			return
		case d > 3*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d - timerSlack))
			syscall.Nanosleep(&ts, nil)
		}
	}
}
