package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallsFromSchedule stalls the server once and checks
// that the open loop charges the stall to every request scheduled during
// it: with one connection, requests due while the stalled one is in flight
// are sent late, and their latency, counted from the scheduled time,
// includes the wait. A generator that timed from the actual send would
// report them as fast.
func TestOpenLoopCountsStallsFromSchedule(t *testing.T) {
	const (
		rate  = 1000 // one request per millisecond
		n     = 300
		stall = 100 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if served.Add(1) == 50 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	clients := clientsN(1)
	defer closeClients(clients)
	l := openLoop(clients, rate, n, time.Second, &traffic{
		base:  srv.URL,
		build: func(int64) wireReq { return wireReq{path: "/", body: []byte("{}")} },
	})
	if l.failed != 0 || l.attempted != n {
		t.Fatalf("attempted %d, failed %d", l.attempted, l.failed)
	}
	// About 100 requests fall due during the stall; each waits for the
	// remainder of it, so at least 40 of them wait over 40 ms.
	slow := 0
	for _, v := range l.lat {
		if v > 40_000 {
			slow++
		}
	}
	if slow < 40 {
		t.Errorf("%d requests over 40 ms; a 100 ms stall at 1000 req/s delays about 100", slow)
	}
	maxLate := 0.0
	for _, v := range l.late {
		maxLate = max(maxLate, v)
	}
	if maxLate < 50_000 {
		t.Errorf("the generator never ran more than %.0f us late through a 100 ms stall", maxLate)
	}
	// The backlog drains well before the end, so the generator is on
	// schedule again.
	if l.endLate > 10*time.Millisecond {
		t.Errorf("end lateness %v after the backlog drained", l.endLate)
	}
}

// TestOpenLoopAbortsGrowingBacklog checks that a phase whose server cannot
// keep up stops once it falls abortLate behind, instead of running on.
func TestOpenLoopAbortsGrowingBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(2 * time.Millisecond) // capacity 500 req/s on one connection
	}))
	defer srv.Close()
	clients := clientsN(1)
	defer closeClients(clients)
	start := time.Now()
	l := openLoop(clients, 2000, 20_000, 50*time.Millisecond, &traffic{
		base:  srv.URL,
		build: func(int64) wireReq { return wireReq{path: "/"} },
	})
	if !l.aborted {
		t.Fatal("a 4x overloaded phase was not aborted")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("aborting took %v", d)
	}
}
