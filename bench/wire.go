package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"facile"
	"facile/internal/server"
)

// wireReq is one recorded request of a workload.
type wireReq struct {
	path string
	body []byte
}

// wirePlan is a workload's traffic in replayable form: what to send to a
// facile-serve subprocess (the http pass), to the same server in process
// (the server pass). Both start from a fresh server that has seen warm,
// unless the http pass is given the workload's own warm server.
type wirePlan struct {
	server *serveProc // when set, the http pass uses it as it is

	serveArgs []string      // facile-serve flags besides -addr
	serverCfg server.Config // the same configuration in process; Engine is set per pass
	warm      []wireReq
	n         int // requests
	// traffic builds and checks the requests as the workload does, off the
	// clock, so in the http pass the load generator competes for the CPUs
	// as it did in the untraced run.
	traffic traffic
	conns   int     // connections of the http pass
	rate    float64 // when positive, the http pass is an open loop at this rate
}

// fixedTraffic sends reqs[k] as request k and accepts any 2xx answer.
func fixedTraffic(reqs []wireReq) traffic {
	return traffic{build: func(k int64) wireReq { return reqs[k] }}
}

// wireStats is what an http pass measured besides its span: mean request
// and response body bytes, and the server's shed share and mean
// micro-batch size from /metrics.
type wireStats struct {
	req, resp  float64
	shedFrac   float64
	microBatch float64
}

// replayHTTP times the plan's requests as client round trips against a
// freshly booted, warmed facile-serve, or the plan's own server. The
// span's busy time is the sum of the round trips, so it is comparable with
// serial in-process passes at any connection count.
func replayHTTP(r *recorder, cfg *config, plan *wirePlan) (*span, wireStats, error) {
	var ws wireStats
	clients := clientsN(plan.conns)
	defer closeClients(clients)
	srv := plan.server
	if srv == nil {
		var err error
		if srv, err = bootServer(cfg.serveBin, cfg.procs, plan.serveArgs...); err != nil {
			return nil, ws, err
		}
		defer srv.stop()
		warm := closedLoop(clients, int64(len(plan.warm)), &traffic{base: srv.base, build: func(k int64) wireReq { return plan.warm[k] }})
		if warm.failed > 0 {
			return nil, ws, fmt.Errorf("http pass warm-up: %s", warm.errs[0])
		}
	}
	m0, err := srv.metrics()
	if err != nil {
		return nil, ws, err
	}
	reqBytes, respBytes := make([]int64, plan.n), make([]int64, plan.n)
	t := &traffic{
		base: srv.base,
		build: func(k int64) wireReq {
			q := plan.traffic.build(k)
			reqBytes[k] = int64(len(q.body))
			return q
		},
		check: func(k int64, resp []byte) error {
			respBytes[k] = int64(len(resp))
			if plan.traffic.check != nil {
				return plan.traffic.check(k, resp)
			}
			return nil
		},
	}
	s := r.open("http", nil)
	var l *load
	if plan.rate > 0 {
		l = openLoop(clients, plan.rate, int64(plan.n), time.Second, t)
	} else {
		l = closedLoop(clients, int64(plan.n), t)
	}
	for _, v := range l.lat {
		if !math.IsInf(v, 1) {
			s.BusyNS += int64(v * 1e3)
		}
	}
	s.Calls, s.Errors = l.attempted, l.failed
	s.close()
	m1, err := srv.metrics()
	if err != nil {
		return nil, ws, err
	}
	var reqTotal, respTotal int64
	for k := range reqBytes {
		reqTotal += reqBytes[k]
		respTotal += respBytes[k]
	}
	ws.req, ws.resp = float64(reqTotal)/float64(plan.n), float64(respTotal)/float64(plan.n)
	ws.shedFrac, ws.microBatch = serverCounters(m0, m1)
	return s, ws, nil
}

// replayServer times the plan's requests through Server.ServeHTTP in
// process, serially, on a fresh server over a fresh engine.
func replayServer(r *recorder, parent *span, plan *wirePlan) (*span, error) {
	eng, err := serialEngine()
	if err != nil {
		return nil, err
	}
	scfg := plan.serverCfg
	scfg.Engine = eng
	srv, err := server.New(scfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	for _, q := range plan.warm {
		if code := serveOne(srv, q); code != http.StatusOK {
			return nil, fmt.Errorf("server pass warm-up: %s answered %d", q.path, code)
		}
	}
	reqs := make([]wireReq, plan.n)
	for k := range reqs {
		reqs[k] = plan.traffic.build(int64(k))
	}
	s := r.open("server", parent)
	s.timed(int64(len(reqs)), func() {
		for _, q := range reqs {
			if serveOne(srv, q) != http.StatusOK {
				s.Errors++
			}
		}
	})
	s.close()
	return s, nil
}

func serveOne(srv *server.Server, q wireReq) int {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body)))
	return rec.Code
}

// engineReplay is what an engine pass observed besides its span.
type engineReplay struct {
	span         *span
	hits, misses int64 // cache accounting of the pass alone
	gcFrac       float64
	allocPB      float64 // heap bytes allocated per block
}

// replayEngine times n engine calls, serially, on a fresh engine that warm
// has prepared, as a span named name. call performs call i and returns the
// blocks it analyzed; the span counts blocks.
func replayEngine(r *recorder, parent *span, name string, n int, warm func(*facile.Engine) error,
	call func(eng *facile.Engine, i int) (int64, error)) (*engineReplay, error) {
	eng, err := serialEngine()
	if err != nil {
		return nil, err
	}
	if warm != nil {
		if err := warm(eng); err != nil {
			return nil, fmt.Errorf("%s pass warm-up: %w", name, err)
		}
	}
	st0 := eng.Stats()
	rt0 := readRuntime()
	s := r.open(name, parent)
	for i := 0; i < n; i++ {
		blocks, err := call(eng, i)
		if err != nil {
			s.Errors++
		}
		s.Calls += blocks
	}
	s.close()
	rt1 := readRuntime()
	st1 := eng.Stats()
	return &engineReplay{
		span:    s,
		hits:    int64(st1.Hits - st0.Hits),
		misses:  int64(st1.Misses - st0.Misses),
		gcFrac:  gcFrac(rt0, rt1),
		allocPB: (rt1.alloc - rt0.alloc) / float64(max(s.Calls, 1)),
	}, nil
}

// serialEngine returns a default engine whose batches run on one worker:
// in-process replays are serial, so a pass's duration is the CPU time its
// calls cost and the layers below it can be subtracted call for call.
func serialEngine() (*facile.Engine, error) {
	return facile.NewEngine(facile.EngineConfig{Workers: 1})
}
