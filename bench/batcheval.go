package main

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"time"

	"facile"
)

// The batch-eval workload is the warm path, cold-stream's read side: a
// facile-serve subprocess answers POST /v1/predict/batch requests of
// batchSize blocks drawn uniformly from a working set that was analyzed
// during set-up, closed loop, on one keep-alive connection per CPU. Nearly
// every block is a cache hit, so body read, JSON parse, hex decode, the
// cache probe and response encoding dominate, while bb and core do almost
// nothing.

// batchWorkload is batch-eval's inputs.
type batchWorkload struct {
	seed     int64
	ws       []op
	expected []outcome
	size     int
}

// draws returns the working-set indices of batch request k.
func (b *batchWorkload) draws(k int64) []int {
	rng := drawRNG(b.seed, k)
	idx := make([]int, b.size)
	for i := range idx {
		idx[i] = rng.Intn(len(b.ws))
	}
	return idx
}

// body renders the batch of the given working-set indices.
func (b *batchWorkload) body(idx []int) []byte {
	buf := append(make([]byte, 0, 96*len(idx)), `{"requests":[`...)
	for i, j := range idx {
		if i > 0 {
			buf = append(buf, ',')
		}
		o := &b.ws[j]
		buf = append(buf, `{"code":"`...)
		buf = hex.AppendEncode(buf, o.code)
		buf = append(buf, `","arch":"`...)
		buf = append(buf, o.arch...)
		buf = append(buf, `","mode":"`...)
		buf = append(buf, o.modeName()...)
		buf = append(buf, `"}`...)
	}
	return append(buf, "]}"...)
}

// chunks covers the working set in order, one batch per chunk.
func (b *batchWorkload) chunks() [][]int {
	var out [][]int
	for lo := 0; lo < len(b.ws); lo += b.size {
		idx := make([]int, 0, b.size)
		for j := lo; j < min(lo+b.size, len(b.ws)); j++ {
			idx = append(idx, j)
		}
		out = append(out, idx)
	}
	return out
}

// check compares a batch response with the reference outcomes of idx.
func (b *batchWorkload) check(resp []byte, idx []int) ([]outcome, error) {
	outs, err := scanBatch(resp, len(idx))
	if err != nil {
		return nil, err
	}
	for i, j := range idx {
		if outs[i] != b.expected[j] {
			o := &b.ws[j]
			return nil, fmt.Errorf("%s %s %x: served %+v, reference %+v", o.arch, o.modeName(), o.code, outs[i], b.expected[j])
		}
	}
	return outs, nil
}

// traffic sends the batches of idxs, request k carrying idxs(k), checking
// every answer against the reference.
func (b *batchWorkload) traffic(base string, idxs func(k int64) []int) *traffic {
	return &traffic{
		base:  base,
		build: func(k int64) wireReq { return wireReq{path: "/v1/predict/batch", body: b.body(idxs(k))} },
		check: func(k int64, resp []byte) error {
			_, err := b.check(resp, idxs(k))
			if err != nil {
				err = fmt.Errorf("request %d: %w", k, err)
			}
			return err
		},
	}
}

func batchEval(cfg *config) (*result, error) {
	sz := cfg.sz
	res := newResult("batch-eval")
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	wl := &batchWorkload{seed: cfg.seed, ws: rotatedOps(cfg.seed, sz.workingSet), size: sz.batchSize}
	wl.expected = make([]outcome, len(wl.ws))
	for i := range wl.ws {
		if wl.expected[i], err = ref.expect(&wl.ws[i]); err != nil {
			return nil, err
		}
	}
	// The first boot's warm-up answers, in working-set order, form the
	// digest.
	chunks := wl.chunks()
	d := newDigest()
	warm := wl.traffic("", func(k int64) []int { return chunks[k] })
	warm.check = func(k int64, resp []byte) error {
		outs, err := wl.check(resp, chunks[k])
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for i, j := range chunks[k] {
			d.add(&wl.ws[j], outs[i])
		}
		return nil
	}
	clients := clientsN(runtime.NumCPU())
	defer closeClients(clients)

	// Set-up: boot and warm several servers, keeping the last. Warm-up
	// batches go one at a time, so the digest is in working-set order.
	var srv *serveProc
	var setups, slows []float64
	speed := cfg.meter()
	for b := 0; b < sz.boots; b++ {
		if srv != nil {
			srv.stop()
			closeClients(clients)
		}
		if err := speed.begin(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if srv, err = bootServer(cfg.serveBin, cfg.procs); err != nil {
			return nil, err
		}
		warm.base = srv.base
		l := closedLoop(clients[:1], int64(len(chunks)), warm)
		setups = append(setups, time.Since(t0).Seconds())
		if l.failed > 0 {
			srv.stop()
			return nil, fmt.Errorf("%s", l.errs[0])
		}
		slow, err := speed.end()
		if err != nil {
			srv.stop()
			return nil, err
		}
		slows = append(slows, slow)
		if b == 0 {
			res.Digest = d.sum()
			warm.check = func(k int64, resp []byte) error { _, err := wl.check(resp, chunks[k]); return err }
		}
	}
	defer srv.stop()
	res.setTiming("setup_s", "s", asDuration, setups, slows, len(setups), "")

	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	// The measured phase is many back-to-back windows of a fixed request
	// count on the same warm server, each at the speed measured around it;
	// each metric is the midmean over them.
	var rates []float64
	var lats [][]float64
	pid := srv.cmd.Process.Pid
	probe := newRepeatProbe(pid, cfg.meter(pid))
	for w := 0; w < sz.batchWindows; w++ {
		if err := probe.begin(); err != nil {
			return nil, err
		}
		base := int64(w * sz.batchReqs)
		t := wl.traffic(srv.base, func(k int64) []int { return wl.draws(base + k) })
		l := closedLoop(clients, int64(sz.batchReqs), t)
		res.addLoad(l)
		ok := float64(l.attempted - l.failed)
		rates = append(rates, ok*float64(sz.batchSize)/l.elapsed.Seconds())
		lats = append(lats, l.lat)
		if _, err := probe.end(); err != nil {
			return nil, err
		}
	}
	probe.record(res)
	m1, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	res.setTiming("blocks_per_s", "blocks/s", asRate, rates, probe.slows, int(res.Attempted), "")
	res.setLatency(lats, probe.slows)
	res.setServer(m0, m1, float64(res.Attempted*int64(sz.batchSize)))

	if cfg.trace {
		if err := traceBatchEval(cfg, res, wl, srv, meanFinite(slices.Concat(lats...))*1e3); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// meanFinite is the mean of the finite values of xs.
func meanFinite(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x < 1e300 {
			sum += x
			n++
		}
	}
	return sum / float64(max(n, 1))
}

// traceBatchEval replays the first batchReplay requests of the measured
// phase: over the wire on the measured server at the workload's connection
// count, through ServeHTTP, and through AnalyzeBatchN on a warmed engine;
// then the working set through the layers below.
func traceBatchEval(cfg *config, res *result, wl *batchWorkload, srv *serveProc, untracedNS float64) error {
	r := &recorder{workload: "batch-eval"}
	n := cfg.sz.batchReplay
	plan := &wirePlan{server: srv, conns: runtime.NumCPU(), n: n, traffic: *wl.traffic("", wl.draws)}
	for _, idx := range wl.chunks() {
		plan.warm = append(plan.warm, wireReq{path: "/v1/predict/batch", body: wl.body(idx)})
	}
	batches := make([][]facile.Request, n)
	for k := range batches {
		idx := wl.draws(int64(k))
		batches[k] = make([]facile.Request, len(idx))
		for i, j := range idx {
			batches[k][i] = wl.ws[j].request(facile.DetailPrediction)
		}
	}
	httpSpan, ws, err := replayHTTP(r, cfg, plan)
	if err != nil {
		return err
	}
	serverSpan, err := replayServer(r, httpSpan, plan)
	if err != nil {
		return err
	}
	warmEngine := func(eng *facile.Engine) error {
		for _, q := range wl.ws {
			if _, err := eng.Analyze(bgCtx, q.request(facile.DetailPrediction)); err != nil {
				return err
			}
		}
		return nil
	}
	fac, err := replayEngine(r, serverSpan, "facile", n, warmEngine, func(eng *facile.Engine, k int) (int64, error) {
		out := eng.AnalyzeBatchN(bgCtx, batches[k], 0)
		for i := range out {
			if out[i].Err != nil {
				return int64(len(out)), out[i].Err
			}
		}
		return int64(len(out)), nil
	})
	if err != nil {
		return err
	}
	cfgs, err := archConfigs()
	if err != nil {
		return err
	}
	memo, edges, err := replayBlocks(r, fac.span, wl.ws, nil, cfgs, fac.misses)
	if err != nil {
		return err
	}
	replayLRU(r, fac.span, wl.ws, fac.hits)
	return fillLayers(res, r, layerInputs{wire: ws, memo: memo, edges: edges, gcFrac: fac.gcFrac, alloc: fac.allocPB},
		httpSpan, untracedNS)
}
