package main

import (
	"fmt"
	"os"
	"time"

	"facile"
)

// The cold-stream workload is the compiler and superoptimizer use: every
// block is new. A fresh default Engine analyzes a fixed count of distinct
// blocks at DetailPrediction, closed loop, on one goroutine, in process.
// x86, bb, core and cycleratio are all on the critical path, there is no
// wire, and the prediction cache only inserts and evicts. The count per
// engine is fixed because the bb descriptor memo's cost depends on how far
// into the stream a block is. The measurement repeats on further fresh
// engines over further distinct blocks, and each metric is the midmean
// over the repeats.

func coldStreamInputs(cfg *config) []op {
	return rotatedOps(cfg.seed, cfg.sz.coldBlocks*cfg.sz.coldRepeats)
}

func coldStreamSetup(*config) (any, error) { return facile.NewEngine(facile.EngineConfig{}) }

func coldStreamChild(cfg *config, state any, ops []op) (*result, error) {
	res := newResult("cold-stream")
	res.Attempted = int64(len(ops))
	per := cfg.sz.coldBlocks
	var rates []float64
	var lats [][]float64
	var hits, misses, evictions uint64
	probe := newRepeatProbe(os.Getpid(), cfg.meter())
	for rep := 0; rep*per < len(ops); rep++ {
		eng := state.(*facile.Engine)
		if rep > 0 {
			var err error
			if eng, err = facile.NewEngine(facile.EngineConfig{}); err != nil {
				return nil, err
			}
		}
		stream := ops[rep*per : (rep+1)*per]
		if err := probe.begin(); err != nil {
			return nil, err
		}
		lat, elapsed, digest, err := coldStreamPass(cfg, res, eng, stream, rep == 0, probe.speed)
		if err != nil {
			return nil, err
		}
		if _, err := probe.end(); err != nil {
			return nil, err
		}
		if rep == 0 {
			res.Digest = digest
		}
		rates = append(rates, float64(len(stream))/elapsed.Seconds())
		lats = append(lats, lat)
		st := eng.Stats()
		hits, misses, evictions = hits+st.Hits, misses+st.Misses, evictions+st.Evictions
	}
	probe.record(res)
	res.setTiming("blocks_per_s", "blocks/s", asRate, rates, probe.slows, len(ops), "")
	res.setLatency(lats, probe.slows)
	res.setCache(float64(hits), float64(misses), float64(evictions), len(ops))
	if cfg.trace {
		if err := traceColdStream(cfg, res, ops[:per], 1e9/res.Extra[measuredPrefix+"blocks_per_s"].Value); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// coldStreamPass analyzes stream on eng, checking every prediction, and
// returns the per-call latencies in µs, the elapsed time and, when
// withDigest is set, the digest of the golden prefix. Every coldChunk
// blocks it takes a machine speed sample, off the clock.
func coldStreamPass(cfg *config, res *result, eng *facile.Engine, stream []op, withDigest bool, speed *speedMeter) ([]float64, time.Duration, string, error) {
	lat := make([]float64, len(stream))
	nGold := 0
	if withDigest {
		nGold = cfg.sz.coldGolden
	}
	// The digest prefix keeps only the compared fields, not the analyses,
	// so the run's heap holds what the engine holds.
	gold := make([]outcome, nGold)
	var elapsed time.Duration
	start := time.Now()
	for i := range stream {
		if i > 0 && i%cfg.sz.coldChunk == 0 {
			elapsed += time.Since(start)
			if err := speed.sample(); err != nil {
				return nil, 0, "", err
			}
			start = time.Now()
		}
		t0 := time.Now()
		a, err := eng.Analyze(bgCtx, stream[i].request(facile.DetailPrediction))
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		if err == nil {
			err = checkInvariant(a)
		}
		if err != nil {
			res.fail("%s %s %x: %v", stream[i].arch, stream[i].modeName(), stream[i].code, err)
			continue
		}
		if i < nGold {
			gold[i] = outcomeOf(a)
		}
	}
	elapsed += time.Since(start)
	if nGold == 0 {
		return lat, elapsed, "", nil
	}
	d := newDigest()
	for i := range gold {
		d.add(&stream[i], gold[i])
	}
	return lat, elapsed, d.sum(), nil
}

// traceColdStream replays one repeat's stream layer by layer: the whole
// stream through a fresh engine (the top-level pass) and through x86, bb,
// core and cycleratio, and a prefix of it over the wire, as /v1/analyze
// requests at detail=prediction.
func traceColdStream(cfg *config, res *result, ops []op, untracedNS float64) error {
	r := &recorder{workload: "cold-stream"}
	wire := ops[:min(len(ops), cfg.sz.wireOps)]
	plan := &wirePlan{conns: 1, n: len(wire), traffic: fixedTraffic(analyzeReqs(wire, "prediction"))}
	httpSpan, ws, err := replayHTTP(r, cfg, plan)
	if err != nil {
		return err
	}
	serverSpan, err := replayServer(r, httpSpan, plan)
	if err != nil {
		return err
	}
	// The handler's engine call: /v1/analyze goes through the micro-batcher,
	// which analyzes a batch of one when requests arrive one at a time.
	if _, err := replayEngine(r, serverSpan, "facile.wire", len(wire), nil, func(eng *facile.Engine, i int) (int64, error) {
		out := eng.AnalyzeBatch(bgCtx, []facile.Request{wire[i].request(facile.DetailPrediction)})
		return 1, out[0].Err
	}); err != nil {
		return err
	}
	fac, err := replayEngine(r, nil, "facile", len(ops), nil, func(eng *facile.Engine, i int) (int64, error) {
		_, err := eng.Analyze(bgCtx, ops[i].request(facile.DetailPrediction))
		return 1, err
	})
	if err != nil {
		return err
	}
	cfgs, err := archConfigs()
	if err != nil {
		return err
	}
	memo, edges, err := replayBlocks(r, fac.span, ops, nil, cfgs, fac.misses)
	if err != nil {
		return err
	}
	replayLRU(r, fac.span, ops, fac.hits)
	return fillLayers(res, r, layerInputs{wire: ws, memo: memo, edges: edges, gcFrac: fac.gcFrac, alloc: fac.allocPB},
		fac.span, untracedNS)
}

// request is the engine request for o at detail d.
func (o *op) request(d facile.Detail) facile.Request {
	return facile.Request{Code: o.code, Arch: o.arch, Mode: o.mode, Detail: d}
}

// analyzeReqs renders ops as POST /v1/analyze requests at detail.
func analyzeReqs(ops []op, detail string) []wireReq {
	out := make([]wireReq, len(ops))
	for i := range ops {
		out[i] = wireReq{path: "/v1/analyze", body: analyzeBody(&ops[i], detail)}
	}
	return out
}

func analyzeBody(o *op, detail string) []byte {
	return fmt.Appendf(nil, `{"code":"%x","arch":%q,"mode":%q,"detail":%q}`, o.code, o.arch, o.modeName(), detail)
}
