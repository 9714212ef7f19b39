package main

import "time"

// runSeconds is BENCHMARK.json's run_seconds. Every workload's work is a
// fixed count, not a clock, so runs repeat the same work; the counts below
// are set so that on a 2-vCPU Xeon each workload measures for about this
// long.
const runSeconds = 20

// sizes is every workload's size: the full-size counts, or the smoke
// scale.
//
// Each workload repeats its measurement many times in one run, each repeat
// at the machine speed measured around it, and reports the midmean over the
// repeats (stats.go): on a shared machine a burst of noise slows a few
// repeats, and the midmean drops them. Latency percentiles are taken over
// groups of consecutive repeats that hold enough operations for each.
type sizes struct {
	setupReps int // cold-stream and sweep: child processes timed from exec to ready
	boots     int // batch-eval and interactive: servers booted and warmed

	// cold-stream: coldRepeats fresh engines, each analyzing its own
	// coldBlocks distinct blocks, taking a speed sample every coldChunk of
	// them; the golden digest covers the first coldGolden.
	coldRepeats int
	coldBlocks  int
	coldChunk   int
	coldGolden  int

	// batch-eval: batchWindows back-to-back windows of batchReqs requests,
	// each of batchSize blocks drawn from workingSet.
	workingSet   int
	batchSize    int
	batchWindows int
	batchReqs    int

	// interactive: fixedRepeats back-to-back windows of fixedReqs requests
	// at fixedRate; the golden digest covers the first goldenReqs requests.
	// The traced run adds a bisection of probeDur probes over the ladder.
	hotSet       int
	fixedRate    float64
	fixedRepeats int
	fixedReqs    int
	goldenReqs   int
	probeDur     time.Duration
	ladderLo     float64
	ladderHi     float64
	ladderRatio  float64

	// sweep: sweepSets sets of sweepBlocks blocks, each swept whole and one
	// point at a time.
	sweepSets   int
	sweepBlocks int

	// Traced replays.
	wireOps         int // cold-stream ops replayed over the wire
	batchReplay     int // batch-eval requests replayed per pass
	interReplay     int // interactive requests replayed per pass
	sweepReplayRuns int // sweeps replayed per pass
}

func sizesFor(smoke bool) sizes {
	s := sizes{
		setupReps: 31, boots: 7,
		coldRepeats: 10, coldBlocks: 10_000, coldChunk: 1000, coldGolden: 10_000,
		workingSet: 2048, batchSize: 256, batchWindows: 60, batchReqs: 140,
		hotSet: 1024, fixedRate: 500, fixedRepeats: 40, fixedReqs: 250, goldenReqs: 4000,
		probeDur: 500 * time.Millisecond, ladderLo: 1000, ladderHi: 32_000, ladderRatio: 1.05,
		sweepSets: 70, sweepBlocks: 32,
		wireOps: 2000, batchReplay: 2200, interReplay: 4000, sweepReplayRuns: 10,
	}
	if smoke {
		s.setupReps, s.boots = 2, 1
		s.coldRepeats, s.coldBlocks, s.coldChunk, s.coldGolden = 2, 500, 250, 500
		s.workingSet, s.batchSize, s.batchWindows, s.batchReqs = 256, 32, 2, 40
		s.hotSet, s.fixedRepeats, s.fixedReqs, s.goldenReqs, s.probeDur = 128, 2, 100, 200, 100*time.Millisecond
		s.sweepSets, s.sweepBlocks = 2, 8
		s.wireOps, s.batchReplay, s.interReplay, s.sweepReplayRuns = 200, 20, 200, 1
	}
	return s
}
