package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"facile"

	"facile/internal/metrics"
)

// errShuttingDown is returned to requests that reach the batcher after
// Close; the HTTP layer maps it to 503.
var errShuttingDown = errors.New("server is shutting down")

// batchItem is one single-block analysis waiting to be coalesced.
type batchItem struct {
	ctx context.Context
	req facile.Request
	res chan facile.AnalysisResult // buffered(1); the collector never blocks on it
}

// batcher coalesces concurrent single-block requests (/v1/predict and
// /v1/analyze) into Engine.AnalyzeBatch calls. Batching is adaptive with no
// timer in the path: the collector goroutine blocks for the first request,
// then drains whatever else is already queued (up to maxBatch) and analyzes
// the whole group at once. While a group computes, new arrivals accumulate
// in the queue, so the batch size tracks the instantaneous load — an idle
// server adds zero latency (batch of one, immediately), a loaded one
// amortizes engine dispatch and fans each group across the engine's worker
// pool, keeping tail latency flat instead of queueing convoy-style.
type batcher struct {
	engine   *facile.Engine
	queue    chan batchItem
	done     chan struct{}
	stopped  chan struct{} // closed when the collector exits
	maxBatch int

	started   atomic.Bool
	closeOnce sync.Once

	// batches and blocks count completed groups and the blocks in them;
	// sizes records the batch-size distribution for /metrics.
	batches atomic.Uint64
	blocks  atomic.Uint64
	sizes   *metrics.Histogram
}

// batchSizeBounds covers batch sizes 1..maxBatch in powers of two.
func batchSizeBounds(maxBatch int) []float64 {
	var b []float64
	for v := 1; v < maxBatch; v *= 2 {
		b = append(b, float64(v))
	}
	return append(b, float64(maxBatch))
}

// newBatcher constructs a batcher; start launches the collector. They are
// separate so tests can queue requests deterministically before the
// collector runs.
func newBatcher(engine *facile.Engine, maxBatch int) *batcher {
	return &batcher{
		engine:   engine,
		queue:    make(chan batchItem, 4*maxBatch),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
		maxBatch: maxBatch,
		sizes:    metrics.NewHistogram(batchSizeBounds(maxBatch)),
	}
}

func (b *batcher) start() {
	b.started.Store(true)
	go b.collect()
}

// analyze submits one request and waits for its analysis, honoring ctx: a
// request abandoned by its client (or past its deadline) stops waiting
// immediately, even if its group is still computing.
func (b *batcher) analyze(ctx context.Context, req facile.Request) (*facile.Analysis, error) {
	item := batchItem{ctx: ctx, req: req, res: make(chan facile.AnalysisResult, 1)}
	select {
	case b.queue <- item:
	case <-b.done:
		return nil, errShuttingDown
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case res := <-item.res:
		return res.Analysis, res.Err
	case <-item.ctx.Done():
		return nil, ctx.Err()
	case <-b.stopped:
		// The collector has exited. Our item was either answered by the
		// final drain or enqueued just after it checked; settle the race
		// with one non-blocking read.
		select {
		case res := <-item.res:
			return res.Analysis, res.Err
		default:
			return nil, errShuttingDown
		}
	}
}

// collect is the collector goroutine: block for one item, drain the rest of
// the queue into the group, analyze, distribute, repeat.
func (b *batcher) collect() {
	defer close(b.stopped)
	items := make([]batchItem, 0, b.maxBatch)
	reqs := make([]facile.Request, 0, b.maxBatch)
	for {
		items = items[:0]
		select {
		case it := <-b.queue:
			items = append(items, it)
		case <-b.done:
			b.drain()
			return
		}
	fill:
		for len(items) < b.maxBatch {
			select {
			case it := <-b.queue:
				items = append(items, it)
			default:
				break fill
			}
		}
		reqs = b.process(items, reqs)
	}
}

// process analyzes one gathered group and distributes the results. It
// returns the request scratch slice for reuse.
func (b *batcher) process(items []batchItem, reqs []facile.Request) []facile.Request {
	// Drop requests whose caller already gave up — the same pre-compute
	// cancellation the engine applies between cache probe and compute;
	// computing them would spend engine capacity on answers nobody reads (a
	// cache miss can be the dominant cost of the whole group).
	live := items[:0]
	for _, it := range items {
		if it.ctx.Err() == nil {
			live = append(live, it)
		}
	}
	if len(live) == 0 {
		return reqs
	}
	reqs = reqs[:0]
	for _, it := range live {
		reqs = append(reqs, it.req)
	}
	// The group runs under a background context: per-item cancellation was
	// already honored above, and one caller's deadline must not abort its
	// groupmates' work.
	results := b.engine.AnalyzeBatch(context.Background(), reqs)
	// Count the group before delivering its results, so a caller that has
	// its answer also sees the group in the counters.
	b.batches.Add(1)
	b.blocks.Add(uint64(len(live)))
	b.sizes.Observe(float64(len(live)))
	for i, it := range live {
		it.res <- results[i]
	}
	return reqs
}

// drain fails everything still queued at shutdown.
func (b *batcher) drain() {
	for {
		select {
		case it := <-b.queue:
			it.res <- facile.AnalysisResult{Err: errShuttingDown}
		default:
			return
		}
	}
}

// close stops the collector and waits for it to exit; it is idempotent.
// Queued requests get errShuttingDown; in-flight groups complete first.
func (b *batcher) close() {
	b.closeOnce.Do(func() { close(b.done) })
	if b.started.Load() {
		<-b.stopped
	}
}
