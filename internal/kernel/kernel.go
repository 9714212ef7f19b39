// Package kernel lends a facile.Engine's batch workers to the packages
// inside the module, without widening the engine's exported API: a
// design-space sweep runs one item per block on the same worker loop, and
// on the same warm worker scratch, as the engine's batches, and resolves
// the block's base analysis through the engine's cached path on that
// scratch, as a batch item would. Package facile sets Of when it is
// initialized.
package kernel

import (
	"context"

	"facile/internal/bb"
	"facile/internal/core"
	"facile/internal/uarch"
)

// Scratch is what a batch worker lends each item: a block to build into
// and the component bounds' scratch context, both warm after the worker's
// first items. An item may leave anything in them; the next one builds
// afresh.
type Scratch struct {
	Block bb.Block
	Ana   core.Analysis
}

// Base is what a caller keeps of one analysis: its prediction, rounded as
// an Analysis rounds it, its bottlenecks, and its bound vector.
type Base struct {
	TP          float64
	Bottlenecks core.ComponentSet
	Bounds      core.Bounds
}

// Engine is the part of a facile.Engine its worker loop lends.
type Engine interface {
	// Each runs item(sc, i, left) for every i in [0, n) on the engine's
	// batch workers, at most workers at once (values <= 0, or above the
	// engine's pool size, select the pool size), and returns after the
	// last one. Workers claim contiguous chunks of indices; each holds one
	// Scratch for the whole call, and left is how many items of i's
	// chunk, i included, are still to run.
	Each(n, workers int, item func(sc *Scratch, i, left int))
	// Analyze analyzes code on the registered arch in mode (a
	// facile.Mode) as one item of a batch does: through the prediction
	// cache, a miss computed on sc, which must be one Each lent, with the
	// results' slabs sized for the left items of its chunk. It sets out
	// from the analysis, and returns the error the batch item would. A
	// miss leaves the block built in sc.Block.
	Analyze(ctx context.Context, sc *Scratch, left int, arch string, mode int, code []byte, out *Base) error
	// Resolve returns the configuration registered under arch, as the
	// engine's requests resolve it.
	Resolve(arch string) (*uarch.Config, error)
	// CountUncached adds n analyses computed outside the prediction cache
	// to the engine's Stats().Misses.
	CountUncached(n uint64)
}

// Of returns eng's Engine; eng must be a *facile.Engine.
var Of func(eng any) Engine
