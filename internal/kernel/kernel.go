// Package kernel lends a facile.Engine's batch workers to the packages
// inside the module, without widening the engine's exported API: a
// design-space sweep runs its own per-block and per-point items on the
// same worker loop, and on the same warm worker scratch, as the engine's
// batches. Package facile sets Of when it is initialized.
package kernel

import (
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

// Engine is the part of a facile.Engine its worker loop lends.
type Engine interface {
	// Each runs item(sc, i) for every i in [0, n) on the engine's batch
	// workers, at most workers at once (values <= 0, or above the
	// engine's pool size, select the pool size), and returns after the
	// last one. Workers claim contiguous chunks of indices; each holds
	// one Scratch for the whole call.
	Each(n, workers int, item func(sc *Scratch, i int))
	// Resolve returns the configuration registered under arch, as the
	// engine's requests resolve it.
	Resolve(arch string) (*uarch.Config, error)
	// CountUncached adds n analyses computed outside the prediction cache
	// to the engine's Stats().Misses.
	CountUncached(n uint64)
}

// Of returns eng's Engine; eng must be a *facile.Engine.
var Of func(eng any) Engine
