package bb

import "facile/internal/uarch"

// Builder prepares basic blocks for one microarchitecture. It is a thin form
// of Build and retains nothing between blocks; it remains only because the
// benchmark's per-layer replay (bench/layers.go) calls NewBuilder, Build and
// DescCacheLen, and the benchmark is not edited together with the code it
// measures. New code should call Build directly. A Builder is safe for
// concurrent use.
type Builder struct {
	cfg *uarch.Config
}

// NewBuilder returns a Builder preparing blocks for cfg.
func NewBuilder(cfg *uarch.Config) *Builder { return &Builder{cfg: cfg} }

// Build is Build(cfg, code) for the Builder's configuration.
func (bd *Builder) Build(code []byte) (*Block, error) { return Build(bd.cfg, code) }

// DescCacheLen reports the number of instruction descriptors the Builder
// retains across blocks, which is always 0.
func (bd *Builder) DescCacheLen() int { return 0 }
