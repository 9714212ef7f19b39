package difffuzz

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"facile"
	"facile/internal/metrics"
	"facile/internal/pipesim"
	"facile/internal/uarch"
)

// ReplayTolerance is how far (in cycles per iteration) a replayed prediction
// may drift from its recorded value before the corpus gate reports it as a
// silent magnitude change. Both models are deterministic, so any drift at
// all means a model changed; the small tolerance only absorbs float
// formatting round trips.
const ReplayTolerance = 0.05

// Reproducer is one corpus entry under testdata/divergence/: a minimized
// divergent block (or a deliberately recorded agreeing block, Divergent
// false) with everything needed to replay it from this JSON alone. The
// corpus gate (root-package TestKnownDivergences) recomputes both models for
// every entry on every CI run and fails when agreement shifts in either
// direction.
type Reproducer struct {
	ID   string `json:"id"`
	Hex  string `json:"hex"`
	Arch string `json:"arch"`
	Mode string `json:"mode"` // "loop" or "unroll"
	// Divergent records the verdict under the entry's own thresholds.
	Divergent    bool    `json:"divergent"`
	Facile       float64 `json:"facile"`
	Pipesim      float64 `json:"pipesim"`
	RelThreshold float64 `json:"rel_threshold"`
	AbsThreshold float64 `json:"abs_threshold"`
	// Provenance, informational only.
	Seed         int64    `json:"seed,omitempty"`
	Category     string   `json:"category,omitempty"`
	Instructions []string `json:"instructions,omitempty"`
	Note         string   `json:"note,omitempty"`
}

// ReplayResult is the recomputation of one reproducer.
type ReplayResult struct {
	Facile    float64
	Pipesim   float64
	RelDiff   float64
	Divergent bool
}

// Replayer recomputes both models for a reproducer. The indirection exists
// so the gate itself is testable: a perturbed Replayer must make
// VerifyCorpus fail.
type Replayer func(r *Reproducer) (ReplayResult, error)

// NewReplayer returns the real Replayer: Engine.Analyze for the facile side
// (nil engine selects the process default) and pipesim.Predict for the
// simulator side (nil registry selects the default registry).
func NewReplayer(eng *facile.Engine, reg *uarch.Registry) Replayer {
	if eng == nil {
		eng = facile.DefaultEngine()
	}
	if reg == nil {
		reg = uarch.Default()
	}
	return func(r *Reproducer) (ReplayResult, error) {
		code, err := hex.DecodeString(r.Hex)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("%s: bad hex: %w", r.ID, err)
		}
		mode, err := facile.ParseMode(r.Mode)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("%s: %w", r.ID, err)
		}
		ana, err := eng.Analyze(nil, facile.Request{Code: code, Arch: r.Arch, Mode: mode})
		if err != nil {
			return ReplayResult{}, fmt.Errorf("%s: facile: %w", r.ID, err)
		}
		cfg, err := reg.ByName(r.Arch)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("%s: %w", r.ID, err)
		}
		sim, err := pipesim.Predict(cfg, code, mode == facile.Loop)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("%s: pipesim: %w", r.ID, err)
		}
		res := ReplayResult{Facile: ana.Prediction.CyclesPerIteration, Pipesim: metrics.Round2(sim)}
		res.RelDiff, res.Divergent = Diverges(res.Facile, res.Pipesim, r.RelThreshold, r.AbsThreshold)
		return res, nil
	}
}

// VerifyReproducer checks one replay against the recorded behavior and
// returns a descriptive error when agreement shifted: a previously agreeing
// block now diverges, a known divergence disappeared (also a change — the
// entry should be retired deliberately, not silently), or either prediction
// moved by more than ReplayTolerance.
func VerifyReproducer(r *Reproducer, res ReplayResult) error {
	if res.Divergent != r.Divergent {
		if r.Divergent {
			return fmt.Errorf("%s (%s/%s): known divergence vanished: facile=%.2f pipesim=%.2f now agree (recorded %.2f vs %.2f); retire the corpus entry deliberately if this is a fix",
				r.ID, r.Arch, r.Mode, res.Facile, res.Pipesim, r.Facile, r.Pipesim)
		}
		return fmt.Errorf("%s (%s/%s): previously agreeing block now diverges: facile=%.2f pipesim=%.2f (recorded %.2f vs %.2f)",
			r.ID, r.Arch, r.Mode, res.Facile, res.Pipesim, r.Facile, r.Pipesim)
	}
	if math.Abs(res.Facile-r.Facile) > ReplayTolerance {
		return fmt.Errorf("%s (%s/%s): facile prediction changed magnitude: %.2f -> %.2f",
			r.ID, r.Arch, r.Mode, r.Facile, res.Facile)
	}
	if math.Abs(res.Pipesim-r.Pipesim) > ReplayTolerance {
		return fmt.Errorf("%s (%s/%s): pipesim prediction changed magnitude: %.2f -> %.2f",
			r.ID, r.Arch, r.Mode, r.Pipesim, res.Pipesim)
	}
	return nil
}

// VerifyCorpus replays every entry and collects one error per shifted entry
// (replay failures count too: a corpus block must always stay analyzable).
func VerifyCorpus(entries []Reproducer, replay Replayer) []error {
	var errs []error
	for i := range entries {
		r := &entries[i]
		res, err := replay(r)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := VerifyReproducer(r, res); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// LoadCorpus reads every *.json reproducer in dir, sorted by filename. A
// missing directory is an empty corpus, not an error, so the gate passes on
// a fresh checkout before any corpus has been committed.
func LoadCorpus(dir string) ([]Reproducer, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]Reproducer, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Reproducer
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Hex == "" || r.Arch == "" || r.Mode == "" {
			return nil, fmt.Errorf("%s: incomplete reproducer (need hex, arch, mode)", path)
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteReproducer persists one reproducer as <id>.json under dir (created if
// needed), pretty-printed for reviewable diffs. Writing an entry that
// already exists is an overwrite: content-hashed IDs make that idempotent.
func WriteReproducer(dir string, r *Reproducer) (string, error) {
	if r.ID == "" {
		r.ID = FindingID(r.Hex, r.Arch, r.Mode)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.ID+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// CorpusEntry converts a triage finding into its corpus form under the run's
// thresholds.
func (r *Report) CorpusEntry(fin *Finding) Reproducer {
	return Reproducer{
		ID:           fin.ID,
		Hex:          fin.Hex,
		Arch:         fin.Arch,
		Mode:         fin.Mode,
		Divergent:    true,
		Facile:       fin.Facile,
		Pipesim:      fin.Pipesim,
		RelThreshold: r.RelThreshold,
		AbsThreshold: r.AbsThreshold,
		Seed:         fin.Seed,
		Category:     fin.Category,
		Instructions: fin.Instructions,
	}
}
