package baselines

import (
	"fmt"
	"strings"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/mca"
	"facile/internal/uarch"
	"facile/internal/x86"
)

// fieldEnv is what a registry constructor may draw on: the target arch, the
// training corpus (built only when a learned entrant is named) and the
// llvm-mca referee.
type fieldEnv struct {
	cfg     *uarch.Config
	blocks  []*bb.Block
	meas    []float64
	referee *mca.Referee
}

// registry is the one name-keyed table of predictors, in the order Names
// lists them. Learned entrants are fitted on the field's training corpus.
var registry = []struct {
	name    string
	learned bool
	build   func(e *fieldEnv) Predictor
}{
	{"facile", false, func(*fieldEnv) Predictor { return Facile{} }},
	{"uica", false, func(*fieldEnv) Predictor { return UiCA{} }},
	{"ithemal", true, func(e *fieldEnv) Predictor { return TrainIthemal(e.blocks, e.meas) }},
	{"difftune", true, func(e *fieldEnv) Predictor { return TrainDiffTune(e.blocks) }},
	{"learning-bl", true, func(e *fieldEnv) Predictor { return TrainLearningBL(e.blocks, e.meas) }},
	{"llvm-mca", false, func(*fieldEnv) Predictor { return LLVMMCA{} }},
	{"osaca", false, func(*fieldEnv) Predictor { return OSACA{} }},
	{"cqa", false, func(*fieldEnv) Predictor { return CQA{} }},
	{"iaca", false, func(*fieldEnv) Predictor { return IACA{} }},
	{"mca", false, func(e *fieldEnv) Predictor { return MCA{Referee: e.referee, Arch: e.cfg.Name} }},
}

// Names lists every registered predictor name.
func Names() []string {
	names := make([]string, len(registry))
	for i, r := range registry {
		names[i] = r.name
	}
	return names
}

// index returns name's registry position, or -1.
func index(name string) int {
	for i, r := range registry {
		if r.name == name {
			return i
		}
	}
	return -1
}

func errUnknown(name string) error {
	return fmt.Errorf("unknown predictor %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// ParseNames splits a comma-separated predictor list into registry names,
// ignoring case, surrounding space and empty items.
func ParseNames(list string) ([]string, error) {
	var names []string
	for _, raw := range strings.Split(list, ",") {
		name := strings.ToLower(strings.TrimSpace(raw))
		if name == "" {
			continue
		}
		if index(name) < 0 {
			return nil, errUnknown(name)
		}
		names = append(names, name)
	}
	return names, nil
}

// Field builds the named predictors for cfg, in the order given. Learned
// entrants are trained once, on the TPU measurements of
// bhive.Generate(trainSeed, trainN) — a corpus disjoint from the evaluation
// corpora — and trained reports whether any was. The "mca" entrant scores
// through referee, which must then be non-nil.
func Field(cfg *uarch.Config, names []string, trainSeed int64, trainN int, referee *mca.Referee) (preds []Predictor, trained bool, err error) {
	idx := make([]int, len(names))
	for i, name := range names {
		if idx[i] = index(name); idx[i] < 0 {
			return nil, false, errUnknown(name)
		}
		if name == "mca" && referee == nil {
			return nil, false, fmt.Errorf("predictor %q needs an llvm-mca binary", name)
		}
		trained = trained || registry[idx[i]].learned
	}
	env := &fieldEnv{cfg: cfg, referee: referee}
	if trained {
		for _, bm := range bhive.Generate(trainSeed, trainN) {
			block, err := bb.Build(cfg, bm.Code)
			if err != nil {
				continue
			}
			env.blocks = append(env.blocks, block)
			env.meas = append(env.meas, bhive.MeasureBlock(block, false))
		}
	}
	preds = make([]Predictor, len(names))
	for i, j := range idx {
		preds[i] = registry[j].build(env)
	}
	return preds, trained, nil
}

// MCA scores blocks through the external llvm-mca binary (the shared
// internal/mca subprocess adapter): the block is disassembled to
// Intel-syntax lines, wrapped, and the Block RThroughput scraped. Arch names
// are mapped to -mcpu targets by the adapter.
type MCA struct {
	Referee *mca.Referee
	Arch    string
}

func (MCA) Name() string { return "llvm-mca(ext)" }

func (m MCA) Predict(block *bb.Block, loop bool) (float64, error) {
	insts, err := x86.DecodeBlock(block.Code)
	if err != nil {
		return 0, err
	}
	lines := make([]string, len(insts))
	for i := range insts {
		lines[i] = insts[i].String()
	}
	return m.Referee.Score(lines, m.Arch)
}
