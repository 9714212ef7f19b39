package difffuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"facile/internal/bb"
	"facile/internal/bhive"
	"facile/internal/metrics"
	"facile/internal/x86"
)

// Finding is one minimized divergence reproducer of a fuzzing run. Every
// field needed to replay it — the exact bytes, target, and both predictions
// — is self-contained; nothing depends on generator state.
type Finding struct {
	// ID is a stable content hash of (hex, arch, mode).
	ID string `json:"id"`
	// Seed and SourceID record provenance: the generator seed of the run
	// and the generated block ("alu-0008") the reproducer was minimized
	// from. They are informational; replay needs only Hex/Arch/Mode.
	Seed     int64  `json:"seed"`
	SourceID string `json:"source_id"`
	Category string `json:"category"`
	Arch     string `json:"arch"`
	Mode     string `json:"mode"` // "loop" or "unroll"
	// Hex is the minimized block; OriginalHex the block it was minimized
	// from.
	Hex         string `json:"hex"`
	OriginalHex string `json:"original_hex"`
	// Facile and Pipesim are the two predictions on the minimized block,
	// in cycles per iteration; RelDiff their relative difference.
	Facile  float64 `json:"facile"`
	Pipesim float64 `json:"pipesim"`
	RelDiff float64 `json:"rel_diff"`
	// MCA is llvm-mca's block reciprocal throughput when the referee ran;
	// MCAErr records why it did not.
	MCA    float64 `json:"mca,omitempty"`
	MCAErr string  `json:"mca_err,omitempty"`
	// Signature is the sorted µop-role set of the minimized block — the
	// clustering key ("load+mul", "branch+vecdiv", ...).
	Signature    string   `json:"signature"`
	Instructions []string `json:"instructions"`
	// Dups counts how many generated blocks minimized to this same
	// reproducer in the run.
	Dups int `json:"dups"`
}

// Cluster groups findings that share a µop-role signature and mode — the
// triage unit: one cluster is (usually) one modeling discrepancy.
type Cluster struct {
	// Key is "<mode>:<signature>".
	Key string `json:"key"`
	// Findings lists member finding IDs; Blocks is the total number of
	// generated blocks (including duplicates) behind them.
	Findings []string `json:"findings"`
	Blocks   int      `json:"blocks"`
}

// Report is the triage outcome of one fuzzing batch.
type Report struct {
	// Command is the exact command line that reproduces this run.
	Command string `json:"command,omitempty"`
	Seed    int64  `json:"seed"`
	N       int    `json:"n"`
	// Targets lists the compared (arch, mode) pairs as "ARCH/mode".
	Targets      []string `json:"targets"`
	RelThreshold float64  `json:"rel_threshold"`
	AbsThreshold float64  `json:"abs_threshold"`
	// Blocks, Comparisons, Divergent, DivergentBlocks summarize the sweep.
	Blocks          int `json:"blocks"`
	Comparisons     int `json:"comparisons"`
	Divergent       int `json:"divergent"`
	DivergentBlocks int `json:"divergent_blocks"`
	// MinimizeSkipped counts divergent blocks left unminimized because the
	// MaxFindings budget was spent (never silently: it is reported here and
	// in the text rendering).
	MinimizeSkipped int `json:"minimize_skipped,omitempty"`
	// Errors are harness failures: a model rejecting a generated block or a
	// simulator deadlock. They mean the harness (not the models' agreement)
	// is broken and fail the nightly job.
	Errors   []string   `json:"errors,omitempty"`
	Findings []*Finding `json:"findings"`
	Clusters []Cluster  `json:"clusters"`
	// Agreeing holds Divergent=false sentinel corpus entries recorded when
	// Options.AgreeingSamples asked for them.
	Agreeing []Reproducer `json:"agreeing,omitempty"`
}

// newFinding assembles a Finding for a (possibly minimized) divergent block.
func (f *Fuzzer) newFinding(blk *bhive.GenBlock, t Target, code, origCode []byte, cmp comparison) (*Finding, error) {
	insts, err := x86.DecodeBlock(code)
	if err != nil {
		return nil, fmt.Errorf("decode minimized block: %w", err)
	}
	lines := make([]string, len(insts))
	for i := range insts {
		lines[i] = insts[i].String()
	}
	sig, err := f.signature(code, t.Arch)
	if err != nil {
		return nil, err
	}
	fin := &Finding{
		Seed:         f.opt.Seed,
		SourceID:     blk.ID,
		Category:     blk.Category,
		Arch:         t.Arch,
		Mode:         modeWire(t.Mode),
		Hex:          hex.EncodeToString(code),
		OriginalHex:  hex.EncodeToString(origCode),
		Facile:       cmp.facile,
		Pipesim:      cmp.pipesim,
		RelDiff:      metrics.Round2(cmp.relDiff),
		Signature:    sig,
		Instructions: lines,
		Dups:         1,
	}
	fin.ID = FindingID(fin.Hex, fin.Arch, fin.Mode)
	return fin, nil
}

// FindingID derives the stable content-hash identifier of a reproducer.
func FindingID(hexCode, arch, mode string) string {
	sum := sha256.Sum256([]byte(hexCode + "|" + arch + "|" + mode))
	return hex.EncodeToString(sum[:5])
}

// signature computes the clustering signature of a block on one arch: the
// sorted set of µop roles it dispatches, with "elim" standing in for
// instructions that never execute (eliminated moves, zero idioms, NOPs).
func (f *Fuzzer) signature(code []byte, arch string) (string, error) {
	block, err := bb.Build(f.cfgs[arch], code)
	if err != nil {
		return "", fmt.Errorf("signature: %w", err)
	}
	set := map[string]bool{}
	for i := range block.Insts {
		ins := &block.Insts[i]
		if ins.FusedWithPrev {
			continue
		}
		if len(ins.Desc.Uops) == 0 {
			set["elim"] = true
			continue
		}
		for _, u := range ins.Desc.Uops {
			set[u.Role.String()] = true
		}
	}
	roles := make([]string, 0, len(set))
	for r := range set {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	return strings.Join(roles, "+"), nil
}

// clusterFindings groups sorted findings by (mode, signature). Clusters come
// out ordered by total block count (descending), ties by key.
func clusterFindings(fins []*Finding) []Cluster {
	byKey := map[string]*Cluster{}
	var order []string
	for _, fin := range fins {
		key := fin.Mode + ":" + fin.Signature
		c, ok := byKey[key]
		if !ok {
			c = &Cluster{Key: key}
			byKey[key] = c
			order = append(order, key)
		}
		c.Findings = append(c.Findings, fin.ID)
		c.Blocks += fin.Dups
	}
	out := make([]Cluster, 0, len(order))
	for _, key := range order {
		out = append(out, *byKey[key])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Blocks != out[j].Blocks {
			return out[i].Blocks > out[j].Blocks
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Text renders the triage report for humans. The rendering is deterministic
// for a fixed report.
func (r *Report) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "facile-fuzz triage report\n")
	if r.Command != "" {
		fmt.Fprintf(&sb, "reproduce: %s\n", r.Command)
	}
	fmt.Fprintf(&sb, "seed %d · %d blocks · %d targets · thresholds rel>%.2f abs>%.2f\n",
		r.Seed, r.Blocks, len(r.Targets), r.RelThreshold, r.AbsThreshold)
	fmt.Fprintf(&sb, "%d comparisons · %d divergent (%d blocks) · %d reproducers · %d clusters\n",
		r.Comparisons, r.Divergent, r.DivergentBlocks, len(r.Findings), len(r.Clusters))
	if r.MinimizeSkipped > 0 {
		fmt.Fprintf(&sb, "NOTE: %d divergent blocks were not minimized (MaxFindings budget); raise -max-findings to cover them\n",
			r.MinimizeSkipped)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&sb, "HARNESS ERROR: %s\n", e)
	}
	for _, c := range r.Clusters {
		fmt.Fprintf(&sb, "\ncluster %s — %d blocks, %d reproducers\n", c.Key, c.Blocks, len(c.Findings))
		for _, id := range c.Findings {
			fin := r.finding(id)
			if fin == nil {
				continue
			}
			fmt.Fprintf(&sb, "  [%s] %s %s  facile=%.2f pipesim=%.2f (rel %.2f, ×%d)",
				fin.ID, fin.Arch, fin.Mode, fin.Facile, fin.Pipesim, fin.RelDiff, fin.Dups)
			if fin.MCA != 0 {
				fmt.Fprintf(&sb, " mca=%.2f", fin.MCA)
			}
			fmt.Fprintf(&sb, "\n    hex %s\n", fin.Hex)
			for _, line := range fin.Instructions {
				fmt.Fprintf(&sb, "      %s\n", line)
			}
		}
	}
	return sb.String()
}

func (r *Report) finding(id string) *Finding {
	for _, fin := range r.Findings {
		if fin.ID == id {
			return fin
		}
	}
	return nil
}
