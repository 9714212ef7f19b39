package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"facile"
	"facile/internal/bhive"
)

// benchArchs is the arch rotation every generated op stream uses: one
// microarchitecture per generation of the paper's Table 1 that the batch
// and serving paths see most.
var benchArchs = [...]string{"SNB", "SKL", "ICL"}

// op is one analysis the benchmark asks for: a block, its target
// microarchitecture, and the throughput notion.
type op struct {
	code []byte
	arch string
	mode facile.Mode
}

func (o *op) key() string { return fmt.Sprintf("%s/%d/%s", o.arch, o.mode, o.code) }

func (o *op) modeName() string {
	if o.mode == facile.Loop {
		return "loop"
	}
	return "unroll"
}

// rotatedOps returns n distinct ops drawn in order from
// bhive.GenerateBlocks(seed, ...): op i targets benchArchs[i%3] and
// alternates unroll (even i) and loop (odd i), using the block's loop
// variant for loop mode. Repeats of an earlier (block, arch, mode) are
// skipped, so a stream of n ops is n cache misses on a fresh engine.
func rotatedOps(seed int64, n int) []op {
	gen := n + n/50 + 16
	for {
		blocks := bhive.GenerateBlocks(seed, gen)
		out := make([]op, 0, n)
		seen := make(map[string]bool, n)
		for _, b := range blocks {
			i := len(out)
			o := op{code: b.Code, arch: benchArchs[i%len(benchArchs)], mode: facile.Unroll}
			if i%2 == 1 {
				o.code, o.mode = b.LoopCode, facile.Loop
			}
			if seen[o.key()] {
				continue
			}
			seen[o.key()] = true
			if out = append(out, o); len(out) == n {
				return out
			}
		}
		gen *= 2
	}
}

// loopOps returns n loop-mode SKL ops, the sweep workload's blocks (the
// base of the sweep grid is SKL).
func loopOps(seed int64, n int) []op {
	out := make([]op, n)
	for i, b := range bhive.GenerateBlocks(seed, n) {
		out[i] = op{code: b.LoopCode, arch: "SKL", mode: facile.Loop}
	}
	return out
}

// writeOps frames ops onto w for a child process: the frame's length, a
// count, then per op the arch index, the mode and the length-prefixed code.
func writeOps(w io.Writer, ops []op) error {
	buf := binary.AppendUvarint(nil, uint64(len(ops)))
	for i := range ops {
		ai := -1
		for j, a := range benchArchs {
			if a == ops[i].arch {
				ai = j
			}
		}
		if ai < 0 {
			return fmt.Errorf("writeOps: arch %q is not in the rotation", ops[i].arch)
		}
		buf = append(buf, byte(ai), byte(ops[i].mode))
		buf = binary.AppendUvarint(buf, uint64(len(ops[i].code)))
		buf = append(buf, ops[i].code...)
	}
	_, err := w.Write(append(binary.AppendUvarint(nil, uint64(len(buf))), buf...))
	return err
}

// readOps is the inverse of writeOps; it reads no further than the frame.
// All codes share one slab, so the child's heap holds the inputs compactly.
func readOps(r *bufio.Reader) ([]op, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("read ops: %w", err)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("read ops: %w", err)
	}
	errShort := errors.New("read ops: truncated input")
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errShort
	}
	data = data[k:]
	ops := make([]op, n)
	for i := range ops {
		if len(data) < 2 || int(data[0]) >= len(benchArchs) {
			return nil, errShort
		}
		ops[i].arch, ops[i].mode = benchArchs[data[0]], facile.Mode(data[1])
		l, k := binary.Uvarint(data[2:])
		if k <= 0 || uint64(len(data)-2-k) < l {
			return nil, errShort
		}
		data = data[2+k:]
		ops[i].code, data = data[:l:l], data[l:]
	}
	return ops, nil
}

// drawRNG returns the generator for the k-th draw sequence of a workload,
// so request k has the same content on every run with the same seed,
// whichever connection sends it.
func drawRNG(seed int64, k int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + k))
}
