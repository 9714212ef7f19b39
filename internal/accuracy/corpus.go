package accuracy

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strconv"
	"strings"
)

// Row is one corpus entry: a basic block and its measured cycles per
// iteration. Line is the 1-based line number in the source file, carried so
// downstream errors (a block the target arch cannot decode, say) can point
// back into the corpus.
type Row struct {
	Line   int
	Code   []byte
	Cycles float64
}

// ReaderOptions configures corpus parsing.
type ReaderOptions struct {
	// RejectDuplicates makes the reader fail on a block whose code bytes
	// were already seen earlier in the stream. Detection costs a 12-byte
	// hash-set entry per block (the only per-row state the reader keeps);
	// disable it for corpora too large to afford that.
	RejectDuplicates bool
}

// Reader streams a BHive-style corpus: one `hex_block,measured_cycles` row
// per line. Blank lines and lines starting with '#' are skipped; CR line
// endings are tolerated (CRLF corpora parse identically to LF ones). Every
// malformed row is rejected with an error naming its line number. The reader
// holds one line in memory at a time — corpus size never affects memory.
type Reader struct {
	sc   *bufio.Scanner
	line int
	opt  ReaderOptions
	seen map[uint64]int // fnv64a(code) -> first line (RejectDuplicates only)
}

// NewReader returns a streaming corpus reader over r.
func NewReader(r io.Reader, opt ReaderOptions) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rd := &Reader{sc: sc, opt: opt}
	if opt.RejectDuplicates {
		rd.seen = make(map[uint64]int)
	}
	return rd
}

// Next returns the next corpus row, io.EOF at end of stream, or a
// line-numbered parse error. After a parse error the reader stays usable:
// subsequent Next calls continue with the following line, so callers choose
// between fail-fast and skip-and-count policies.
func (r *Reader) Next() (Row, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSuffix(r.sc.Text(), "\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		hexField, cyclesField, ok := strings.Cut(trimmed, ",")
		if !ok {
			return Row{}, fmt.Errorf("accuracy: line %d: want hex_block,measured_cycles (no comma found)", r.line)
		}
		hexField = strings.TrimSpace(hexField)
		cyclesField = strings.TrimSpace(cyclesField)
		if len(hexField)%2 != 0 {
			return Row{}, fmt.Errorf("accuracy: line %d: odd-length hex block (%d digits)", r.line, len(hexField))
		}
		code, err := hex.DecodeString(hexField)
		if err != nil {
			return Row{}, fmt.Errorf("accuracy: line %d: bad hex block: %v", r.line, err)
		}
		if len(code) == 0 {
			return Row{}, fmt.Errorf("accuracy: line %d: empty hex block", r.line)
		}
		cycles, err := strconv.ParseFloat(cyclesField, 64)
		if err != nil || math.IsNaN(cycles) || math.IsInf(cycles, 0) {
			// A NaN or infinite measurement has no relative error; it
			// would reach the accumulator's histogram as an invalid index.
			return Row{}, fmt.Errorf("accuracy: line %d: bad measured cycles %q", r.line, cyclesField)
		}
		if cycles < 0 {
			return Row{}, fmt.Errorf("accuracy: line %d: negative measured cycles %v", r.line, cycles)
		}
		if r.seen != nil {
			h := fnv.New64a()
			h.Write(code)
			sum := h.Sum64()
			if first, dup := r.seen[sum]; dup {
				return Row{}, fmt.Errorf("accuracy: line %d: duplicate block (first seen at line %d)", r.line, first)
			}
			r.seen[sum] = r.line
		}
		return Row{Line: r.line, Code: code, Cycles: cycles}, nil
	}
	if err := r.sc.Err(); err != nil {
		return Row{}, err
	}
	return Row{}, io.EOF
}

// Line returns the number of the most recently consumed line.
func (r *Reader) Line() int { return r.line }
