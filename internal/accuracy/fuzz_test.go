package accuracy

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCorpusReader feeds arbitrary bytes to the corpus reader, with and
// without duplicate rejection, and reads to the end of the stream. The
// reader must not panic or hang: every Next call consumes a line or ends the
// stream. Line must never decrease, and every accepted row must carry its
// line number, a non-empty block and finite, non-negative measured cycles.
// Seeds are the committed corpora in testdata/accuracy, plus the malformed
// rows in testdata/fuzz/FuzzCorpusReader.
func FuzzCorpusReader(f *testing.F) {
	corpora, err := filepath.Glob("../../testdata/accuracy/*.csv")
	if err != nil || len(corpora) == 0 {
		f.Fatalf("no seed corpora (%v)", err)
	}
	for _, path := range corpora {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// The header and the first rows: a whole corpus is a seed the
		// fuzzer spends minutes minimizing.
		if len(data) > 512 {
			data = data[:bytes.LastIndexByte(data[:512], '\n')+1]
		}
		f.Add(data, false)
		f.Add(data, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, dedup bool) {
		rd := NewReader(bytes.NewReader(data), ReaderOptions{RejectDuplicates: dedup})
		prev := 0
		for calls := 0; ; calls++ {
			if calls > len(data)+1 {
				t.Fatalf("no end of stream after %d Next calls on %d bytes", calls, len(data))
			}
			row, err := rd.Next()
			line := rd.Line()
			if line < prev {
				t.Fatalf("Line went back from %d to %d", prev, line)
			}
			if err == io.EOF {
				return
			}
			if err == nil {
				if row.Line != line || len(row.Code) == 0 || !(row.Cycles >= 0) || math.IsInf(row.Cycles, 0) {
					t.Fatalf("accepted row %+v at line %d", row, line)
				}
			} else if line == prev {
				// A read error consumes nothing and ends the stream.
				return
			}
			prev = line
		}
	})
}
