package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the -json goldens in testdata/")

// jsonGoldens are the facile-sweep -json runs whose bytes are pinned in
// testdata/: the example frontier grid over a fixed generated workload, a
// grid with failing points — values the spec decoder and Config.Validate
// reject, and an fma role without ports beside two FMA blocks — and a grid
// whose every point fails, which has no frontier at all.
var jsonGoldens = []struct {
	golden string
	args   []string
}{
	{"skl_frontier.golden.json", []string{"-grid", "../../testdata/sweep/skl_frontier.json", "-gen-seed", "7", "-gen-blocks", "48"}},
	{"failing_grid.golden.json", []string{"-grid", "testdata/failing_grid.json", "-blocks", "testdata/fma_blocks.hex"}},
	{"invalid_grid.golden.json", []string{"-grid", "testdata/invalid_grid.json", "-blocks", "testdata/fma_blocks.hex"}},
}

// TestJSONGoldens: facile-sweep -json prints its golden's bytes at 1, 2 and
// 4 workers. Regenerate with go test ./cmd/facile-sweep -run TestJSONGoldens
// -update, only for a deliberate change of the sweep's output.
func TestJSONGoldens(t *testing.T) {
	for _, tc := range jsonGoldens {
		path := filepath.Join("testdata", tc.golden)
		for _, workers := range []int{1, 2, 4} {
			args := append([]string{"-json", "-workers", strconv.Itoa(workers)}, tc.args...)
			var stdout, stderr bytes.Buffer
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("%s, workers=%d: %v (%s)", tc.golden, workers, err, stderr.String())
			}
			if *update && workers == 1 {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s, workers=%d: output differs from the golden (%d bytes, golden %d)",
					tc.golden, workers, stdout.Len(), len(want))
			}
		}
	}
}
