package accuracy

import (
	"io"
	"strings"
	"testing"
)

func readAll(t *testing.T, input string, opt ReaderOptions) ([]Row, error) {
	t.Helper()
	rd := NewReader(strings.NewReader(input), opt)
	var rows []Row
	for {
		row, err := rd.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
}

func TestReaderHappyPath(t *testing.T) {
	rows, err := readAll(t, "4801d8,1.25\n90,0.25\n", ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Line != 1 || rows[0].Cycles != 1.25 || len(rows[0].Code) != 3 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Line != 2 || rows[1].Cycles != 0.25 || rows[1].Code[0] != 0x90 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}

// TestReaderCRLF: corpora saved with Windows line endings parse identically
// to LF ones — the trailing CR must not leak into the cycles field.
func TestReaderCRLF(t *testing.T) {
	lf, err := readAll(t, "4801d8,1.25\n90,0.25\n", ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crlf, err := readAll(t, "4801d8,1.25\r\n90,0.25\r\n", ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lf) != len(crlf) {
		t.Fatalf("CRLF parsed %d rows, LF parsed %d", len(crlf), len(lf))
	}
	for i := range lf {
		if lf[i].Cycles != crlf[i].Cycles || string(lf[i].Code) != string(crlf[i].Code) {
			t.Errorf("row %d differs between CRLF and LF", i)
		}
	}
}

// TestReaderCommentsAndBlanks: '#' lines and blank lines are skipped but
// still advance the line numbering, so errors point at the true file line.
func TestReaderCommentsAndBlanks(t *testing.T) {
	input := "# corpus header\n\n  \n4801d8,1.25\n\n# trailing comment\n90,0.5\n"
	rows, err := readAll(t, input, ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Line != 4 || rows[1].Line != 7 {
		t.Errorf("line numbers = %d, %d; want 4, 7", rows[0].Line, rows[1].Line)
	}
}

// TestReaderGoldenErrors pins the exact line-numbered message for every
// rejection class.
func TestReaderGoldenErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
		opt   ReaderOptions
		want  string
	}{
		{
			name:  "no comma",
			input: "4801d8 1.25\n",
			want:  "accuracy: line 1: want hex_block,measured_cycles (no comma found)",
		},
		{
			name:  "odd-length hex",
			input: "# header\n4801d,1.25\n",
			want:  "accuracy: line 2: odd-length hex block (5 digits)",
		},
		{
			name:  "bad hex digits",
			input: "48zz,1.25\n",
			want:  "accuracy: line 1: bad hex block: encoding/hex: invalid byte: U+007A 'z'",
		},
		{
			name:  "empty hex",
			input: ",1.25\n",
			want:  "accuracy: line 1: empty hex block",
		},
		{
			name:  "non-numeric cycles",
			input: "90,fast\n",
			want:  `accuracy: line 1: bad measured cycles "fast"`,
		},
		{
			name:  "non-finite cycles",
			input: "90,1\n90,NaN\n",
			want:  `accuracy: line 2: bad measured cycles "NaN"`,
		},
		{
			name:  "negative cycles",
			input: "90,-1\n",
			want:  "accuracy: line 1: negative measured cycles -1",
		},
		{
			name:  "duplicate block",
			input: "4801d8,1.25\n90,1\n4801d8,2.5\n",
			opt:   ReaderOptions{RejectDuplicates: true},
			want:  "accuracy: line 3: duplicate block (first seen at line 1)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readAll(t, tc.input, tc.opt)
			if err == nil {
				t.Fatalf("input %q parsed without error", tc.input)
			}
			if err.Error() != tc.want {
				t.Errorf("error = %q\n  want  %q", err.Error(), tc.want)
			}
		})
	}
}

// TestReaderDuplicatesAllowedByDefault: without RejectDuplicates the same
// block may appear twice (some BHive corpora legitimately repeat blocks
// across source programs).
func TestReaderDuplicatesAllowedByDefault(t *testing.T) {
	rows, err := readAll(t, "90,1\n90,1.5\n", ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

// TestReaderContinuesAfterError: a parse error poisons only its row; the
// reader resumes on the next line so callers can implement skip-and-count.
func TestReaderContinuesAfterError(t *testing.T) {
	rd := NewReader(strings.NewReader("bad line\n90,1\n"), ReaderOptions{})
	if _, err := rd.Next(); err == nil {
		t.Fatal("first row must fail")
	}
	row, err := rd.Next()
	if err != nil {
		t.Fatalf("reader did not recover: %v", err)
	}
	if row.Line != 2 || row.Cycles != 1 {
		t.Errorf("recovered row = %+v", row)
	}
}
