package x86

import (
	"bytes"
	"testing"
)

// FuzzDecodeBlock: the decoder must never panic on arbitrary bytes. When it
// accepts a block, the instruction lengths tile the input exactly, and each
// instruction's bytes decode alone to the same length. The seed corpus in
// testdata/fuzz/FuzzDecodeBlock holds every block of the divergence corpus
// and runs in every go test.
func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{0x48, 0x01, 0xd8, 0x48, 0x0f, 0xaf, 0xc3})
	f.Fuzz(func(t *testing.T, code []byte) {
		insts, err := DecodeBlock(code)
		if err != nil {
			return
		}
		off := 0
		for k := range insts {
			in := &insts[k]
			if in.Len <= 0 || off+in.Len > len(code) {
				t.Fatalf("instruction %d at offset %d has length %d in a %d-byte block", k, off, in.Len, len(code))
			}
			if !bytes.Equal(in.Raw, code[off:off+in.Len]) {
				t.Fatalf("instruction %d: Raw % x is not the block's bytes % x", k, in.Raw, code[off:off+in.Len])
			}
			alone, err := Decode(code[off : off+in.Len])
			if err != nil {
				t.Fatalf("instruction %d (% x) decodes in the block but not alone: %v", k, in.Raw, err)
			}
			if alone.Len != in.Len {
				t.Fatalf("instruction %d (% x): length %d alone, %d in the block", k, in.Raw, alone.Len, in.Len)
			}
			off += in.Len
		}
		if off != len(code) {
			t.Fatalf("instruction lengths sum to %d, block is %d bytes", off, len(code))
		}
	})
}
