package facile_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"facile"
	"facile/internal/bhive"
	"facile/internal/eval"
)

// warmEngine returns an engine with a cache warmed from the deterministic
// corpus, plus the codes it analyzed and their expected report texts.
func warmEngine(t *testing.T, cfg facile.EngineConfig, n int) (*facile.Engine, [][]byte, []string) {
	t.Helper()
	e := newTestEngine(t, cfg)
	corpus := bhive.Generate(eval.DefaultSeed, n)
	var codes [][]byte
	var reports []string
	for _, bm := range corpus {
		rep, err := explainText(e, bm.LoopCode, "SKL", facile.Loop)
		if err != nil {
			continue
		}
		codes = append(codes, bm.LoopCode)
		reports = append(reports, rep)
	}
	if len(codes) == 0 {
		t.Fatal("no valid corpus blocks")
	}
	return e, codes, reports
}

// TestSnapshotRoundTrip: export from a warm engine, import into a fresh one,
// and require byte-identical report text served straight from the imported
// cache (hits, not recomputations).
func TestSnapshotRoundTrip(t *testing.T) {
	src, codes, reports := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}}, 20)

	var buf bytes.Buffer
	n, err := src.ExportSnapshot(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(codes) {
		t.Fatalf("exported %d entries, want %d", n, len(codes))
	}

	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	imported, skipped, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imported != n || skipped != 0 {
		t.Fatalf("imported %d / skipped %d, want %d / 0", imported, skipped, n)
	}
	st := dst.Stats()
	if st.Entries != n {
		t.Fatalf("entries after import = %d, want %d", st.Entries, n)
	}

	// Every query against the imported cache is a hit with identical text.
	before := dst.Stats()
	for i, code := range codes {
		rep, err := explainText(dst, code, "SKL", facile.Loop)
		if err != nil {
			t.Fatal(err)
		}
		if rep != reports[i] {
			t.Fatalf("block %d: imported report differs from exported engine's:\n%s\nvs\n%s",
				i, rep, reports[i])
		}
	}
	after := dst.Stats()
	if after.Misses != before.Misses {
		t.Fatalf("queries after import caused %d misses, want 0", after.Misses-before.Misses)
	}
	if got := after.Hits - before.Hits; got != uint64(len(codes)) {
		t.Fatalf("queries after import caused %d hits, want %d", got, len(codes))
	}
}

// TestSnapshotWarmHitZeroAllocs: an Analyze served from an imported entry
// allocates nothing, exactly like a natively warmed one.
func TestSnapshotWarmHitZeroAllocs(t *testing.T) {
	src, codes, _ := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}}, 5)
	var buf bytes.Buffer
	if _, err := src.ExportSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	if _, _, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	req := facile.Request{Code: codes[0], Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dst.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Analyze on imported entry allocated %.1f times per call, want 0", allocs)
	}
}

// TestSnapshotByteBudget: a bounded export keeps the hottest entries and
// stays within the byte budget.
func TestSnapshotByteBudget(t *testing.T) {
	src, codes, _ := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}}, 20)

	var full bytes.Buffer
	all, err := src.ExportSnapshot(&full, 0)
	if err != nil {
		t.Fatal(err)
	}
	sized := src.Stats().SizeBytes
	if sized <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", sized)
	}

	// Budget for roughly half the cache.
	var half bytes.Buffer
	n, err := src.ExportSnapshot(&half, sized/2)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n >= all {
		t.Fatalf("bounded export wrote %d entries, want strictly between 0 and %d", n, all)
	}

	// The most recently used entry survives a bounded export. Recency is
	// exact within a shard, so a one-shard engine keeps it under a budget
	// of its own size. The sharded default interleaves the per-shard MRU
	// lists, so its budget must cover one round of shard heads: the sizes
	// of the largest entries, one per shard.
	sizes := entrySizes(t, codes)
	hot := len(codes) - 1
	one, _, _ := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheShards: 1}, 20)
	hotSurvives(t, one, codes[hot], sizes[hot])
	slices.SortFunc(sizes, func(a, b int64) int { return cmp.Compare(b, a) })
	var heads int64
	for _, size := range sizes[:min(src.Stats().Shards, len(sizes))] {
		heads += size
	}
	hotSurvives(t, src, codes[hot], heads)
}

// entrySizes returns the accounted cache size of each block's entry.
func entrySizes(t *testing.T, codes [][]byte) []int64 {
	t.Helper()
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheShards: 1})
	sizes := make([]int64, len(codes))
	for i, code := range codes {
		before := e.Stats().SizeBytes
		if _, err := predict(e, code, "SKL", facile.Loop); err != nil {
			t.Fatal(err)
		}
		sizes[i] = e.Stats().SizeBytes - before
	}
	return sizes
}

// hotSurvives touches hot on src, exports src under maxBytes, and requires
// the export to hold hot.
func hotSurvives(t *testing.T, src *facile.Engine, hot []byte, maxBytes int64) {
	t.Helper()
	if _, err := explainText(src, hot, "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	var tight bytes.Buffer
	if _, err := src.ExportSnapshot(&tight, maxBytes); err != nil {
		t.Fatal(err)
	}
	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	if _, _, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(tight.Bytes())); err != nil {
		t.Fatal(err)
	}
	before := dst.Stats()
	if _, err := predict(dst, hot, "SKL", facile.Loop); err != nil {
		t.Fatal(err)
	}
	if st := dst.Stats(); st.Hits != before.Hits+1 {
		t.Fatalf("%d-shard engine: hottest entry missing from an export bounded at %d bytes", src.Stats().Shards, maxBytes)
	}
}

// TestSnapshotEmpty: a cold engine exports a valid snapshot and importing it
// is a no-op.
func TestSnapshotEmpty(t *testing.T) {
	cold := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	var buf bytes.Buffer
	n, err := cold.ExportSnapshot(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("cold engine exported %d entries", n)
	}
	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	imported, skipped, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil || imported != 0 || skipped != 0 {
		t.Fatalf("empty import = (%d, %d, %v), want (0, 0, nil)", imported, skipped, err)
	}
	if st := dst.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("empty import touched the cache: %+v", st)
	}

	// Memoization disabled: still a valid (empty) snapshot.
	uncached := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: -1})
	buf.Reset()
	if n, err := uncached.ExportSnapshot(&buf, 0); err != nil || n != 0 {
		t.Fatalf("uncached export = (%d, %v), want (0, nil)", n, err)
	}
}

// TestSnapshotCorruptRejected: structural damage of every kind is rejected
// with ErrSnapshotCorrupt before any entry is analyzed.
func TestSnapshotCorruptRejected(t *testing.T) {
	src, _, _ := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}}, 8)
	var buf bytes.Buffer
	if _, err := src.ExportSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:5],
		"badMagic":  append([]byte("NOTSNAP"), good[7:]...),
		"truncated": good[:len(good)-8],
		"flipped": func() []byte {
			b := bytes.Clone(good)
			b[len(b)/2] ^= 0xFF
			return b
		}(),
		"trailing": func() []byte {
			// Valid CRC over a body with junk appended before re-checksumming
			// is still structurally wrong; simplest: append junk (breaks CRC).
			return append(bytes.Clone(good), 0xAA, 0xBB)
		}(),
	}
	for name, data := range cases {
		dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
		_, _, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(data))
		if !errors.Is(err, facile.ErrSnapshotCorrupt) {
			t.Errorf("%s: err = %v, want ErrSnapshotCorrupt", name, err)
		}
		if st := dst.Stats(); st.Entries != 0 || st.Misses != 0 {
			t.Errorf("%s: corrupt import touched the cache: %+v", name, st)
		}
	}
}

// TestSnapshotVersionMismatch: a snapshot taken against a different spec for
// the same arch name is rejected with ErrSnapshotVersion.
func TestSnapshotVersionMismatch(t *testing.T) {
	// Register a variant arch in an isolated registry and snapshot it.
	reg := facile.NewArchRegistry()
	if _, err := reg.Derive("SNAPV", "SKL", []byte(`{"issue_width": 2}`)); err != nil {
		t.Fatal(err)
	}
	src := newTestEngine(t, facile.EngineConfig{Registry: reg})
	if _, err := explainText(src, decode(t, "4801d8"), "SNAPV", facile.Loop); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := src.ExportSnapshot(&buf, 0); err != nil || n != 1 {
		t.Fatalf("export = (%d, %v), want (1, nil)", n, err)
	}

	// An engine without SNAPV at all: rejected.
	plain := newTestEngine(t, facile.EngineConfig{Registry: facile.NewArchRegistry()})
	if _, _, err := plain.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes())); !errors.Is(err, facile.ErrSnapshotVersion) {
		t.Fatalf("missing arch: err = %v, want ErrSnapshotVersion", err)
	}

	// An engine whose SNAPV has a different spec: rejected.
	reg2 := facile.NewArchRegistry()
	if _, err := reg2.Derive("SNAPV", "SKL", []byte(`{"issue_width": 6}`)); err != nil {
		t.Fatal(err)
	}
	other := newTestEngine(t, facile.EngineConfig{Registry: reg2})
	if _, _, err := other.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes())); !errors.Is(err, facile.ErrSnapshotVersion) {
		t.Fatalf("changed spec: err = %v, want ErrSnapshotVersion", err)
	}

	// A same-content registry accepts it: content-addressed, not
	// process-version-addressed.
	reg3 := facile.NewArchRegistry()
	if _, err := reg3.Derive("SNAPV", "SKL", []byte(`{"issue_width": 2}`)); err != nil {
		t.Fatal(err)
	}
	same := newTestEngine(t, facile.EngineConfig{Registry: reg3})
	if imported, _, err := same.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes())); err != nil || imported != 1 {
		t.Fatalf("same-spec import = (%d, %v), want (1, nil)", imported, err)
	}

	// An unknown format version is a version error, not corruption.
	data := bytes.Clone(buf.Bytes())
	data[6] = '9' // format version byte
	if _, _, err := same.ImportSnapshot(context.Background(), bytes.NewReader(data)); !errors.Is(err, facile.ErrSnapshotVersion) {
		t.Fatalf("format version: err = %v, want ErrSnapshotVersion", err)
	}
}

// TestSnapshotImportOverWarmCache: importing over a warm cache keeps the
// existing (newer) entries rather than replacing them.
func TestSnapshotImportOverWarmCache(t *testing.T) {
	src, codes, _ := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}}, 10)
	var buf bytes.Buffer
	if _, err := src.ExportSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}

	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	// Warm one entry natively and grab its memoized report pointer.
	ana1, err := dst.Analyze(context.Background(), facile.Request{
		Code: codes[0], Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	imported, skipped, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imported != len(codes) || skipped != 0 {
		t.Fatalf("imported %d / skipped %d, want %d / 0", imported, skipped, len(codes))
	}
	ana2, err := dst.Analyze(context.Background(), facile.Request{
		Code: codes[0], Arch: "SKL", Mode: facile.Loop, Detail: facile.DetailFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ana1 != ana2 {
		t.Fatal("import replaced an existing warm entry")
	}
	// The overlapping entry resolved as a hit: exactly len(codes)+1 misses
	// total (the native warm plus the non-overlapping imports).
	if st := dst.Stats(); st.Misses != uint64(len(codes)) {
		t.Fatalf("misses = %d, want %d (import over warm entry must hit)", st.Misses, len(codes))
	}
}

// TestSnapshotRestrictedArchSkipped: entries for arches the importing engine
// is configured away from are skipped, not errors.
func TestSnapshotRestrictedArchSkipped(t *testing.T) {
	src := newTestEngine(t, facile.EngineConfig{})
	code := decode(t, "4801d8")
	for _, arch := range []string{"SKL", "RKL"} {
		if _, err := explainText(src, code, arch, facile.Loop); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if n, err := src.ExportSnapshot(&buf, 0); err != nil || n != 2 {
		t.Fatalf("export = (%d, %v), want (2, nil)", n, err)
	}

	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	imported, skipped, err := dst.ImportSnapshot(context.Background(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imported != 1 || skipped != 1 {
		t.Fatalf("imported %d / skipped %d, want 1 / 1", imported, skipped)
	}
}

// TestSnapshotCancelledImport: a cancelled context stops the re-analysis and
// is reported alongside the counts.
func TestSnapshotCancelledImport(t *testing.T) {
	src, _, _ := warmEngine(t, facile.EngineConfig{Archs: []string{"SKL"}}, 10)
	var buf bytes.Buffer
	if _, err := src.ExportSnapshot(&buf, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	imported, _, err := dst.ImportSnapshot(ctx, bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if imported != 0 {
		t.Fatalf("cancelled import still imported %d entries", imported)
	}
}

// TestSnapshotHeaderAllocBounded: the entry table is sized by what the body
// can hold, not by the header's entry count — a 17-byte snapshot claiming
// 1<<24 entries is rejected as corrupt without a table-sized allocation.
func TestSnapshotHeaderAllocBounded(t *testing.T) {
	data := withCRC(append(append([]byte("FACSNP1"), 0, 0), binary.LittleEndian.AppendUint32(nil, 1<<24)...))
	if len(data) != 17 {
		t.Fatalf("snapshot is %d bytes, want 17", len(data))
	}
	e := newTestEngine(t, facile.EngineConfig{Archs: []string{"SKL"}})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, _, err := e.ImportSnapshot(context.Background(), bytes.NewReader(data))
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, facile.ErrSnapshotCorrupt) {
		t.Errorf("err = %v, want ErrSnapshotCorrupt", err)
	}
	if delta := ms.TotalAlloc - before; delta >= 16<<20 {
		t.Errorf("import allocated %d MiB for a 17-byte snapshot, want < 16 MiB", delta>>20)
	}
}

// withCRC appends the snapshot trailer: the CRC-32 (IEEE) of body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// snapshotEntryCount parses the entry count out of a structurally valid
// snapshot's header.
func snapshotEntryCount(data []byte) int {
	off := 7
	narch := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	for i := 0; i < narch; i++ {
		off += 1 + int(data[off]) + 8
	}
	return int(binary.LittleEndian.Uint32(data[off:]))
}

// FuzzImportSnapshot feeds the snapshot reader arbitrary bodies, both as
// given and with their last four bytes replaced by a correct CRC-32, so
// mutations reach the table parser instead of stopping at the checksum. The
// reader must not panic, must reject damage with ErrSnapshotCorrupt or
// ErrSnapshotVersion only, and on success must account for every entry as
// imported or skipped. Seeds live in testdata/fuzz/FuzzImportSnapshot: an
// export of a warmed three-entry SKL engine, its truncations, and a 17-byte
// header claiming 1<<24 entries.
func FuzzImportSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, withCRC(data[:len(data)-4]))
		}
		for _, in := range inputs {
			e, err := facile.NewEngine(facile.EngineConfig{Archs: []string{"SKL"}, CacheSize: 64, CacheShards: 1, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			imported, skipped, err := e.ImportSnapshot(context.Background(), bytes.NewReader(in))
			if err != nil {
				if !errors.Is(err, facile.ErrSnapshotCorrupt) && !errors.Is(err, facile.ErrSnapshotVersion) {
					t.Fatalf("unclassified import error: %v", err)
				}
				continue
			}
			if n := snapshotEntryCount(in); imported+skipped != n {
				t.Fatalf("imported %d + skipped %d, snapshot holds %d entries", imported, skipped, n)
			}
		}
	})
}
