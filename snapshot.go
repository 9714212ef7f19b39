package facile

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Cache snapshots let a serving process carry its warm state across
// restarts: export serializes the prediction cache's keys (microarchitecture,
// mode, block bytes) hottest-first, and import re-analyzes them through the
// normal engine path. Re-analysis — rather than serializing analysis values —
// keeps the format tiny and trivially forward-compatible: the model is
// deterministic, so an imported entry's prediction, speedups, and rendered
// report are byte-identical to the ones the exporting process served, and the
// imported entries are ordinary cache entries (warm hits on them allocate
// nothing).
//
// Snapshot format v1, little-endian:
//
//	magic    "FACSNP1" (7 bytes: 6-byte magic + format version '1')
//	narch    u16
//	narch times:
//	    nameLen u8, name bytes, specDigest u64
//	nentries u32
//	nentries times:
//	    archIdx u16, mode u8, codeLen u32, code bytes
//	crc32    u32 (IEEE, over everything before the trailer)
//
// specDigest is an FNV-1a hash of the arch's canonical JSON spec
// (ArchRegistry.Spec) — a content address. Registry version counters are
// process-local and meaningless across restarts, so compatibility is decided
// by spec content: an import is rejected with ErrSnapshotVersion unless every
// arch named in the snapshot is registered in the importing engine's registry
// with a byte-identical spec.

// snapshotMagic identifies a facile cache snapshot; the trailing byte is the
// format version.
var snapshotMagic = [7]byte{'F', 'A', 'C', 'S', 'N', 'P', '1'}

// Parse bounds: a snapshot that claims more than these is rejected as corrupt
// before any allocation is sized from attacker-controlled lengths.
const (
	snapMaxArches  = 1 << 12
	snapMaxEntries = 1 << 24
	snapMaxCode    = DefaultMaxCodeBytes
)

// ErrSnapshotCorrupt reports a cache snapshot that failed structural
// validation: bad magic, a truncated stream, an out-of-bounds length, or a
// checksum mismatch. Match with errors.Is.
var ErrSnapshotCorrupt = errors.New("facile: cache snapshot is corrupt")

// ErrSnapshotVersion reports a structurally valid cache snapshot that does
// not match this process: an unknown format version, an arch that is not
// registered here, or an arch whose spec differs from the one the snapshot
// was taken against. Match with errors.Is.
var ErrSnapshotVersion = errors.New("facile: cache snapshot does not match this process")

// specDigest computes the content address of one registered arch: FNV-1a over
// its canonical JSON spec.
func (e *Engine) specDigest(name string) (uint64, error) {
	spec, err := e.pub.Spec(name)
	if err != nil {
		return 0, err
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range spec {
		h ^= uint64(b)
		h *= prime64
	}
	return h, nil
}

// snapshotEntry is one exported cache key.
type snapshotEntry struct {
	archIdx int
	mode    Mode
	code    string
}

// ExportSnapshot writes a snapshot of the engine's prediction-cache keys to
// w, hottest-first (most recently used entries first, interleaved across
// shards), and returns the number of entries written. maxBytes bounds the
// export by the entries' accounted sizes (the same per-entry estimates that
// back EngineConfig.MaxCacheBytes), so a bounded snapshot keeps the hottest
// working set; maxBytes <= 0 exports everything.
//
// The order is exact only within a shard. The export takes the per-shard
// MRU lists round-robin, one entry from each in turn, so with several
// shards it is approximately global MRU: under a tight budget the heads of
// earlier shards can take the place of the globally hottest entry. A
// budget covering one round of shard heads always keeps the hottest entry;
// so does any budget covering its own size on a single-shard engine
// (EngineConfig.CacheShards = 1). Error entries and entries
// still being computed are not exported. An engine with memoization disabled
// exports a valid empty snapshot.
func (e *Engine) ExportSnapshot(w io.Writer, maxBytes int64) (int, error) {
	var (
		entries   []snapshotEntry
		archIdx   = make(map[string]int)
		archNames []string
		total     int64
	)
	if e.cache != nil {
		lists := e.cache.MRUShards()
		// Round-robin across the per-shard MRU lists: recency is exact within
		// a shard, so the interleaving is an approximate global MRU order.
		for pos := 0; ; pos++ {
			exhausted := true
			for _, l := range lists {
				if pos >= len(l) {
					continue
				}
				exhausted = false
				me := l[pos]
				// Size 0 means the entry's analysis has not completed yet;
				// for completed entries the shard lock ordering makes the
				// entry fields safe to read here.
				if me.Size == 0 || me.Val.err != nil {
					continue
				}
				if maxBytes > 0 && total+int64(me.Size) > maxBytes {
					continue
				}
				idx, ok := archIdx[me.Key.arch]
				if !ok {
					idx = len(archNames)
					if idx >= snapMaxArches {
						continue
					}
					archIdx[me.Key.arch] = idx
					archNames = append(archNames, me.Key.arch)
				}
				total += int64(me.Size)
				entries = append(entries, snapshotEntry{archIdx: idx, mode: me.Key.mode, code: me.Key.code})
				if len(entries) == snapMaxEntries {
					exhausted = true
					break
				}
			}
			if exhausted {
				break
			}
		}
	}

	var buf bytes.Buffer
	buf.Write(snapshotMagic[:])
	le := binary.LittleEndian
	var scratch [8]byte
	putU16 := func(v int) { le.PutUint16(scratch[:2], uint16(v)); buf.Write(scratch[:2]) }
	putU32 := func(v int) { le.PutUint32(scratch[:4], uint32(v)); buf.Write(scratch[:4]) }

	putU16(len(archNames))
	for _, name := range archNames {
		if len(name) > 255 {
			return 0, fmt.Errorf("facile: arch name %q too long for snapshot", name)
		}
		digest, err := e.specDigest(name)
		if err != nil {
			// Names are immutable once registered, so a cached key's arch is
			// always resolvable; this guards registry misuse, not a race.
			return 0, err
		}
		buf.WriteByte(byte(len(name)))
		buf.WriteString(name)
		le.PutUint64(scratch[:8], digest)
		buf.Write(scratch[:8])
	}
	putU32(len(entries))
	for _, ent := range entries {
		putU16(ent.archIdx)
		buf.WriteByte(byte(ent.mode))
		putU32(len(ent.code))
		buf.WriteString(ent.code)
	}
	le.PutUint32(scratch[:4], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(scratch[:4])

	if _, err := w.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// snapReader parses a snapshot body with bounds-checked reads; any overrun
// marks it truncated.
type snapReader struct {
	buf []byte
	off int
	bad bool
}

func (r *snapReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.buf)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() int {
	b := r.take(1)
	if r.bad {
		return 0
	}
	return int(b[0])
}

func (r *snapReader) u16() int {
	b := r.take(2)
	if r.bad {
		return 0
	}
	return int(binary.LittleEndian.Uint16(b))
}

func (r *snapReader) u32() int {
	b := r.take(4)
	if r.bad {
		return 0
	}
	v := binary.LittleEndian.Uint32(b)
	if uint64(v) > uint64(int(^uint(0)>>1)) {
		r.bad = true
		return 0
	}
	return int(v)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if r.bad {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// corruptf wraps a structural complaint in ErrSnapshotCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// ImportSnapshot reads a snapshot from r and warms the engine's cache by
// re-analyzing every entry through the normal Analyze path (at full detail,
// report text included, so a restarted server answers every detail level
// without first-hit latency). It returns the number of entries imported and
// the number skipped.
//
// Structural damage — bad magic, truncation, out-of-bounds lengths, checksum
// mismatch — is rejected with an error matching ErrSnapshotCorrupt, before
// any entry is analyzed. A snapshot naming an arch this process does not
// have, or whose spec content differs from the snapshot's record of it, is
// rejected with an error matching ErrSnapshotVersion — a restarted server
// with changed specs starts cold rather than half-warm against the wrong
// model. Entries for arches the engine is configured away from
// (EngineConfig.Archs) and entries that fail re-analysis are skipped, not
// errors. Entries already cached are kept as-is: importing over a warm cache
// never replaces newer state.
//
// ctx cancels the re-analysis; entries not yet analyzed when ctx is done are
// counted as skipped and ctx's error is returned alongside the counts.
func (e *Engine) ImportSnapshot(ctx context.Context, r io.Reader) (imported, skipped int, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < len(snapshotMagic)+4 {
		return 0, 0, corruptf("%d bytes is shorter than the minimal snapshot", len(data))
	}
	if !bytes.Equal(data[:6], snapshotMagic[:6]) {
		return 0, 0, corruptf("bad magic")
	}
	if data[6] != snapshotMagic[6] {
		return 0, 0, fmt.Errorf("%w: unknown snapshot format version %q", ErrSnapshotVersion, data[6])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return 0, 0, corruptf("checksum mismatch (have %08x, want %08x)", got, want)
	}

	sr := &snapReader{buf: body, off: len(snapshotMagic)}
	narch := sr.u16()
	if narch > snapMaxArches {
		return 0, 0, corruptf("%d arches exceeds the bound", narch)
	}
	type snapArch struct {
		name   string
		served bool
	}
	arches := make([]snapArch, 0, narch)
	for i := 0; i < narch; i++ {
		name := string(sr.take(sr.u8()))
		digest := sr.u64()
		if sr.bad {
			return 0, 0, corruptf("truncated arch table")
		}
		have, err := e.specDigest(name)
		if err != nil {
			return 0, 0, fmt.Errorf("%w: microarchitecture %q is not registered here", ErrSnapshotVersion, name)
		}
		if have != digest {
			return 0, 0, fmt.Errorf("%w: microarchitecture %q has a different spec than the snapshot was taken against", ErrSnapshotVersion, name)
		}
		arches = append(arches, snapArch{name: name, served: e.HasArch(name)})
	}
	nentries := sr.u32()
	if sr.bad {
		return 0, 0, corruptf("truncated header")
	}
	if nentries > snapMaxEntries {
		return 0, 0, corruptf("%d entries exceeds the bound", nentries)
	}
	// The count is attacker-controlled: size the table by what the body can
	// actually hold, at the smallest entry (u16 arch, u8 mode, u32 length).
	const minEntryBytes = 2 + 1 + 4
	reqs := make([]Request, 0, min(nentries, (len(body)-sr.off)/minEntryBytes))
	for i := 0; i < nentries; i++ {
		archIdx := sr.u16()
		mode := Mode(sr.u8())
		codeLen := sr.u32()
		if codeLen > snapMaxCode {
			return 0, 0, corruptf("entry %d claims %d code bytes", i, codeLen)
		}
		code := sr.take(codeLen)
		if sr.bad {
			return 0, 0, corruptf("truncated entry table")
		}
		if archIdx >= len(arches) {
			return 0, 0, corruptf("entry %d references arch %d of %d", i, archIdx, len(arches))
		}
		if !arches[archIdx].served {
			skipped++
			continue
		}
		// Copy the code out of the file buffer so cached entries do not pin
		// the whole snapshot in memory.
		reqs = append(reqs, Request{
			Code:   bytes.Clone(code),
			Arch:   arches[archIdx].name,
			Mode:   mode,
			Detail: DetailFull,
		})
	}
	if sr.off != len(body) {
		return 0, 0, corruptf("%d trailing bytes after the entry table", len(body)-sr.off)
	}

	for _, res := range e.AnalyzeBatchN(ctx, reqs, 0) {
		if res.Err != nil {
			skipped++
			continue
		}
		imported++
	}
	if err := ctx.Err(); err != nil {
		return imported, skipped, err
	}
	return imported, skipped, nil
}
