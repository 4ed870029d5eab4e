package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// WAL on-disk layout (format v2), little-endian.
//
// A segment opens with an 8-byte magic ("EFDWAL2\0") followed by records.
// Tombstones carry the window watermark their retire pass reached, so replay
// restores expiry progress exactly; epoch fences carry the failover term
// that began at their version:
//
//	uint32 payloadLen
//	uint32 crc32c(payload)
//	payload:
//	  uint64 version   graph version the record committed as
//	  uint32 kind      1 = edge batch, 2 = tombstone, 3 = epoch fence
//	  uint32 count     edges in the record, pre-dedup (0 for kind 3)
//	  [kind 2 only] uint64 watermark version, int64 watermark wall (unix ns)
//	  [kind 3 only] uint64 epoch
//	  count × (uint32 u, uint32 v)
//
// Segments are named seg-<16-hex-digit index>.wal; the index only orders
// them. A segment is sealed by rotation (synced, then never written again),
// so only the final segment can legitimately end mid-record after a crash —
// or mid-magic, when the crash hit a freshly rotated segment. A non-empty
// segment without the magic is refused by name: headerless v1 segments are
// no longer read.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var walMagic = [8]byte{'E', 'F', 'D', 'W', 'A', 'L', '2', 0}

const walFrameBytes = 8 // length + checksum prefix

// Record kinds.
const (
	recEdges      = uint32(1)
	recTombstone  = uint32(2)
	recEpochFence = uint32(3)
)

// walRecord is one decoded log record.
type walRecord struct {
	version uint64
	kind    uint32
	mark    stream.WindowMark // tombstones only
	epoch   uint64            // epoch fences only
	edges   []bipartite.Edge
}

// payloadPrefix is the fixed payload length of a record of the given kind,
// ahead of its edges: version, kind and count, plus the watermark of a
// tombstone or the epoch of a fence.
func payloadPrefix(kind uint32) int {
	switch kind {
	case recTombstone:
		return 32
	case recEpochFence:
		return 24
	}
	return 16
}

// frameSize is the record's framed on-disk size.
func (r walRecord) frameSize() int64 {
	return int64(walFrameBytes + payloadPrefix(r.kind) + 8*len(r.edges))
}

// segMeta describes one on-disk segment.
type segMeta struct {
	index   uint64
	path    string
	bytes   int64
	minVer  uint64 // lowest record version in the segment (0 = none)
	maxVer  uint64 // highest record version in the segment (0 = none)
	records int
}

func (m *segMeta) note(version uint64) {
	if m.records == 0 || version < m.minVer {
		m.minVer = version
	}
	if version > m.maxVer {
		m.maxVer = version
	}
	m.records++
}

// wal is the segmented log writer. All mutating methods serialize on mu;
// concurrent stream appends therefore commit to the log one at a time, which
// is also what gives each record a well-defined position for truncation.
type wal struct {
	dir      string
	segBytes int64
	fsync    bool
	logf     func(string, ...any)

	mu     sync.Mutex
	sealed []segMeta
	active segMeta
	f      *os.File
	buf    []byte // record encode scratch

	// floor is the truncation watermark: records at or below it may have
	// been deleted or compacted away, so a replication tail may only start
	// at or above it (TailSince returns ErrTailGone below). It rises when a
	// snapshot truncates the log, and recovery seeds it with the recovered
	// snapshot's version — the log is never guaranteed to reach further
	// back than that.
	floor uint64

	// tainted is set when a record write or fsync fails: the active
	// segment's on-disk tail is then unknowable (a partial frame, or pages
	// the kernel dropped after a failed fsync), so no further record may
	// land after it — a later good record behind garbage would be
	// unreachable to the boot scan and silently lost. The taint clears only
	// by rotating to a fresh segment (the tainted one is sealed and, once a
	// snapshot covers it, deleted).
	tainted bool

	appendedRecords  uint64
	appendedBytes    uint64
	tombstoneRecords uint64
	fsyncs           uint64
	compactions      uint64
	compactedBytes   uint64 // bytes reclaimed by segment compaction
}

func segPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016x.wal", index))
}

// openWAL scans dir, truncating a torn tail in the final segment, and
// returns the writer positioned to append plus every surviving record (the
// store replays the ones past the snapshot watermark). torn reports whether
// a tail truncation happened. Leftover compaction temporaries are removed.
func openWAL(dir string, segBytes int64, fsync bool, logf func(string, ...any)) (w *wal, records []walRecord, torn bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, false, fmt.Errorf("persist: creating WAL dir: %w", err)
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "seg-*.wal.tmp")); err == nil {
		for _, tmp := range tmps {
			//ensemfdet:durability-ok compaction temporaries a crash left behind; the original segment is intact
			os.Remove(tmp)
		}
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, nil, false, err
	}
	sort.Strings(names) // fixed-width hex index → lexicographic = numeric

	w = &wal{dir: dir, segBytes: segBytes, fsync: fsync, logf: logf}
	for i, name := range names {
		last := i == len(names)-1
		recs, meta, tornHere, err := scanSegment(name, last, logf)
		if err != nil {
			return nil, nil, false, err
		}
		torn = torn || tornHere
		records = append(records, recs...)
		if last {
			w.active = meta
		} else {
			w.sealed = append(w.sealed, meta)
		}
	}
	if len(names) == 0 {
		w.active = segMeta{index: 1, path: segPath(dir, 1)}
	}
	// Resume appending into the (possibly just-truncated) final segment.
	w.f, err = os.OpenFile(w.active.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, false, fmt.Errorf("persist: opening WAL segment: %w", err)
	}
	return w, records, torn, nil
}

// scanSegment decodes one segment. A record that is truncated, fails its
// checksum, or does not decode marks the segment torn from that offset: in
// the final segment the file is truncated there (crash mid-write — the batch
// was never acknowledged); in a sealed segment it is a hard error, since
// dropping it would lose acknowledged batches. A final segment torn inside
// its magic is truncated to empty the same way; any other non-empty segment
// without the magic is refused.
func scanSegment(path string, last bool, logf func(string, ...any)) ([]walRecord, segMeta, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, segMeta{}, false, fmt.Errorf("persist: reading WAL segment: %w", err)
	}
	name := filepath.Base(path)
	meta := segMeta{path: path}
	meta.index, err = parseIndexedName(name, "seg-", ".wal")
	if err != nil {
		return nil, segMeta{}, false, fmt.Errorf("persist: unparseable WAL segment name %q", name)
	}

	var records []walRecord
	off := 0 // a torn header leaves it at 0: the whole file is torn
	switch {
	case len(data) == 0:
	case len(data) >= len(walMagic) && [8]byte(data[:8]) == walMagic:
		records, off = decodeRecords(data)
	case !last || !tornHeader(data):
		return nil, segMeta{}, false, fmt.Errorf(
			"persist: WAL segment %s has no EFDWAL2 header: headerless v1 segments are no longer read", name)
	}
	for _, r := range records {
		meta.note(r.version)
	}
	meta.bytes = int64(off)
	if off == len(data) {
		return records, meta, false, nil
	}
	if !last {
		return nil, segMeta{}, false, fmt.Errorf(
			"persist: WAL segment %s corrupt at offset %d: not the final segment, refusing to drop acknowledged records", path, off)
	}
	logf("persist: truncating torn WAL tail: %s at offset %d (%d bytes dropped; the interrupted batch was never acknowledged)",
		name, off, len(data)-off)
	//ensemfdet:durability-ok cuts only the torn tail past the last acknowledged record
	if err := os.Truncate(path, int64(off)); err != nil {
		return nil, segMeta{}, false, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
	}
	return records, meta, true, nil
}

// tornHeader reports whether a segment's bytes are what a crash while
// writing its magic can leave behind: a strict prefix of the magic, or
// zeros the filesystem exposed before the data landed.
func tornHeader(data []byte) bool {
	if len(data) < len(walMagic) && bytes.Equal(data, walMagic[:len(data)]) {
		return true
	}
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// decodeRecords decodes the records behind a segment's magic, stopping at
// the first frame that does not decode; end is the offset it stopped at.
func decodeRecords(seg []byte) (recs []walRecord, end int) {
	end = len(walMagic)
	for end < len(seg) {
		rec, n, ok := decodeRecord(seg[end:])
		if !ok {
			break
		}
		recs = append(recs, rec)
		end += n
	}
	return recs, end
}

// decodeRecord parses one framed record from the head of data, reporting
// its framed size. ok is false for a torn, checksum-failing, or malformed
// record.
func decodeRecord(data []byte) (walRecord, int, bool) {
	if len(data) < walFrameBytes {
		return walRecord{}, 0, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	sum := binary.LittleEndian.Uint32(data[4:])
	if n < 16 || walFrameBytes+n > len(data) {
		return walRecord{}, 0, false
	}
	payload := data[walFrameBytes : walFrameBytes+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return walRecord{}, 0, false
	}
	rec := walRecord{
		version: binary.LittleEndian.Uint64(payload),
		kind:    binary.LittleEndian.Uint32(payload[8:]),
	}
	count := int(binary.LittleEndian.Uint32(payload[12:]))
	if rec.kind != recEdges && rec.kind != recTombstone && rec.kind != recEpochFence {
		return walRecord{}, 0, false
	}
	prefix := payloadPrefix(rec.kind)
	// A fence never carries edges; a non-zero count is malformed.
	if n < prefix || (rec.kind == recEpochFence && count != 0) {
		return walRecord{}, 0, false
	}
	switch rec.kind {
	case recTombstone:
		rec.mark.Version = binary.LittleEndian.Uint64(payload[16:])
		rec.mark.Wall = int64(binary.LittleEndian.Uint64(payload[24:]))
	case recEpochFence:
		rec.epoch = binary.LittleEndian.Uint64(payload[16:])
	}
	if prefix+8*count != n || rec.version == 0 {
		return walRecord{}, 0, false
	}
	rec.edges = decodeEdges(payload[prefix:], count)
	return rec, walFrameBytes + n, true
}

func decodeEdges(data []byte, count int) []bipartite.Edge {
	edges := make([]bipartite.Edge, count)
	for i := range edges {
		edges[i] = bipartite.Edge{
			U: binary.LittleEndian.Uint32(data[8*i:]),
			V: binary.LittleEndian.Uint32(data[8*i+4:]),
		}
	}
	return edges
}

// encodeRecord frames one record into buf (grown as needed), returning the
// framed bytes. Tombstones carry the watermark, and epoch fences the epoch,
// after the version/kind prefix.
func encodeRecord(buf *[]byte, r walRecord) []byte {
	prefix := payloadPrefix(r.kind)
	total := int(r.frameSize())
	if cap(*buf) < total {
		*buf = make([]byte, total)
	}
	b := (*buf)[:total]
	binary.LittleEndian.PutUint32(b, uint32(total-walFrameBytes))
	payload := b[walFrameBytes:]
	binary.LittleEndian.PutUint64(payload, r.version)
	binary.LittleEndian.PutUint32(payload[8:], r.kind)
	binary.LittleEndian.PutUint32(payload[12:], uint32(len(r.edges)))
	switch r.kind {
	case recTombstone:
		binary.LittleEndian.PutUint64(payload[16:], r.mark.Version)
		binary.LittleEndian.PutUint64(payload[24:], uint64(r.mark.Wall))
	case recEpochFence:
		binary.LittleEndian.PutUint64(payload[16:], r.epoch)
	}
	for i, e := range r.edges {
		binary.LittleEndian.PutUint32(payload[prefix+8*i:], e.U)
		binary.LittleEndian.PutUint32(payload[prefix+8*i+4:], e.V)
	}
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, castagnoli))
	return b
}

// append encodes and writes one record, rotating the segment first when it
// is full, and syncs according to policy. A fresh segment gets its format
// header before the first record. The returned size is the framed record's
// on-disk footprint (header bytes excluded).
func (w *wal) append(rec walRecord) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("persist: WAL is closed")
	}
	if w.tainted {
		return 0, fmt.Errorf("persist: WAL segment tainted by an earlier write failure")
	}
	buf := encodeRecord(&w.buf, rec)
	w.buf = buf
	if w.active.bytes > 0 && w.active.bytes+int64(len(buf)) > w.segBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if w.active.bytes == 0 {
		if _, err := w.f.Write(walMagic[:]); err != nil {
			w.tainted = true
			return 0, fmt.Errorf("persist: WAL header write: %w", err)
		}
		w.active.bytes = int64(len(walMagic))
	}

	if _, err := w.f.Write(buf); err != nil {
		w.tainted = true // a partial frame may be on disk
		return 0, fmt.Errorf("persist: WAL write: %w", err)
	}
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.tainted = true // the kernel may have dropped the dirty pages
			return 0, fmt.Errorf("persist: WAL fsync: %w", err)
		}
		w.fsyncs++
	}
	w.active.bytes += int64(len(buf))
	w.active.note(rec.version)
	w.appendedRecords++
	w.appendedBytes += uint64(len(buf))
	if rec.kind == recTombstone {
		w.tombstoneRecords++
	}
	return int64(len(buf)), nil
}

// rotateLocked seals the active segment (sync + close) and opens the next.
// The new segment is created first, so a failure anywhere leaves the old
// segment active and writable. Rotating is also how a tainted segment is
// retired: its sync failure is then tolerated, because every record that
// matters in it is (or will be, before the taint-clearing snapshot) covered
// elsewhere, and the segment is deleted at the next truncation.
//
//ensemfdet:durability-ok taint truncation cuts only unacknowledged bytes, and the removals undo a next-segment create that never took effect
func (w *wal) rotateLocked() error {
	next := segMeta{index: w.active.index + 1}
	next.path = segPath(w.dir, next.index)
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: opening WAL segment: %w", err)
	}
	if w.tainted {
		// Cut the unknowable tail (a partial frame, or a record whose fsync
		// failed) back to the last acknowledged record before sealing: a
		// sealed segment must always scan cleanly, or a crash before it is
		// deleted would refuse the next boot over garbage that no
		// acknowledged batch ever occupied.
		if err := os.Truncate(w.active.path, w.active.bytes); err != nil {
			f.Close()
			os.Remove(next.path)
			return fmt.Errorf("persist: truncating tainted WAL segment: %w", err)
		}
	}
	if err := w.f.Sync(); err != nil && !w.tainted {
		f.Close()
		os.Remove(next.path)
		return fmt.Errorf("persist: sealing WAL segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.logf("persist: closing sealed WAL segment %s: %v", filepath.Base(w.active.path), err)
	}
	w.sealed = append(w.sealed, w.active)
	w.f, w.active = f, next
	w.tainted = false
	return nil
}

// truncateTo seals the active segment (if it holds records) and trims the
// log to the snapshot at the given version: sealed segments whose records
// are all at or below it are deleted outright, and surviving sealed
// segments that straddle the watermark are compacted — rewritten in place
// (tmp + rename) dropping the covered records, so a segment pinned by one
// fresh record no longer drags megabytes of snapshotted history behind it.
func (w *wal) truncateTo(version uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("persist: WAL is closed")
	}
	// Raise the tail floor before touching any file: a replication tail
	// that would need records this call is about to delete must see the
	// floor first (both run under mu, so at worst it gets ErrTailGone a
	// moment early — never a silent version hole).
	if version > w.floor {
		w.floor = version
	}
	if w.active.records > 0 || w.tainted {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	// Build the survivor list fresh — compacting w.sealed in place would
	// alias the backing array, and bailing out mid-loop on a remove error
	// would leave duplicated/stale metadata behind. A segment whose removal
	// fails stays listed so the next truncation retries it; one already
	// gone from disk counts as removed. Compaction failures likewise keep
	// the original segment, whole and listed.
	kept := make([]segMeta, 0, len(w.sealed))
	var firstErr error
	for _, seg := range w.sealed {
		if seg.maxVer <= version {
			//ensemfdet:durability-ok every record in this segment is covered by the fsynced snapshot at or above version
			if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				if firstErr == nil {
					firstErr = fmt.Errorf("persist: removing covered WAL segment: %w", err)
				}
				kept = append(kept, seg)
			}
			continue
		}
		if seg.records > 0 && seg.minVer <= version {
			if err := w.compactSegmentLocked(&seg, version); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("persist: compacting WAL segment: %w", err)
				}
			}
		}
		kept = append(kept, seg)
	}
	w.sealed = kept
	if firstErr != nil {
		return firstErr
	}
	return syncDir(w.dir)
}

// compactSegmentLocked rewrites one sealed segment keeping only records
// above version, updating *seg to describe the rewritten file. The rewrite
// is crash-safe: the survivors are written to a .tmp sibling, synced, and
// renamed over the original — a crash leaves either the whole old segment or
// the compacted one, both of which scan cleanly and replay identically
// (covered records are skipped by replay anyway).
func (w *wal) compactSegmentLocked(seg *segMeta, version uint64) error {
	recs, _, _, err := scanSegment(seg.path, false, w.logf)
	if err != nil {
		return err
	}
	tmp := seg.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds

	next := segMeta{index: seg.index, path: seg.path}
	_, err = f.Write(walMagic[:])
	next.bytes = int64(len(walMagic))
	if err == nil {
		for _, r := range recs {
			if r.version <= version {
				continue
			}
			buf := encodeRecord(&w.buf, r)
			w.buf = buf
			if _, err = f.Write(buf); err != nil {
				break
			}
			next.bytes += int64(len(buf))
			next.note(r.version)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	//ensemfdet:durability-ok the caller (truncateTo) dir-fsyncs once after the whole compaction batch
	if err := os.Rename(tmp, seg.path); err != nil {
		return err
	}
	w.compactions++
	if seg.bytes > next.bytes {
		w.compactedBytes += uint64(seg.bytes - next.bytes)
	}
	*seg = next
	return nil
}

// reset discards the entire log — every sealed segment and the active one —
// and starts a fresh empty segment at the next index, clearing taint and the
// floor. It is the epoch-boundary rewind primitive: after a follower's graph
// has been forced onto a new primary's history, records of the abandoned
// timeline must not survive to replay on the next boot.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("persist: WAL is closed")
	}
	next := segMeta{index: w.active.index + 1}
	next.path = segPath(w.dir, next.index)
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: opening WAL segment: %w", err)
	}
	w.f.Close() // the old active segment is about to be deleted; errors moot
	old := append(append([]segMeta(nil), w.sealed...), w.active)
	w.f, w.active = f, next
	w.sealed = nil
	w.tainted = false
	w.floor = 0
	var firstErr error
	for _, seg := range old {
		//ensemfdet:durability-ok epoch rewind: the abandoned timeline must not survive to replay
		if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) && firstErr == nil {
			firstErr = fmt.Errorf("persist: removing WAL segment: %w", err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return syncDir(w.dir)
}

// setFloor raises the tail floor to at least v (recovery seeds it with the
// recovered snapshot's version; see the field comment).
func (w *wal) setFloor(v uint64) {
	w.mu.Lock()
	if v > w.floor {
		w.floor = v
	}
	w.mu.Unlock()
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// diskStats reports segment count and total on-disk bytes.
func (w *wal) diskStats() (segments int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seg := range w.sealed {
		bytes += seg.bytes
	}
	return len(w.sealed) + 1, bytes + w.active.bytes
}

func (w *wal) counters() (records, appended, tombstones, fsyncs, compactions, compacted uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendedRecords, w.appendedBytes, w.tombstoneRecords, w.fsyncs, w.compactions, w.compactedBytes
}

// parseIndexedName extracts the 16-hex-digit index from names shaped like
// <prefix><index><suffix>.
func parseIndexedName(name, prefix, suffix string) (uint64, error) {
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 || hex == name {
		return 0, fmt.Errorf("persist: name %q does not match %s<16 hex>%s", name, prefix, suffix)
	}
	return strconv.ParseUint(hex, 16, 64)
}

// syncDir fsyncs a directory so renames and removals within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
