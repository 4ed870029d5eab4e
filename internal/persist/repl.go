package persist

// WAL-shipping surface: the exported, read-only view of the durability state
// that the replication subsystem (internal/replicate) serves over HTTP. A
// follower bootstraps by downloading the newest snapshot plus the listed
// segments verbatim into its own data directory (after which normal recovery
// reproduces the primary's graph version-exactly), then tails records past
// its version with TailSince. Everything here reads the same on-disk state
// the store itself maintains; nothing is duplicated for replication.
//
// Consistency contract: a record enters the tail only after its WAL write
// completed, so the tail carries exactly the durable history. Versions that
// never reached the WAL (a degraded primary committing in memory while
// appends are rejected) are absent from the tail by construction; they become
// visible to followers only through the healing snapshot, which moves the
// truncation floor and pushes tailing followers through a snapshot resync.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// ErrTailGone reports that a tail request starts below the WAL truncation
// floor: records at or below it have been folded into a snapshot and deleted
// from the log, so the only way forward for the caller is a snapshot resync.
var ErrTailGone = errors.New("persist: requested tail start precedes the WAL truncation floor")

// Exported record kinds, numerically identical to the on-disk kinds.
const (
	// RecordEdges is an ingested edge batch.
	RecordEdges = recEdges
	// RecordTombstone is a retirement/removal; it carries the window
	// watermark its pass reached.
	RecordTombstone = recTombstone
	// RecordEpochFence marks the start of a failover term: it carries the
	// epoch that began at its version and no edges. Tailing followers adopt
	// the epoch durably when they apply it.
	RecordEpochFence = recEpochFence
)

// Record is one replicated WAL record: the unit TailSince ships and a
// follower applies (and re-journals) at its explicit version.
type Record struct {
	Version uint64
	Kind    uint32
	Mark    stream.WindowMark // RecordTombstone only
	Epoch   uint64            // RecordEpochFence only
	Edges   []bipartite.Edge
}

// DecodeRecordFrame parses one v2-framed record from the head of data,
// returning it with its framed size. ok is false for a truncated, checksum
// -failing, or malformed frame.
func DecodeRecordFrame(data []byte) (Record, int, bool) {
	rec, n, ok := decodeRecord(data)
	if !ok {
		return Record{}, 0, false
	}
	return Record{Version: rec.version, Kind: rec.kind, Mark: rec.mark, Epoch: rec.epoch, Edges: rec.edges}, n, true
}

// AppendRecord journals one record at its explicit version — the follower's
// write path. Unlike the stream.Journal tee (which trusts the graph's own
// version counter), replication must pin each record to the version it
// carried on the primary, holes included, or a follower restart would
// renumber history. The fail-stop gap contract of AppendEdges applies
// unchanged: a WAL failure degrades the store until a covering snapshot
// (cut from the follower's graph source) heals it. Epoch ownership is not
// checked here — replicas journal the owner's records precisely because
// they are not the owner.
func (s *Store) AppendRecord(r Record) error {
	if r.Kind != RecordEdges && r.Kind != RecordTombstone && r.Kind != RecordEpochFence {
		return fmt.Errorf("persist: unknown record kind %d", r.Kind)
	}
	if r.Version == 0 {
		return errors.New("persist: record version must be non-zero")
	}
	return s.journalRecord(walRecord{kind: r.Kind, version: r.Version, edges: r.Edges, mark: r.Mark, epoch: r.Epoch})
}

// SegmentInfo describes one shippable WAL segment: a v2 file, magic
// included, of Bytes acknowledged bytes holding Records records between
// MinVersion and MaxVersion. Followers download it verbatim.
type SegmentInfo struct {
	Name       string `json:"name"`
	Bytes      int64  `json:"bytes"`
	MinVersion uint64 `json:"min_version"`
	MaxVersion uint64 `json:"max_version"`
	Records    int    `json:"records"`
}

// SnapshotInfo names the snapshot a bootstrap should download.
type SnapshotInfo struct {
	Name    string `json:"name"`
	Bytes   int64  `json:"bytes"`
	Version uint64 `json:"version"`
}

// Manifest is the shippable-state listing a follower bootstraps from:
// the newest durable snapshot (nil on a store that has never snapshotted)
// plus every WAL segment, sealed ones first, in index order. Segment bytes
// count only acknowledged records — a torn or tainted active tail is never
// shipped.
type Manifest struct {
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
	Segments []SegmentInfo `json:"segments"`
	// Epoch is the failover term the primary is serving under, and
	// EpochVersion the first graph version of that term (0 when unknown —
	// epoch 0, or a term adopted from a header alone). Followers classify
	// their own history against this pair: a local version at or past
	// EpochVersion under a lower epoch has forked and must resync.
	Epoch        uint64 `json:"epoch"`
	EpochVersion uint64 `json:"epoch_version,omitempty"`
}

// Manifest returns the current shippable state. The listing is a consistent
// cut of the WAL metadata (taken under the log lock) paired with the newest
// snapshot on disk; a snapshot or truncation racing the call at worst makes
// the follower's download find a file changed or gone, which it answers by
// restarting its bootstrap from a fresh manifest.
func (s *Store) Manifest() (Manifest, error) {
	if s.closed.Load() {
		return Manifest{}, errors.New("persist: store is closed")
	}
	epoch, start, _ := s.Epoch()
	m := Manifest{Segments: s.wal.segmentInfos(), Epoch: epoch, EpochVersion: start}
	// Retry the size stat a few times: the newest snapshot can be deleted by
	// an even newer one landing between the listing and the stat.
	for attempt := 0; attempt < 3; attempt++ {
		snaps := listSnapshots(filepath.Join(s.dir, "snap"))
		if len(snaps) == 0 {
			return m, nil
		}
		fi, err := os.Stat(snaps[0].path)
		if err != nil {
			continue
		}
		m.Snapshot = &SnapshotInfo{
			Name:    filepath.Base(snaps[0].path),
			Bytes:   fi.Size(),
			Version: snaps[0].version,
		}
		return m, nil
	}
	return Manifest{}, errors.New("persist: snapshot listing raced repeated snapshot writes")
}

// segmentInfos lists sealed segments then the active one (when it holds
// records), under the log lock so the listing is a consistent cut.
func (w *wal) segmentInfos() []SegmentInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]SegmentInfo, 0, len(w.sealed)+1)
	add := func(seg segMeta) {
		out = append(out, SegmentInfo{
			Name:       filepath.Base(seg.path),
			Bytes:      seg.bytes,
			MinVersion: seg.minVer,
			MaxVersion: seg.maxVer,
			Records:    seg.records,
		})
	}
	for _, seg := range w.sealed {
		add(seg)
	}
	if w.active.records > 0 {
		add(w.active)
	}
	return out
}

// OpenSnapshotFile opens one snapshot by its manifest name for verbatim
// shipping. Unknown or malformed names fail with an error satisfying
// errors.Is(err, os.ErrNotExist) — the name is parsed and the path
// re-derived, so no request can escape the snapshot directory.
func (s *Store) OpenSnapshotFile(name string) (io.ReadCloser, int64, error) {
	version, err := parseIndexedName(name, "snap-", ".snap")
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %q: %w", name, os.ErrNotExist)
	}
	path := snapPath(filepath.Join(s.dir, "snap"), version)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// OpenSegmentFile opens one WAL segment by its manifest name for verbatim
// shipping, limited to its acknowledged bytes: the active segment's unsynced
// or torn tail — and any record racing in after the open — is never shipped,
// so a follower always receives a prefix that scans cleanly. Unknown names
// fail with os.ErrNotExist.
func (s *Store) OpenSegmentFile(name string) (io.ReadCloser, int64, error) {
	index, err := parseIndexedName(name, "seg-", ".wal")
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %q: %w", name, os.ErrNotExist)
	}
	path, limit, ok := s.wal.segmentForShip(index)
	if !ok {
		return nil, 0, fmt.Errorf("persist: segment %q: %w", name, os.ErrNotExist)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	return &limitedFile{f: f, r: io.LimitReader(f, limit)}, limit, nil
}

// segmentForShip resolves a segment index to its path and acknowledged byte
// count under the log lock.
func (w *wal) segmentForShip(index uint64) (path string, limit int64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, seg := range w.sealed {
		if seg.index == index {
			return seg.path, seg.bytes, true
		}
	}
	if w.active.index == index {
		return w.active.path, w.active.bytes, true
	}
	return "", 0, false
}

type limitedFile struct {
	f *os.File
	r io.Reader
}

func (l *limitedFile) Read(p []byte) (int, error) { return l.r.Read(p) }
func (l *limitedFile) Close() error               { return l.f.Close() }

// TailSince returns the durable records with version > from, sorted by
// version and framed in the v2 format, up to roughly maxBytes per call
// (at least one record is always returned when any qualifies; 0 picks 4MB).
// last is the highest version included — the caller's next from. A from
// below the truncation floor returns ErrTailGone: those versions now exist
// only inside a snapshot, and the caller must resync from one.
//
// The call holds the log lock across its file reads so truncation and
// compaction cannot mutate the segment set underneath it; the no-new-records
// fast path (the long-poll idle case) is a pure metadata check and touches
// no files.
func (s *Store) TailSince(from uint64, maxBytes int64) (payload []byte, last uint64, n int, err error) {
	if s.closed.Load() {
		return nil, 0, 0, errors.New("persist: store is closed")
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	return s.wal.tailSince(from, maxBytes)
}

func (w *wal) tailSince(from uint64, maxBytes int64) ([]byte, uint64, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil, 0, 0, errors.New("persist: WAL is closed")
	}
	if from < w.floor {
		return nil, 0, 0, fmt.Errorf("%w (from %d, floor %d)", ErrTailGone, from, w.floor)
	}
	newest := w.active.maxVer
	for _, seg := range w.sealed {
		if seg.maxVer > newest {
			newest = seg.maxVer
		}
	}
	if newest <= from {
		return nil, from, 0, nil
	}

	// Records within one segment can sit slightly out of version order
	// (versions are assigned under the commit lock, serialization on the log
	// lock happens after), so collect then sort — the same discipline replay
	// uses.
	var recs []walRecord
	collect := func(seg segMeta) error {
		if seg.records == 0 || seg.maxVer <= from {
			return nil
		}
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("persist: reading WAL segment for tail: %w", err)
		}
		if int64(len(data)) > seg.bytes {
			data = data[:seg.bytes] // exclude a tainted tail / racing write
		}
		segRecs, end := decodeRecords(data)
		if end != len(data) {
			return fmt.Errorf("persist: WAL segment %s: undecodable record at offset %d during tail", filepath.Base(seg.path), end)
		}
		for _, rec := range segRecs {
			if rec.version > from {
				recs = append(recs, rec)
			}
		}
		return nil
	}
	for _, seg := range w.sealed {
		if err := collect(seg); err != nil {
			return nil, 0, 0, err
		}
	}
	if err := collect(w.active); err != nil {
		return nil, 0, 0, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].version < recs[j].version })

	var payload []byte
	var scratch []byte
	var last uint64
	n := 0
	for _, r := range recs {
		frame := encodeRecord(&scratch, r)
		if n > 0 && int64(len(payload)+len(frame)) > maxBytes {
			break
		}
		payload = append(payload, frame...)
		last = r.version
		n++
	}
	return payload, last, n, nil
}

// DecodeSnapshot decodes one snapshot stream — the bytes OpenSnapshotFile
// ships — validating its header CRC and the CSR blob's self-checksums. It is
// the in-memory half of snapshot shipping: a follower without a data
// directory seeds its graph straight from the response body.
func DecodeSnapshot(r io.Reader) (g *bipartite.Graph, hdr SnapshotHeader, err error) {
	return decodeSnapshot(r, "stream")
}

// HasState reports whether dir holds any recoverable durable state — a
// snapshot, or a WAL segment with bytes in it. A follower uses it to decide
// between local recovery (resume) and a fresh bootstrap from the primary.
func HasState(dir string) bool {
	if len(listSnapshots(filepath.Join(dir, "snap"))) > 0 {
		return true
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "seg-*.wal"))
	if err != nil {
		return false
	}
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}
