package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// ErrDegraded tags every append rejected because the store is in the
// fail-stop WAL gap state (or entering it): the batch did not reach the log
// and will not until a covering snapshot heals the gap. The serving layer
// maps it to 503 + Retry-After so clients back off instead of hot-retrying.
var ErrDegraded = errors.New("persist: WAL degraded")

// ErrFenced tags local-ingest appends rejected because this store's epoch is
// owned by another primary — the node has been deposed (or never promoted).
// Unlike ErrDegraded this does not heal with time: the remedy is rejoining
// the new primary as a follower, so the serving layer maps it to 409.
var ErrFenced = errors.New("persist: fenced")

// Source is what the store snapshots: anything handing out immutable
// versioned CSR views. *stream.Graph is the production implementation.
// Sources that additionally implement SnapshotWithMark (the stream graph
// does) get their window watermark persisted in the snapshot header, so
// recovery restores expiry progress along with the edges.
type Source interface {
	Snapshot() (*bipartite.Graph, uint64)
}

// markedSource is the optional windowing extension of Source.
type markedSource interface {
	SnapshotWithMark() (*bipartite.Graph, uint64, stream.WindowMark)
}

// Store is the durability engine: it implements stream.Journal (the WAL
// tee), writes background snapshots once the log outgrows the threshold,
// and recovers a stream.Graph at boot. All methods are safe for concurrent
// use. Lifecycle: Open → Recover → stream.SetJournal(store) +
// SetSource(graph) → traffic → Close.
type Store struct {
	dir  string
	opts Options
	wal  *wal
	logf func(string, ...any)

	// pending holds the WAL records scanned at Open, consumed by Recover.
	pending []walRecord
	torn    bool

	src atomic.Pointer[sourceBox]

	// snapMu serializes snapshot writes (background and forced); snapping
	// keeps at most one background snapshot goroutine in flight without
	// making Append wait on an ongoing write. lifeMu orders goroutine
	// spawns against Close: a kick either observes closed and spawns
	// nothing, or completes its wg.Add before Close starts waiting — never
	// an Add concurrent with Wait at counter zero.
	snapMu   sync.Mutex
	snapping atomic.Bool
	lifeMu   sync.Mutex
	wg       sync.WaitGroup
	closed   atomic.Bool

	snapVersion    atomic.Uint64
	bytesSinceSnap atomic.Int64
	snapsWritten   atomic.Uint64
	snapErrs       atomic.Uint64
	snapNs         atomic.Int64

	// walGap is the highest graph version whose batch failed to reach the
	// WAL (0 = healthy). While non-zero the store is degraded: every
	// subsequent append is rejected too — acknowledging any later batch
	// would leave a version hole the replay path can never reproduce. The
	// gap heals only when a snapshot at or above it lands, because a
	// snapshot captures the in-memory graph, unjournaled batches included.
	walGap atomic.Uint64

	// Failover epoch (term) state, durably mirrored by the fence file (and
	// discovered from snapshot headers / WAL fence records at Recover, which
	// may only raise it). fenceMu serializes fence-file writes; owned gates
	// the local-ingest journal tee — a deposed primary's appends fail-stop
	// with ErrFenced, while the replica apply path (AppendRecord) stays open.
	fenceMu    sync.Mutex
	epoch      atomic.Uint64
	epochStart atomic.Uint64
	owned      atomic.Bool

	recovered RecoveryStats
}

type sourceBox struct{ src Source }

// Open prepares the durability state under dir (created if missing),
// scanning the WAL — truncating a torn final record with a logged warning —
// and locating the newest valid snapshot. Call Recover next to load the
// state into a graph; a fresh directory recovers to the empty graph.
func Open(dir string, opts Options) (*Store, error) {
	logf := opts.logf()
	if err := os.MkdirAll(filepath.Join(dir, "snap"), 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	w, records, torn, err := openWAL(filepath.Join(dir, "wal"), opts.segmentBytes(), opts.Fsync == FsyncAlways, logf)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		wal:     w,
		logf:    logf,
		pending: records,
		torn:    torn,
	}
	// Seed the epoch from the fence file. A directory without one never
	// promoted or adopted an epoch: epoch 0, owned — the single-primary
	// behaviour. Recover then raises the epoch past the fence if snapshots
	// or WAL fences outrank it (a crash can land durable state before the
	// fence write), dropping ownership when they do.
	fence, ok, err := readFenceFile(dir)
	if err != nil {
		return nil, err
	}
	s.epoch.Store(fence.epoch)
	s.epochStart.Store(fence.start)
	s.owned.Store(!ok || fence.owned)
	return s, nil
}

// Recover loads the newest valid snapshot into g (which must be empty) and
// replays the WAL records above the snapshot's version, in version order,
// through g's normal Append path. Install the store as g's journal only
// after Recover returns, so replayed batches are not re-journaled. A
// snapshot that fails to decode is skipped with a warning in favor of the
// next older one.
func (s *Store) Recover(g *stream.Graph) (RecoveryStats, error) {
	var rec RecoveryStats
	rec.TornTail = s.torn

	// maxBadSnap is the highest version an unreadable snapshot file claimed
	// (from its name); badSnap names that file and badErr says why it did
	// not decode. Falling back past such a file is only safe if the WAL
	// still covers every version it did — otherwise "recovery" would boot a
	// graph silently missing acknowledged batches, the exact loss the sealed
	// -segment scan refuses.
	var snap *bipartite.Graph
	var snapHdr SnapshotHeader
	var maxBadSnap uint64
	var badSnap string
	var badErr error
	for _, sf := range listSnapshots(filepath.Join(s.dir, "snap")) {
		loaded, hdr, err := readSnapshotFile(sf.path)
		if err != nil {
			s.logf("persist: skipping unusable snapshot %s: %v", filepath.Base(sf.path), err)
			if sf.version > maxBadSnap {
				maxBadSnap, badSnap, badErr = sf.version, filepath.Base(sf.path), err
			}
			continue
		}
		snap, snapHdr = loaded, hdr
		rec.SnapshotVersion, rec.SnapshotEdges = hdr.Version, loaded.NumEdges()
		break
	}
	if snap != nil {
		// RestoreAt adopts the persisted window watermark and stamps the
		// restored edges as ingested when the snapshot was written — the
		// stamps' original batch granularity is not persisted, so the window
		// treats recovered history as uniformly snapshot-aged (it can retain
		// longer than the live run would, never expire earlier).
		if err := g.RestoreAt(snap, rec.SnapshotVersion, snapHdr.Mark, snapHdr.WrittenAt); err != nil {
			return rec, err
		}
		s.snapVersion.Store(rec.SnapshotVersion)
		// The WAL is only guaranteed to reach back to this snapshot: records
		// it covers may already be gone from disk, so a replication tail may
		// not start below it.
		s.wal.setFloor(rec.SnapshotVersion)
	}

	// Replay the tail in version order: each record re-adds exactly the
	// edges it added live (dedup handles batch overlap), so versions — and
	// therefore vote-cache keys — come out identical to the live run.
	replay := s.pending
	s.pending = nil
	sort.Slice(replay, func(i, j int) bool { return replay[i].version < replay[j].version })

	// Every version bump journals exactly one record, so snapshot + WAL must
	// tile the version sequence. A hole at or below an unreadable snapshot's
	// claimed version means that snapshot was the only copy of acknowledged
	// batches: refuse, naming the remedy, rather than silently serving a
	// graph with data missing. (Holes above maxBadSnap are not checked — a
	// crash can tear one record of a concurrent pair out of the tail, and
	// those batches were never acknowledged.)
	if maxBadSnap > rec.SnapshotVersion {
		expected, lost := rec.SnapshotVersion+1, maxBadSnap
		for _, r := range replay {
			if r.version <= rec.SnapshotVersion {
				continue
			}
			if expected > maxBadSnap || r.version != expected {
				lost = min(r.version-1, maxBadSnap)
				break
			}
			expected = r.version + 1
		}
		if expected <= maxBadSnap {
			return rec, fmt.Errorf(
				"persist: recovery would lose versions %d..%d: they are covered only by the unreadable snapshot %s (%v); restore it from backup, or delete it to accept the loss",
				expected, lost, badSnap, badErr)
		}
	}

	var tailBytes int64
	var walEpoch, walEpochStart uint64
	for i := 0; i < len(replay); i++ {
		r := replay[i]
		if r.kind == recEpochFence && r.epoch > walEpoch {
			// Note the fence even when the snapshot covers its version: the
			// snapshot carries the epoch forward in its header, but an older
			// (pre-fence) snapshot may have been the one that survived.
			walEpoch, walEpochStart = r.epoch, r.version
		}
		if r.version <= rec.SnapshotVersion {
			rec.SkippedRecords++
			continue
		}
		if r.kind == recEpochFence {
			// A fence occupies its version slot but carries no edges: replay
			// is just the version bump, so the surviving history tiles
			// exactly as it did live.
			g.AdvanceVersionTo(r.version)
			rec.ReplayedRecords++
			tailBytes += r.frameSize()
			continue
		}
		if r.kind == recTombstone {
			// Replay the retirement as an exact deletion: the tombstone
			// names precisely the edges the live pass removed, so no window
			// policy is re-evaluated (and none need be configured) at boot.
			// The record's watermark restores expiry progress reached after
			// the snapshot was cut. Consecutive tombstones (common when a
			// fast retire ticker ran between snapshots) coalesce into one
			// Remove: each Remove scans every live shard entry, so one pass
			// over the union keeps replay O(records + live) instead of
			// O(tombstone records × live). Deletion sets of distinct
			// versions are disjoint (an edge must be re-appended before it
			// can be removed again), so the union removes the same edges,
			// and the final version/mark pins below reproduce the last
			// record's state — intermediate versions are unobservable at
			// boot.
			edges := r.edges
			mark := r.mark
			rec.ReplayedTombstones++
			rec.ReplayedRecords++
			rec.ReplayedEdges += len(r.edges)
			tailBytes += r.frameSize()
			for i+1 < len(replay) && replay[i+1].kind == recTombstone {
				i++
				next := replay[i]
				edges = append(edges[:len(edges):len(edges)], next.edges...)
				mark = next.mark
				r = next
				rec.ReplayedTombstones++
				rec.ReplayedRecords++
				rec.ReplayedEdges += len(next.edges)
				tailBytes += next.frameSize()
			}
			g.Remove(edges)
			g.AdvanceMarkTo(mark)
			g.AdvanceVersionTo(r.version)
			continue
		}
		g.Append(r.edges)
		// Pin the record to the version it committed as live. Normally the
		// operation's own bump already matches; after an unhealed version
		// hole (see the package doc) this keeps the surviving acknowledged
		// versions from being renumbered.
		g.AdvanceVersionTo(r.version)
		rec.ReplayedRecords++
		rec.ReplayedEdges += len(r.edges)
		tailBytes += r.frameSize()
	}
	s.bytesSinceSnap.Store(tailBytes)

	// Resolve the epoch: the fence file seeded it at Open; durable state that
	// outranks it (a shipped snapshot's header, a WAL fence record the crash
	// landed before the fence-file write) raises it — and anything the fence
	// file did not record ownership of is, by definition, not owned here.
	// That asymmetry is the fencing guarantee across reboots: a deposed
	// primary can observe a higher epoch but can never manufacture ownership
	// of one.
	if walEpoch > s.epoch.Load() {
		s.epoch.Store(walEpoch)
		s.epochStart.Store(walEpochStart)
		s.owned.Store(false)
	}
	if snapHdr.Epoch > s.epoch.Load() {
		s.epoch.Store(snapHdr.Epoch)
		s.epochStart.Store(0) // start version unknown from a header alone
		s.owned.Store(false)
	}
	rec.Epoch = s.epoch.Load()
	rec.Version = g.Version()
	rec.WindowMark = g.WindowStats().Mark // snapshot mark + replayed tombstone marks
	s.recovered = rec
	return rec, nil
}

// SetSource enables snapshotting against src. Without a source the store is
// WAL-only: the log grows until Close.
func (s *Store) SetSource(src Source) {
	if src == nil {
		s.src.Store(nil)
		return
	}
	s.src.Store(&sourceBox{src: src})
}

// AppendEdges implements stream.Journal: it frames and writes the batch to
// the WAL (fsyncing under FsyncAlways) before the stream append returns, and
// kicks a background snapshot once the log has outgrown the threshold.
//
// Failure is fail-stop: one WAL error degrades the store, and every
// subsequent batch is rejected (the stream still commits them in memory, so
// clients get 500s and reads keep working) until a snapshot at or above the
// gap restores a consistent durable image — attempted immediately in the
// background, and again at the size trigger, a manual Snapshot, or Close.
// After healing, client retries deduplicate against the snapshotted edges,
// so the "retry on 500" contract stays truthful.
func (s *Store) AppendEdges(version uint64, edges []bipartite.Edge) error {
	if err := s.checkOwned(); err != nil {
		return err
	}
	return s.journalRecord(walRecord{kind: recEdges, version: version, edges: edges})
}

// RetireEdges implements the tombstone half of stream.Journal: a retire pass
// (or explicit Remove) that deleted edges is framed as a tombstone record at
// its version — carrying the post-pass window watermark, so replay restores
// expiry progress exactly — under the same fail-stop contract as
// AppendEdges: a WAL failure degrades the store until a covering snapshot
// (which captures the post-retire graph, unjournaled retirements included)
// heals the gap.
func (s *Store) RetireEdges(version uint64, edges []bipartite.Edge, mark stream.WindowMark) error {
	if err := s.checkOwned(); err != nil {
		return err
	}
	return s.journalRecord(walRecord{kind: recTombstone, version: version, edges: edges, mark: mark})
}

// checkOwned gates the local-ingest journal tee on epoch ownership: a node
// whose epoch belongs to another primary must fail-stop every write it would
// acknowledge, or it could fork history a promoted follower has already
// diverged from. The replica apply path (AppendRecord) bypasses this —
// followers journal the owner's records precisely because they are not the
// owner.
func (s *Store) checkOwned() error {
	if s.owned.Load() {
		return nil
	}
	return fmt.Errorf("%w: epoch %d is owned by another primary; local writes are rejected", ErrFenced, s.epoch.Load())
}

func (s *Store) journalRecord(rec walRecord) error {
	if s.closed.Load() {
		return fmt.Errorf("persist: store is closed")
	}
	for {
		gap := s.walGap.Load()
		if gap == 0 {
			break
		}
		if s.snapVersion.Load() >= gap {
			// A snapshot covered the hole; resume journaling.
			if s.walGap.CompareAndSwap(gap, 0) {
				break
			}
			continue
		}
		raiseGap(&s.walGap, rec.version) // this batch is unjournaled too
		// Kick another heal attempt: the original failure's kick may have
		// cut below a gap raised since (or been swallowed by an in-flight
		// snapshot), and the size trigger can't fire while appends are
		// rejected — without this, a healthy disk could stay degraded until
		// shutdown.
		s.kickSnapshot()
		return fmt.Errorf("%w since a failure at version ≤ %d: batch %d rejected until a covering snapshot lands", ErrDegraded, gap, rec.version)
	}
	n, err := s.wal.append(rec)
	if err != nil {
		raiseGap(&s.walGap, rec.version)
		s.kickSnapshot() // try to self-heal without waiting for the size trigger
		return fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	if s.bytesSinceSnap.Add(n) >= s.opts.snapshotBytes() {
		s.kickSnapshot()
	}
	return nil
}

// raiseGap lifts *gap to at least version.
func raiseGap(gap *atomic.Uint64, version uint64) {
	for {
		cur := gap.Load()
		if version <= cur || gap.CompareAndSwap(cur, version) {
			return
		}
	}
}

// kickSnapshot starts one background snapshot unless one is already in
// flight (or there is no source / the store is closing).
func (s *Store) kickSnapshot() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.src.Load() == nil || s.closed.Load() || !s.snapping.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer s.snapping.Store(false)
		if err := s.Snapshot(); err != nil {
			s.logf("persist: background snapshot failed: %v", err)
		}
	}()
}

// Snapshot synchronously snapshots the source's current graph and truncates
// the WAL to its version. It is a no-op without a source or when the newest
// snapshot already covers the current version.
func (s *Store) Snapshot() error {
	box := s.src.Load()
	if box == nil {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Bytes counted before the snapshot cut belong to records the snapshot
	// will cover (their journal tee completed before the cut's commit lock),
	// so exactly `pre` is subtracted on success — bytes racing in during the
	// write keep counting toward the next trigger.
	pre := s.bytesSinceSnap.Load()
	var g *bipartite.Graph
	var version uint64
	var mark stream.WindowMark
	if ms, ok := box.src.(markedSource); ok {
		g, version, mark = ms.SnapshotWithMark()
	} else {
		g, version = box.src.Snapshot()
	}
	if version <= s.snapVersion.Load() {
		return nil
	}
	start := time.Now()
	hdr := SnapshotHeader{Version: version, Mark: mark, WrittenAt: time.Now().UnixNano(), Epoch: s.epoch.Load()}
	if _, err := writeSnapshotFile(filepath.Join(s.dir, "snap"), g, hdr); err != nil {
		s.snapErrs.Add(1)
		return err
	}
	// The snapshot is durable: drop WAL segments it fully covers. A crash
	// between the rename above and this truncation only leaves covered
	// records behind, which replay skips.
	if err := s.wal.truncateTo(version); err != nil {
		s.snapErrs.Add(1)
		return err
	}
	s.snapNs.Add(int64(time.Since(start)))
	s.snapVersion.Store(version)
	// Eagerly clear a gap this snapshot covers, so the degraded signal in
	// Stats/metrics (and the next append's fast path) reflect the heal even
	// if no ingest traffic follows; AppendEdges' lazy check remains the
	// backstop for a gap raised concurrently above this cut.
	for {
		gap := s.walGap.Load()
		if gap == 0 || gap > version || s.walGap.CompareAndSwap(gap, 0) {
			break
		}
	}
	s.bytesSinceSnap.Add(-pre)
	s.snapsWritten.Add(1)
	s.logf("persist: snapshot at version %d (%d edges), WAL truncated", version, g.NumEdges())
	return nil
}

// Epoch returns the failover term this store has observed, the first graph
// version of that term (0 when unknown), and whether local ingest owns it.
func (s *Store) Epoch() (epoch, start uint64, owned bool) {
	return s.epoch.Load(), s.epochStart.Load(), s.owned.Load()
}

// AdoptEpoch durably records an epoch observed from elsewhere — a higher
// term in a tail response, a fence record shipped by the new primary, or an
// admin re-point. Ownership is dropped: adopting is how a node concedes the
// term to its owner. Adopting an epoch at or below the current one only
// rewrites the fence when it would change state (idempotent re-adopts are
// free); it never lowers the epoch.
func (s *Store) AdoptEpoch(epoch, start uint64) error {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	cur := s.epoch.Load()
	if epoch < cur {
		return fmt.Errorf("persist: cannot adopt epoch %d below current %d", epoch, cur)
	}
	if epoch == cur && !s.owned.Load() && (start == 0 || s.epochStart.Load() == start) {
		return nil
	}
	if err := writeFenceFile(s.dir, fenceState{epoch: epoch, start: start, owned: false}); err != nil {
		return err
	}
	s.epoch.Store(epoch)
	s.epochStart.Store(start)
	s.owned.Store(false)
	return nil
}

// PromoteEpoch is the durable half of follower promotion: it fsyncs
// ownership of a new term (strictly above the current epoch) into the fence
// file, then journals an epoch-fence record at startVersion — the version
// slot the term begins at. Once the fence write returns, any surviving
// pre-promote primary that observes this epoch fail-stops, and this store's
// local ingest is unlocked. The fence record rides the normal journal path,
// so it ships to tailing followers and replays across reboots.
func (s *Store) PromoteEpoch(epoch, startVersion uint64) error {
	s.fenceMu.Lock()
	defer s.fenceMu.Unlock()
	if cur := s.epoch.Load(); epoch <= cur {
		return fmt.Errorf("persist: promote epoch %d is not above current %d", epoch, cur)
	}
	if startVersion == 0 {
		return errors.New("persist: promote start version must be non-zero")
	}
	if err := writeFenceFile(s.dir, fenceState{epoch: epoch, start: startVersion, owned: true}); err != nil {
		return err
	}
	s.epoch.Store(epoch)
	s.epochStart.Store(startVersion)
	s.owned.Store(true)
	return s.journalRecord(walRecord{kind: recEpochFence, version: startVersion, epoch: epoch})
}

// Rewind discards the store's entire durable history — every snapshot and
// WAL segment — leaving a fresh, empty log. It is the epoch-boundary resync
// primitive: when a rejoining node's history has forked from the promoted
// primary's (its versions overlap the new term's), the forked suffix cannot
// be surgically unwound record-by-record, so the caller first forces the
// in-memory graph onto the new primary's snapshot, then Rewinds, then cuts a
// fresh snapshot of the converged state. A crash in between recovers the
// pre-rewind state or an empty store — either way the next resync attempt
// converges again; acknowledged history on the *new* timeline is never lost
// because none exists locally until the post-rewind snapshot lands.
func (s *Store) Rewind() error {
	if s.closed.Load() {
		return fmt.Errorf("persist: store is closed")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	snapDir := filepath.Join(s.dir, "snap")
	for _, sf := range listSnapshots(snapDir) {
		//ensemfdet:durability-ok rewind discards the abandoned timeline's snapshots by design
		if err := os.Remove(sf.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: removing snapshot: %w", err)
		}
	}
	if err := syncDir(snapDir); err != nil {
		return fmt.Errorf("persist: syncing snapshot dir: %w", err)
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.snapVersion.Store(0)
	s.bytesSinceSnap.Store(0)
	s.walGap.Store(0)
	return nil
}

// Close flushes everything: it waits for any background snapshot, writes a
// final snapshot if the WAL grew past the last one, and closes the log. The
// store is unusable afterwards; in-flight AppendEdges calls fail cleanly.
func (s *Store) Close() error {
	s.lifeMu.Lock()
	if !s.closed.CompareAndSwap(false, true) {
		s.lifeMu.Unlock()
		return nil
	}
	s.lifeMu.Unlock()
	s.wg.Wait()
	var err error
	if s.bytesSinceSnap.Load() > 0 {
		err = s.Snapshot()
	}
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns current durability counters.
func (s *Store) Stats() Stats {
	segs, bytes := s.wal.diskStats()
	records, appended, tombstones, fsyncs, compactions, compacted := s.wal.counters()
	return Stats{
		Epoch:              s.epoch.Load(),
		EpochStartVersion:  s.epochStart.Load(),
		EpochOwned:         s.owned.Load(),
		FsyncPolicy:        s.opts.Fsync.String(),
		WALSegments:        segs,
		WALBytes:           bytes,
		AppendedRecords:    records,
		AppendedBytes:      appended,
		TombstoneRecords:   tombstones,
		Fsyncs:             fsyncs,
		Compactions:        compactions,
		CompactedBytes:     compacted,
		SnapshotsWritten:   s.snapsWritten.Load(),
		SnapshotErrors:     s.snapErrs.Load(),
		SnapshotVersion:    s.snapVersion.Load(),
		BytesSinceSnapshot: s.bytesSinceSnap.Load(),
		WALGapVersion:      s.walGap.Load(),
		SnapshotDur:        time.Duration(s.snapNs.Load()),
		Recovery:           s.recovered,
	}
}
