// Package persist is the durability layer under the ensemfdetd daemon: a
// segmented write-ahead log of ingested edge batches plus binary CSR
// snapshots of the graph, so a restart — graceful or kill -9 — recovers the
// same graph, version, and therefore byte-identical detection votes as an
// uninterrupted run over the acknowledged batches.
//
// # Data layout
//
//	<dir>/wal/seg-<index>.wal   length+CRC32C-framed edge-batch records
//	<dir>/snap/snap-<ver>.snap  versioned header + bipartite CSR codec blob
//
// Each WAL record carries the graph version its batch committed as. The
// stream graph tees every adding batch into the log (stream.Journal) before
// the append returns, so with FsyncAlways an acknowledged batch is on disk.
// When the log grows past Options.SnapshotBytes, a background goroutine
// writes a snapshot of the current graph and truncates the WAL to the
// snapshot's version watermark: sealed segments whose records are all
// covered by the snapshot are deleted.
//
// # Recovery
//
// Boot-time recovery loads the newest valid snapshot, seeds the stream
// graph with it (stream.Graph.RestoreAt — the decoded CSR is also
// pre-published as the first cached snapshot), then replays the WAL records
// above the snapshot's version, in version order, through the normal
// sharded Append path. Replay is idempotent because appends deduplicate, and
// version-exact because each replayed batch re-adds precisely the edges it
// added live. A torn or checksum-failing final record — the signature of a
// crash mid-write — is truncated with a logged warning, never a refused
// boot; corruption in a sealed (non-final) segment is refused, because
// truncating there would silently drop acknowledged batches. Likewise, an
// unreadable snapshot is skipped in favor of WAL replay when the log still
// covers its range, and refused — with the remedy named — when it does not.
//
// # Failure handling
//
// A WAL write or fsync failure is fail-stop: the failed batch and every
// batch after it are rejected (each gets an error the serving layer maps to
// a retryable 500; the in-memory graph still commits, so reads keep
// working) until a snapshot at or above the gap restores a consistent
// durable image — attempted immediately in the background and healed
// automatically once one lands. This keeps the version sequence in
// (snapshot + WAL) hole-free, which is what recovery's version-exactness
// rests on.
package persist

import (
	"fmt"
	"log"
	"strings"
	"time"

	"ensemfdet/internal/stream"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs the WAL after every batch, before the append is
	// acknowledged: an acked batch survives kill -9 and power loss. This is
	// the default and the only policy under which the recovery guarantee
	// covers every acknowledged batch.
	FsyncAlways FsyncPolicy = iota
	// FsyncNever leaves flushing to the OS page cache: ingest runs at
	// memory speed, a process crash loses nothing (the kernel still owns
	// the dirty pages), but a host crash can lose the most recent batches.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values ("always", "never") to a
// policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "always":
		return FsyncAlways, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always or never)", s)
}

func (p FsyncPolicy) String() string {
	if p == FsyncNever {
		return "never"
	}
	return "always"
}

// Options configures a Store. The zero value is production-safe: fsync
// every batch, snapshot every 16MB of WAL growth, 8MB segments.
type Options struct {
	// Fsync is the WAL flush policy.
	Fsync FsyncPolicy
	// SnapshotBytes is how far the WAL may grow past the latest snapshot
	// before a background snapshot is triggered (0 → 16MB).
	SnapshotBytes int64
	// SegmentBytes caps one WAL segment before rotation (0 → 8MB). A batch
	// larger than a whole segment still lands in one (oversized) segment.
	SegmentBytes int64
	// Logf receives recovery warnings and snapshot progress lines
	// (nil → log.Printf).
	Logf func(format string, args ...any)
}

const (
	defaultSnapshotBytes = 16 << 20
	defaultSegmentBytes  = 8 << 20
)

func (o Options) snapshotBytes() int64 {
	if o.SnapshotBytes <= 0 {
		return defaultSnapshotBytes
	}
	return o.SnapshotBytes
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return defaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) logf() func(string, ...any) {
	if o.Logf == nil {
		return log.Printf
	}
	return o.Logf
}

// RecoveryStats summarizes one boot-time recovery.
type RecoveryStats struct {
	// SnapshotVersion is the graph version of the snapshot that seeded
	// recovery; 0 means no usable snapshot existed.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// SnapshotEdges is the edge count of that snapshot.
	SnapshotEdges int `json:"snapshot_edges"`
	// ReplayedRecords / ReplayedEdges count the WAL tail replayed on top of
	// the snapshot (edges are pre-dedup batch sizes; tombstone records count
	// in both, their edges being the ones deleted).
	ReplayedRecords int `json:"replayed_records"`
	ReplayedEdges   int `json:"replayed_edges"`
	// ReplayedTombstones counts the tombstone records among ReplayedRecords
	// — retire passes reproduced as exact deletions.
	ReplayedTombstones int `json:"replayed_tombstones"`
	// WindowMark is the recovered expiry watermark: the snapshot's, advanced
	// by the replayed tombstones (zero for a fresh directory).
	WindowMark stream.WindowMark `json:"window_mark"`
	// SkippedRecords counts WAL records at or below the snapshot watermark,
	// already covered by the snapshot.
	SkippedRecords int `json:"skipped_records"`
	// TornTail reports that a torn or corrupt final record was truncated.
	TornTail bool `json:"torn_tail"`
	// Version is the recovered graph version.
	Version uint64 `json:"version"`
	// Epoch is the failover term resolved from the fence file, snapshot
	// header, and WAL fence records (0 for pre-epoch directories).
	Epoch uint64 `json:"epoch"`
}

// Stats is a point-in-time durability summary, surfaced by the daemon's
// /v1/stats and /metrics endpoints.
type Stats struct {
	// Epoch is the failover term this store has observed;
	// EpochStartVersion is the first graph version of that term (0 when
	// unknown); EpochOwned reports whether local ingest may acknowledge
	// writes under it — false on followers and on a deposed primary.
	Epoch             uint64 `json:"epoch"`
	EpochStartVersion uint64 `json:"epoch_start_version,omitempty"`
	EpochOwned        bool   `json:"epoch_owned"`
	// FsyncPolicy is the configured WAL flush policy.
	FsyncPolicy string `json:"fsync_policy"`
	// WALSegments and WALBytes describe the log currently on disk.
	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
	// AppendedRecords/AppendedBytes/Fsyncs count WAL activity since this
	// process opened the store; TombstoneRecords is the retire-record subset
	// of AppendedRecords.
	AppendedRecords  uint64 `json:"appended_records"`
	AppendedBytes    uint64 `json:"appended_bytes"`
	TombstoneRecords uint64 `json:"tombstone_records"`
	Fsyncs           uint64 `json:"fsyncs"`
	// Compactions counts sealed segments rewritten to drop snapshot-covered
	// records; CompactedBytes is the disk space those rewrites reclaimed.
	Compactions    uint64 `json:"compactions"`
	CompactedBytes uint64 `json:"compacted_bytes"`
	// SnapshotsWritten / SnapshotErrors count snapshot attempts since open.
	SnapshotsWritten uint64 `json:"snapshots_written"`
	SnapshotErrors   uint64 `json:"snapshot_errors"`
	// SnapshotVersion is the version of the newest durable snapshot.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// BytesSinceSnapshot is the WAL growth past that snapshot — the value
	// compared against Options.SnapshotBytes.
	BytesSinceSnapshot int64 `json:"bytes_since_snapshot"`
	// WALGapVersion, when non-zero, reports the store is degraded: a batch
	// at this version (or below) failed to reach the WAL, and ingest is
	// rejected until a snapshot at or above it heals the gap.
	WALGapVersion uint64 `json:"wal_gap_version,omitempty"`
	// SnapshotDur is cumulative time spent encoding+syncing snapshots.
	SnapshotDur time.Duration `json:"snapshot_ns"`
	// Recovery echoes the boot-time recovery summary.
	Recovery RecoveryStats `json:"recovery"`
}
