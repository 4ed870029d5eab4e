package persist

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/stream"
)

// randomBatches shapes a deterministic ingest stream: n batches of mixed
// fresh and duplicate edges over a modest id space.
func randomBatches(seed int64, n, perBatch int) [][]bipartite.Edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]bipartite.Edge, n)
	for i := range out {
		batch := make([]bipartite.Edge, perBatch)
		for j := range batch {
			batch[j] = bipartite.Edge{U: uint32(rng.Intn(150)), V: uint32(rng.Intn(120))}
		}
		out[i] = batch
	}
	return out
}

// csrBytes canonically encodes a graph for byte-identity comparison.
func csrBytes(t *testing.T, g *bipartite.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bipartite.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// votes runs a small deterministic ensemble on g.
func votes(t *testing.T, g *bipartite.Graph) core.Votes {
	t.Helper()
	out, err := core.Run(g, core.Config{NumSamples: 8, SampleRatio: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return out.Votes
}

// openDurable boots a store-backed stream graph in dir, the way the daemon
// wires it: open, recover, then journal + source.
func openDurable(t *testing.T, dir string, shards int, opts Options) (*Store, *stream.Graph, RecoveryStats) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = testLogf(t)
	}
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := stream.NewSharded(shards)
	rec, err := st.Recover(g)
	if err != nil {
		t.Fatal(err)
	}
	g.SetJournal(st)
	st.SetSource(g)
	return st, g, rec
}

// TestCrashRecoveryMatchesUninterruptedRun is the acceptance-criteria pin:
// a run that crashes (store abandoned without Close, WAL fsynced per batch)
// after a mid-stream snapshot must recover — even into a different shard
// count — to the same version, a byte-identical CSR snapshot, and
// byte-identical detection votes as an uninterrupted run over the same
// acknowledged batches.
func TestCrashRecoveryMatchesUninterruptedRun(t *testing.T) {
	batches := randomBatches(3, 12, 40)
	dir := t.TempDir()

	st, g, rec := openDurable(t, dir, 4, Options{Fsync: FsyncAlways})
	if rec.Version != 0 || rec.SnapshotVersion != 0 {
		t.Fatalf("fresh dir recovery: %+v", rec)
	}
	for i, b := range batches {
		if res := g.Append(b); res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
		if i == 5 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveVersion := g.Version()
	liveSnap, _ := g.Snapshot()
	liveVotes := votes(t, liveSnap)
	// Crash: no Close, no final snapshot. Every acknowledged batch is on
	// disk because FsyncAlways synced before each Append returned.

	st2, g2, rec2 := openDurable(t, dir, 16, Options{Fsync: FsyncAlways})
	defer st2.Close()
	if g2.Version() != liveVersion {
		t.Fatalf("recovered version %d, want %d", g2.Version(), liveVersion)
	}
	if rec2.SnapshotVersion == 0 || rec2.ReplayedRecords == 0 {
		t.Fatalf("recovery should combine a snapshot and a WAL tail: %+v", rec2)
	}
	gotSnap, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, gotSnap), csrBytes(t, liveSnap)) {
		t.Fatal("recovered snapshot is not byte-identical to the uninterrupted run")
	}
	if !reflect.DeepEqual(votes(t, gotSnap), liveVotes) {
		t.Fatal("recovered votes differ from the uninterrupted run")
	}

	// Ingest continues seamlessly after recovery.
	extra := []bipartite.Edge{{U: 500, V: 500}}
	if res := g2.Append(extra); res.Err != nil || res.Version != liveVersion+1 {
		t.Fatalf("post-recovery append: %+v", res)
	}
}

// TestRecoveryWALOnly recovers from a log with no snapshot at all.
func TestRecoveryWALOnly(t *testing.T) {
	batches := randomBatches(9, 6, 25)
	dir := t.TempDir()
	_, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	for _, b := range batches {
		g.Append(b)
	}
	live, _ := g.Snapshot()

	_, g2, rec := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	if rec.SnapshotVersion != 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("WAL-only recovery: %+v", rec)
	}
	if g2.Version() != g.Version() {
		t.Fatalf("version %d, want %d", g2.Version(), g.Version())
	}
	got, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, live)) {
		t.Fatal("WAL-only recovery diverged")
	}
}

// TestRecoverySnapshotOnly: after Close (which writes a covering snapshot
// and truncates the WAL), recovery is pure snapshot load — zero replay.
func TestRecoverySnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 4, Options{Fsync: FsyncAlways})
	for _, b := range randomBatches(11, 5, 30) {
		g.Append(b)
	}
	live, _ := g.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, g2, rec := openDurable(t, dir, 4, Options{Fsync: FsyncAlways})
	defer st2.Close()
	if rec.ReplayedRecords != 0 || rec.SkippedRecords != 0 || rec.SnapshotVersion != g.Version() {
		t.Fatalf("post-Close recovery should be snapshot-only: %+v", rec)
	}
	got, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, live)) {
		t.Fatal("snapshot-only recovery diverged")
	}
	// The recovered CSR was pre-published: no build ran.
	if bs := g2.BuildStats(); bs.FullBuilds+bs.DeltaBuilds != 0 {
		t.Fatalf("snapshot-only recovery rebuilt the CSR: %+v", bs)
	}
}

// TestBackgroundSnapshotTruncatesWAL drives the size trigger: with a tiny
// threshold every batch tips the log over, so snapshots must be written in
// the background and the WAL must shrink to the uncovered tail.
func TestBackgroundSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 4, Options{Fsync: FsyncAlways, SnapshotBytes: 1, SegmentBytes: 1 << 10})
	for _, b := range randomBatches(13, 10, 50) {
		g.Append(b)
	}
	if err := st.Close(); err != nil { // waits for in-flight background snapshots
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.SnapshotsWritten == 0 {
		t.Fatalf("size trigger never fired: %+v", stats)
	}
	if stats.SnapshotErrors != 0 {
		t.Fatalf("snapshot errors: %+v", stats)
	}
	if stats.SnapshotVersion != g.Version() {
		t.Fatalf("final snapshot at version %d, graph at %d", stats.SnapshotVersion, g.Version())
	}

	_, g2, rec := openDurable(t, dir, 4, Options{Fsync: FsyncAlways})
	if rec.SnapshotVersion != g.Version() || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery after snapshot cycle: %+v", rec)
	}
	want, _ := g.Snapshot()
	got, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, want)) {
		t.Fatal("recovery after background snapshots diverged")
	}
}

// TestRecoverySkipsCorruptSnapshot: an unreadable snapshot whose range the
// WAL still covers must be skipped with a warning naming the file and the
// cause, falling back to full WAL replay — never a refused boot, never
// silent trust. A snapshot in a retired format is skipped the same way.
func TestRecoverySkipsCorruptSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte // applied to a real format-3 file
		cause  string
	}{
		{"garbage", func([]byte) []byte { return []byte("not a snapshot") }, "bad magic"},
		{"format 1", func(b []byte) []byte { return withFormat(b, 1) }, "unsupported format 1"},
		{"format 2", func(b []byte) []byte { return withFormat(b, 2) }, "unsupported format 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
			for _, b := range randomBatches(17, 4, 20) {
				g.Append(b)
			}
			live, _ := g.Snapshot()

			// Plant an unreadable snapshot claiming a version the
			// (untruncated) WAL still fully covers: skipping it loses nothing.
			var file bytes.Buffer
			if err := encodeSnapshot(&file, live, SnapshotHeader{Version: 2}); err != nil {
				t.Fatal(err)
			}
			bad := snapPath(filepath.Join(dir, "snap"), 2)
			if err := os.WriteFile(bad, tc.damage(file.Bytes()), 0o644); err != nil {
				t.Fatal(err)
			}

			var logged []string
			logf := func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
				t.Logf(format, args...)
			}
			_, g2, rec := openDurable(t, dir, 2, Options{Fsync: FsyncAlways, Logf: logf})
			if rec.SnapshotVersion != 0 {
				t.Fatalf("unreadable snapshot was trusted: %+v", rec)
			}
			got, _ := g2.Snapshot()
			if !bytes.Equal(csrBytes(t, got), csrBytes(t, live)) {
				t.Fatal("recovery around an unreadable snapshot diverged")
			}
			warned := false
			for _, line := range logged {
				warned = warned || strings.Contains(line, "skipping") &&
					strings.Contains(line, filepath.Base(bad)) && strings.Contains(line, tc.cause)
			}
			if !warned {
				t.Fatalf("no skip warning naming %s and %q in %q", filepath.Base(bad), tc.cause, logged)
			}
		})
	}
}

// TestRecoveryRefusesLossyCorruptSnapshot: when the newest snapshot is
// unreadable AND the WAL was already truncated to it, the acknowledged
// batches it held exist nowhere else — recovery must refuse with a message
// naming the file and why it did not decode, not silently boot a near-empty
// graph. A snapshot in a retired format is refused the same way.
func TestRecoveryRefusesLossyCorruptSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
		cause  string
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }, "checksum mismatch"},
		{"format 1", func(b []byte) []byte { return withFormat(b, 1) }, "unsupported format 1"},
		{"format 2", func(b []byte) []byte { return withFormat(b, 2) }, "unsupported format 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
			for _, b := range randomBatches(19, 5, 20) {
				g.Append(b)
			}
			if err := st.Snapshot(); err != nil { // truncates the WAL to version 5
				t.Fatal(err)
			}
			g.Append(edgesN(900, 3)) // version 6, the only WAL record left

			snaps := listSnapshots(filepath.Join(dir, "snap"))
			if len(snaps) != 1 {
				t.Fatalf("expected exactly one snapshot, got %d", len(snaps))
			}
			raw, err := os.ReadFile(snaps[0].path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(snaps[0].path, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			st2, err := Open(dir, Options{Fsync: FsyncAlways, Logf: testLogf(t)})
			if err != nil {
				t.Fatal(err)
			}
			_, err = st2.Recover(stream.NewSharded(2))
			name := filepath.Base(snaps[0].path)
			if err == nil || !strings.Contains(err.Error(), "lose versions 1..5") ||
				!strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), tc.cause) {
				t.Fatalf("lossy unreadable snapshot must refuse recovery naming %s and %q, got: %v", name, tc.cause, err)
			}
		})
	}
}

// TestJournalFailStopAndSnapshotHeal drives the degraded-mode contract: one
// WAL failure rejects the batch AND every later batch (no version holes in
// the log), a covering snapshot heals the gap, and recovery after the heal
// reproduces the live graph exactly — including the batches that never made
// the WAL.
func TestJournalFailStopAndSnapshotHeal(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	// Tiny segments so the second batch needs a rotation; planting the next
	// segment's filename makes that rotation (O_EXCL create) fail — a
	// deterministic journal fault without touching wal internals.
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways, SegmentBytes: 64})

	if res := g.Append(edgesN(0, 3)); res.Err != nil { // v1, fits segment 1
		t.Fatal(res.Err)
	}
	plant := segPath(walDir, 2)
	if err := os.WriteFile(plant, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if res := g.Append(edgesN(100, 4)); res.Err == nil { // v2: rotation fails
		t.Fatal("journal failure not surfaced")
	}
	st.wg.Wait() // drain the auto-heal snapshot attempt (it fails too)

	if res := g.Append(edgesN(200, 2)); res.Err == nil { // v3: degraded gate
		t.Fatal("append accepted while the WAL has a version hole")
	}
	if st.Stats().WALGapVersion == 0 {
		t.Fatal("degraded state not reported in Stats")
	}

	// Fix the disk; the gate must STILL reject — the hole is not filled by
	// a healthy WAL, only by a covering snapshot.
	if err := os.Remove(plant); err != nil {
		t.Fatal(err)
	}
	if res := g.Append(edgesN(300, 2)); res.Err == nil { // v4
		t.Fatal("append accepted with an unhealed version hole")
	}
	if err := st.Snapshot(); err != nil { // covers v1..v4, heals
		t.Fatal(err)
	}
	if res := g.Append(edgesN(400, 2)); res.Err != nil { // v5: healthy again
		t.Fatalf("append after heal: %v", res.Err)
	}
	if st.Stats().WALGapVersion != 0 {
		t.Fatal("gap did not clear after a covering snapshot")
	}
	// The rejected appends above each kicked a background heal snapshot;
	// drain them before simulating the crash, or a late goroutine races the
	// test teardown (and the recovery comparison below).
	st.wg.Wait()

	// Crash now: recovery = snapshot(v4) + WAL(v5) must equal live exactly.
	live, _ := g.Snapshot()
	_, g2, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	if g2.Version() != g.Version() {
		t.Fatalf("recovered version %d, want %d", g2.Version(), g.Version())
	}
	got, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, live)) {
		t.Fatal("recovery after a healed WAL failure diverged from the live graph")
	}
}

// TestDuplicateOnlyBatchesNotJournaled: replayed WALs must not contain
// batches that added nothing — re-ingesting the same batch twice journals
// once.
func TestDuplicateOnlyBatchesNotJournaled(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	batch := edgesN(0, 10)
	g.Append(batch)
	g.Append(batch) // all duplicates: no version bump, nothing to persist
	if n := st.Stats().AppendedRecords; n != 1 {
		t.Fatalf("journaled %d records, want 1", n)
	}
}

func TestAppendEdgesAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	g.Append([]bipartite.Edge{{U: 1, V: 1}})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if res := g.Append([]bipartite.Edge{{U: 2, V: 2}}); res.Err == nil {
		t.Fatal("append through a closed store must surface a durability error")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"", FsyncAlways, true},
		{"NEVER", FsyncNever, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestConcurrentDurableIngest hammers a store-backed graph from several
// producers with aggressive snapshotting (run with -race), then verifies the
// recovered edge set matches.
func TestConcurrentDurableIngest(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 8, Options{Fsync: FsyncNever, SnapshotBytes: 512, SegmentBytes: 2 << 10})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, b := range randomBatches(seed, 30, 8) {
				if res := g.Append(b); res.Err != nil {
					t.Error(res.Err)
					return
				}
			}
		}(int64(100 + p))
	}
	wg.Wait()
	live, _ := g.Snapshot()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, g2, _ := openDurable(t, dir, 8, Options{Fsync: FsyncNever})
	got, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, got), csrBytes(t, live)) {
		t.Fatal("concurrent durable ingest did not recover to the live graph")
	}
	if g2.Version() != g.Version() {
		t.Fatalf("recovered version %d, want %d", g2.Version(), g.Version())
	}
}

// TestReplayPreservesVersionsAcrossHole: a crash can leave a WAL missing one
// version of a concurrent pair (the torn record was never acknowledged, the
// survivor was). Replay must pin the surviving records to their original
// versions instead of renumbering everything after the hole — acknowledged
// clients hold those version labels.
func TestReplayPreservesVersionsAcrossHole(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	w, _, _, err := openWAL(walDir, 1<<20, true, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	// Version 2's record is missing: its journal write was torn mid-crash.
	if _, err := w.append(walRecord{kind: recEdges, version: 1, edges: edgesN(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(walRecord{kind: recEdges, version: 3, edges: edgesN(100, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	_, g, rec := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	if g.Version() != 3 {
		t.Fatalf("recovered version %d, want the acknowledged label 3", g.Version())
	}
	if rec.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records, want 2", rec.ReplayedRecords)
	}
	// New ingest continues above the preserved labels.
	if res := g.Append([]bipartite.Edge{{U: 900, V: 900}}); res.Version != 4 {
		t.Fatalf("post-recovery append got version %d, want 4", res.Version)
	}
}

// TestTaintedSegmentSealsClean: rotating away from a tainted segment must
// cut its garbage tail first, so a crash that strands the sealed segment on
// disk (before the covering snapshot deletes it) still boots.
func TestTaintedSegmentSealsClean(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 1<<20, true, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(walRecord{kind: recEdges, version: 1, edges: edgesN(0, 2)}); err != nil {
		t.Fatal(err)
	}
	// Simulate a failed record write: partial garbage lands after the good
	// record and the writer marks itself tainted.
	if _, err := w.f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	w.tainted = true
	if err := w.truncateTo(0); err != nil { // rotates the tainted segment
		t.Fatal(err)
	}
	if _, err := w.append(walRecord{kind: recEdges, version: 2, edges: edgesN(10, 2)}); err != nil {
		t.Fatalf("append after tainted rotation: %v", err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	// Both segments are on disk (nothing deleted at watermark 0); the boot
	// scan must find two clean segments, not refuse over sealed garbage.
	_, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t))
	if err != nil {
		t.Fatalf("boot after tainted seal refused: %v", err)
	}
	if torn || len(recs) != 2 || recs[0].version != 1 || recs[1].version != 2 {
		t.Fatalf("boot after tainted seal: torn=%v recs=%+v", torn, recs)
	}
}

// TestDegradedRejectionKicksHeal: while degraded, every rejected append must
// re-attempt the healing snapshot — the size trigger cannot fire when
// appends are rejected, so without this a healthy disk could stay degraded
// until shutdown.
func TestDegradedRejectionKicksHeal(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	if res := g.Append(edgesN(0, 2)); res.Err != nil { // v1
		t.Fatal(res.Err)
	}
	// Simulate an unhealed gap (as if v1's journal write had failed).
	st.walGap.Store(1)

	if res := g.Append(edgesN(100, 2)); res.Err == nil { // v2: rejected, kicks
		t.Fatal("append accepted while degraded")
	}
	st.wg.Wait() // the kicked snapshot cuts at v2 ≥ gap and heals

	// The degraded signal clears with the snapshot itself, not lazily on
	// the next ingest — operators watch this gauge.
	if gap := st.Stats().WALGapVersion; gap != 0 {
		t.Fatalf("gap %d still reported after the healing snapshot landed", gap)
	}
	if res := g.Append(edgesN(200, 2)); res.Err != nil { // v3: healthy again
		t.Fatalf("append after rejection-kicked heal: %v", res.Err)
	}
	if gap := st.Stats().WALGapVersion; gap != 0 {
		t.Fatalf("gap %d survived the kicked heal", gap)
	}
}
