package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// TestWindowedCrashRecoveryByteIdentical is the windowed acceptance pin: a
// run that interleaves durable appends with retire passes (tombstones in the
// WAL) and then crashes must recover — into any shard count — to the same
// version, the same window watermark, a byte-identical CSR and
// byte-identical votes. In particular no expired edge may resurrect.
func TestWindowedCrashRecoveryByteIdentical(t *testing.T) {
	batches := randomBatches(41, 14, 30)
	dir := t.TempDir()

	st, g, _ := openDurable(t, dir, 4, Options{Fsync: FsyncAlways})
	g.SetWindow(stream.WindowPolicy{MaxVersions: 5})
	for i, b := range batches {
		if res := g.Append(b); res.Err != nil {
			t.Fatalf("batch %d: %v", i, res.Err)
		}
		if i%3 == 2 {
			if res := g.Retire(time.Now()); res.Err != nil {
				t.Fatalf("retire %d: %v", i, res.Err)
			}
		}
		if i == 7 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g.WindowStats().RetiredEdges == 0 {
		t.Fatal("test setup never retired anything")
	}
	liveSnap, _ := g.Snapshot()
	// Pick a genuinely expired edge — in an early batch, absent live — to
	// probe for resurrection and post-recovery re-ingest.
	var retired bipartite.Edge
	haveRetired := false
	for _, e := range batches[0] {
		if !liveSnap.HasEdge(e.U, e.V) {
			retired, haveRetired = e, true
			break
		}
	}
	if !haveRetired {
		t.Fatal("no expired edge found to probe")
	}
	liveVersion := g.Version()
	liveMark := g.WindowStats().Mark
	liveVotes := votes(t, liveSnap)
	// Crash: no Close, no final snapshot. Recover each shard count from a
	// pristine copy of the crashed directory.

	for _, shards := range []int{1, 4, 16} {
		cp := t.TempDir()
		copyTree(t, dir, cp)
		st2, g2, rec := openDurable(t, cp, shards, Options{Fsync: FsyncAlways})
		if g2.Version() != liveVersion {
			t.Fatalf("shards=%d: recovered version %d, want %d", shards, g2.Version(), liveVersion)
		}
		if rec.ReplayedTombstones == 0 {
			t.Fatalf("shards=%d: recovery replayed no tombstones: %+v", shards, rec)
		}
		if got := g2.WindowStats().Mark; got != liveMark {
			t.Fatalf("shards=%d: recovered watermark %+v, want %+v", shards, got, liveMark)
		}
		gotSnap, _ := g2.Snapshot()
		if gotSnap.HasEdge(retired.U, retired.V) {
			t.Fatalf("shards=%d: recovery resurrected expired edge %v", shards, retired)
		}
		if !bytes.Equal(csrBytes(t, gotSnap), csrBytes(t, liveSnap)) {
			t.Fatalf("shards=%d: recovered CSR not byte-identical to the crashed run", shards)
		}
		if !reflect.DeepEqual(votes(t, gotSnap), liveVotes) {
			t.Fatalf("shards=%d: recovered votes differ", shards)
		}
		// A retired edge must be re-ingestable after recovery too.
		if res := g2.Append([]bipartite.Edge{retired}); res.Added != 1 || res.Err != nil {
			t.Fatalf("shards=%d: re-ingest of expired edge after recovery: %+v", shards, res)
		}
		st2.Close()
	}
}

// copyTree duplicates a data directory for repeated recovery experiments.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenRetireJournalAndSnapshot is the satellite regression for
// the retire/commit interaction: a tombstone lands in the WAL, the process
// dies before any snapshot covers it, and recovery must replay the
// retirement (pinned to its original version by AdvanceVersionTo) rather
// than resurrect the edges. The second phase checks the opposite ordering:
// once a snapshot covers the tombstone, replay skips it.
func TestCrashBetweenRetireJournalAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	_, g, _ := openDurable(t, dir, 4, Options{Fsync: FsyncAlways})
	g.SetWindow(stream.WindowPolicy{MaxVersions: 1})

	g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 1, V: 1}}) // v1
	g.Append([]bipartite.Edge{{U: 2, V: 2}})               // v2
	res := g.Retire(time.Now())                            // v3: tombstone for v1's edges
	if res.Removed != 2 || res.Err != nil {
		t.Fatalf("retire: %+v", res)
	}
	liveVer := g.Version()
	liveSnap, _ := g.Snapshot()
	// Crash with no snapshot at all: the WAL alone carries appends + tombstone.

	cp := t.TempDir()
	copyTree(t, dir, cp)
	st2, g2, rec := openDurable(t, cp, 4, Options{Fsync: FsyncAlways})
	if rec.SnapshotVersion != 0 || rec.ReplayedTombstones != 1 {
		t.Fatalf("WAL-only windowed recovery: %+v", rec)
	}
	if g2.Version() != liveVer {
		t.Fatalf("version %d, want %d (tombstone replay must pin its version)", g2.Version(), liveVer)
	}
	gotSnap, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, gotSnap), csrBytes(t, liveSnap)) {
		t.Fatal("recovered CSR diverged")
	}
	if gotSnap.HasEdge(0, 0) || gotSnap.HasEdge(1, 1) {
		t.Fatal("crash between retire-journal and snapshot resurrected retired edges")
	}

	// Phase 2: snapshot now covers the tombstone; a reboot must skip it.
	if err := st2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	g2.Append([]bipartite.Edge{{U: 7, V: 7}})
	liveVer2 := g2.Version()
	liveSnap2, _ := g2.Snapshot()

	cp2 := t.TempDir()
	copyTree(t, cp, cp2)
	_, g3, rec3 := openDurable(t, cp2, 4, Options{Fsync: FsyncAlways})
	if rec3.ReplayedTombstones != 0 {
		t.Fatalf("covered tombstone was replayed: %+v", rec3)
	}
	if g3.Version() != liveVer2 {
		t.Fatalf("version %d, want %d", g3.Version(), liveVer2)
	}
	got3, _ := g3.Snapshot()
	if !bytes.Equal(csrBytes(t, got3), csrBytes(t, liveSnap2)) {
		t.Fatal("post-snapshot recovery diverged")
	}
}

// TestSnapshotPersistsWindowMark pins the snapshot-side watermark: a durable
// snapshot written after retirement carries the mark, and recovery adopts it.
func TestSnapshotPersistsWindowMark(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	g.SetWindow(stream.WindowPolicy{MaxVersions: 2})
	for i := 0; i < 6; i++ {
		g.Append([]bipartite.Edge{{U: uint32(i), V: uint32(i)}})
	}
	if res := g.Retire(time.Now()); res.Removed == 0 || res.Err != nil {
		t.Fatalf("retire: %+v", res)
	}
	wantMark := g.WindowStats().Mark
	if wantMark.Version == 0 {
		t.Fatal("setup: zero watermark")
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, g2, rec := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	if rec.WindowMark != wantMark {
		t.Fatalf("recovered mark %+v, want %+v", rec.WindowMark, wantMark)
	}
	if got := g2.WindowStats().Mark; got != wantMark {
		t.Fatalf("graph mark %+v, want %+v", got, wantMark)
	}
}

// TestWALCompactionDropsCoveredRecords pins the log-compaction satellite: a
// sealed segment straddling the snapshot watermark is rewritten without the
// covered records — instead of surviving whole — and the rewrite still
// replays the uncovered tail.
func TestWALCompactionDropsCoveredRecords(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		w, _, _, err := openWAL(dir, 1<<20, true, testLogf(t))
		if err != nil {
			t.Fatal(err)
		}
		for v := uint64(1); v <= 5; v++ {
			if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 4)}); err != nil {
				t.Fatal(err)
			}
		}
		// One segment holds 1..5; truncating to 3 seals it and must compact
		// it down to records 4 and 5.
		preBytes := fileSize(t, segPath(dir, 1))
		if err := w.truncateTo(3); err != nil {
			t.Fatal(err)
		}
		_, _, _, _, compactions, reclaimed := w.counters()
		if compactions != 1 || reclaimed == 0 {
			t.Fatalf("compactions=%d reclaimed=%d, want one compaction reclaiming bytes", compactions, reclaimed)
		}
		if post := fileSize(t, segPath(dir, 1)); post >= preBytes {
			t.Fatalf("segment did not shrink: %d -> %d bytes", preBytes, post)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		_, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t))
		if err != nil || torn {
			t.Fatalf("reopen after compaction: torn=%v err=%v", torn, err)
		}
		got := map[uint64]int{}
		for _, r := range recs {
			got[r.version] = len(r.edges)
		}
		if len(got) != 2 || got[4] != 4 || got[5] != 4 {
			t.Fatalf("post-compaction records = %v, want versions 4 and 5 intact", got)
		}
	})
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRetireJournalFailureDegradesStore pins the retire half of the
// fail-stop contract: a tombstone that cannot reach the WAL degrades the
// store exactly like a failed append — later batches are rejected — and a
// covering snapshot (which includes the unjournaled retirement, because it
// captures the in-memory graph) heals it.
func TestRetireJournalFailureDegradesStore(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	g.SetWindow(stream.WindowPolicy{MaxVersions: 1})
	g.Append([]bipartite.Edge{{U: 0, V: 0}})
	g.Append([]bipartite.Edge{{U: 1, V: 1}})

	// Make the WAL fail by removing write permission on the active segment's
	// file descriptor path — simpler: close the wal's file via store Close
	// is too blunt. Instead, taint by swapping the active segment file for a
	// directory is fragile; use the internal taint directly.
	st.wal.mu.Lock()
	st.wal.tainted = true
	st.wal.mu.Unlock()

	res := g.Retire(time.Now())
	if res.Err == nil || res.Removed == 0 {
		t.Fatalf("retire with tainted WAL: %+v, want an error and an in-memory removal", res)
	}
	// The store is degraded: the next append is rejected.
	if res2 := g.Append([]bipartite.Edge{{U: 5, V: 5}}); res2.Err == nil {
		t.Fatalf("append after failed retire-journal: %+v, want rejection", res2)
	}
	// Wait for the self-heal snapshot the failure kicked (it captures the
	// retired state), then appends must flow again. Each probe uses a fresh
	// edge: a rejected probe still lands in memory, so retrying the same
	// edge would dedup to an empty batch that never reaches the journal and
	// "succeeds" with the gap still open.
	deadline := time.Now().Add(5 * time.Second)
	for i := uint32(6); ; i++ {
		if res3 := g.Append([]bipartite.Edge{{U: i, V: i}}); res3.Err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never healed after retire-journal failure")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Stats().WALGapVersion != 0 {
		t.Fatalf("gap still open after heal: %+v", st.Stats())
	}
}
