package daemon_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/daemon"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// TestNewRejectsBadConfigBeforeBootWork pins one error per rejected flag
// combination, and that New reports it before creating the data dir or
// contacting a primary.
func TestNewRejectsBadConfigBeforeBootWork(t *testing.T) {
	const primary = "http://127.0.0.1:1"
	for _, tc := range []struct {
		name string
		edit func(*daemon.Config)
		want string
	}{
		{"follow with serve-replication", func(c *daemon.Config) { c.Follow, c.ServeReplication = primary, true },
			"-follow and -serve-replication are mutually exclusive (cascading replication is not supported)"},
		{"follow with a window", func(c *daemon.Config) { c.Follow, c.WindowVersions = primary, 4 },
			"-follow is incompatible with window flags: expiry replicates from the primary as tombstones"},
		{"follow with load", func(c *daemon.Config) { c.Follow, c.Load = primary, "edges.tsv" },
			"-follow is incompatible with -load: a follower's edges come from its primary"},
		{"serve-replication without data-dir", func(c *daemon.Config) { c.ServeReplication, c.DataDir = true, "" },
			"-serve-replication requires -data-dir (the WAL and snapshots are what is shipped)"},
		{"bad fsync", func(c *daemon.Config) { c.Fsync = "sometimes" },
			`persist: unknown fsync policy "sometimes" (want always or never)`},
		{"snapshot-every zero", func(c *daemon.Config) { c.SnapshotEvery = 0 },
			"-snapshot-every must be positive, got 0"},
		{"retire-every zero with a window", func(c *daemon.Config) { c.WindowMaxEdges, c.RetireEvery = 40, 0 },
			"-retire-every must be positive with a window set, got 0s"},
		{"shards out of range", func(c *daemon.Config) { c.Shards = stream.MaxShards + 1 },
			fmt.Sprintf("-shards %d out of range [0,%d]", stream.MaxShards+1, stream.MaxShards)},
		{"max-node-id too large", func(c *daemon.Config) { c.MaxNodeID = bipartite.MaxNodeID + 1 },
			fmt.Sprintf("-max-node-id %d exceeds the id space (max %d)", uint64(bipartite.MaxNodeID)+1, uint64(bipartite.MaxNodeID))},
		{"negative window age", func(c *daemon.Config) { c.WindowAge = -time.Second },
			"-window-age and -window-max-edges must be non-negative"},
		{"negative ingest-queue", func(c *daemon.Config) { c.IngestQueue = -1 },
			"-ingest-queue must be non-negative, got -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			cfg := durable(dir)
			tc.edit(&cfg)
			if _, err := daemon.New(context.Background(), cfg); err == nil || err.Error() != tc.want {
				t.Fatalf("New: %v; want %q", err, tc.want)
			}
			if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("New touched %s before rejecting the config: %v", dir, err)
			}
		})
	}
}

// TestServeFlushesAfterDrainTimeout: a request the drain cannot finish makes
// Serve report the timeout, and the final snapshot is still written, so the
// next boot replays nothing.
func TestServeFlushesAfterDrainTimeout(t *testing.T) {
	dir := t.TempDir()
	cfg := durable(dir)
	cfg.ServeReplication, cfg.Drain = true, time.Millisecond
	d := daemon.Run(t, cfg)
	post(t, d.URL+"/v1/edges", batch(0, 7))
	post(t, d.URL+"/v1/edges", batch(1, 7))
	version := stats(t, d.URL).Graph.Version

	tailed := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/repl/tail?from=%d&wait=5000", d.URL, version))
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		tailed <- err
	}()
	waitFor(t, "the tail request to park", func() bool { return stats(t, d.URL).Repl.TailRequests > 0 })
	if err := d.Stop(); err == nil {
		t.Fatal("Serve returned nil although the drain timed out")
	}
	<-tailed // cut by the shutdown, whichever way it ends

	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, err := st.Recover(stream.New())
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotVersion != version || rec.ReplayedRecords != 0 {
		t.Fatalf("reopened dir: %+v; want snapshot version %d and nothing replayed", rec, version)
	}
}
