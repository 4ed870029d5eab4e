package daemon

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// Config holds one field per ensemfdetd flag (the flag's name in
// parentheses); validation errors name the flag. DefaultConfig returns the
// flag defaults.
type Config struct {
	Addr                string        // -addr: listen address
	Load                string        // -load: edge-list file ingested at startup
	Shards              int           // -shards: ingest shard count (0 = near GOMAXPROCS)
	MaxConcurrent       int           // -max-concurrent: concurrent ensemble runs
	CacheSize           int           // -cache-size: cached configs, one vote set + incremental base each (LRU)
	IncrementalMaxDelta float64       // -incremental-max-delta: incremental when delta/|E| <= this (negative = always cold)
	MaxNodeID           uint          // -max-node-id: largest accepted node id (0 = 2^26)
	IngestQueue         int           // -ingest-queue: in-flight ingest batches before 429 (0 = unbounded)
	PprofAddr           string        // -pprof-addr: net/http/pprof listener (empty = off)
	Drain               time.Duration // -drain: graceful-shutdown drain timeout
	DataDir             string        // -data-dir: WAL + snapshot directory (empty = memory-only)
	Fsync               string        // -fsync: "always" or "never"
	SnapshotEvery       int64         // -snapshot-every: WAL growth in bytes that triggers a snapshot
	WindowAge           time.Duration // -window-age: retire edges older than this (0 = unbounded)
	WindowVersions      uint64        // -window-versions: keep the newest N ingest versions (0 = unbounded)
	WindowMaxEdges      int           // -window-max-edges: live edge cap (0 = unbounded)
	RetireEvery         time.Duration // -retire-every: window retire period
	ServeReplication    bool          // -serve-replication: serve /v1/repl/ (requires DataDir)
	Follow              string        // -follow: primary URL to follow read-only
	MaxReadyLag         uint64        // -max-ready-lag: follower /readyz lag bound in versions
}

// DefaultConfig returns the flag defaults.
func DefaultConfig() Config {
	return Config{
		Addr:                ":8080",
		MaxConcurrent:       2,
		CacheSize:           32,
		IncrementalMaxDelta: 0.25,
		IngestQueue:         256,
		Drain:               10 * time.Second,
		Fsync:               "always",
		SnapshotEvery:       16 << 20,
		RetireEvery:         time.Second,
		MaxReadyLag:         8,
	}
}

func (c Config) window() stream.WindowPolicy {
	return stream.WindowPolicy{MaxAge: c.WindowAge, MaxVersions: c.WindowVersions, MaxEdges: c.WindowMaxEdges}
}

// validate rejects every bad flag combination. New runs it before touching
// the disk or the network, so a typo never costs a recovery or a bootstrap
// download.
func (c Config) validate() error {
	if c.MaxNodeID > bipartite.MaxNodeID {
		return fmt.Errorf("-max-node-id %d exceeds the id space (max %d)", c.MaxNodeID, uint64(bipartite.MaxNodeID))
	}
	if c.Shards < 0 || c.Shards > stream.MaxShards {
		return fmt.Errorf("-shards %d out of range [0,%d]", c.Shards, stream.MaxShards)
	}
	if _, err := persist.ParseFsyncPolicy(c.Fsync); err != nil {
		return err
	}
	if c.SnapshotEvery <= 0 {
		return fmt.Errorf("-snapshot-every must be positive, got %d", c.SnapshotEvery)
	}
	if c.WindowAge < 0 || c.WindowMaxEdges < 0 {
		return fmt.Errorf("-window-age and -window-max-edges must be non-negative")
	}
	if c.window().Enabled() && c.RetireEvery <= 0 {
		return fmt.Errorf("-retire-every must be positive with a window set, got %v", c.RetireEvery)
	}
	if c.ServeReplication && c.DataDir == "" {
		return errors.New("-serve-replication requires -data-dir (the WAL and snapshots are what is shipped)")
	}
	if c.Follow != "" {
		// A follower's state is the primary's replicated history — flags that
		// would mutate it locally are wiring mistakes, not configurations.
		if c.ServeReplication {
			return errors.New("-follow and -serve-replication are mutually exclusive (cascading replication is not supported)")
		}
		if c.window().Enabled() {
			return errors.New("-follow is incompatible with window flags: expiry replicates from the primary as tombstones")
		}
		if c.Load != "" {
			return errors.New("-follow is incompatible with -load: a follower's edges come from its primary")
		}
	}
	if c.IngestQueue < 0 {
		return fmt.Errorf("-ingest-queue must be non-negative, got %d", c.IngestQueue)
	}
	return nil
}

// buildVersion is stamped at link time via
// -ldflags "-X ensemfdet/internal/daemon.buildVersion=v1.2.3"; an unstamped
// module-aware build falls back to the version embedded by the Go toolchain.
var buildVersion = "dev"

// Version reports the build version (ensemfdetd -version, and the
// ensemfdetd_build_info metric).
func Version() string {
	if buildVersion != "dev" {
		return buildVersion
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return buildVersion
}
