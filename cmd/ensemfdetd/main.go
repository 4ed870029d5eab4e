// Command ensemfdetd is the ENSEMFDET streaming detection daemon: a
// long-running HTTP service that ingests purchase edges incrementally and
// answers fraud-detection queries from cached ensemble votes.
//
// Usage:
//
//	ensemfdetd [-addr :8080] [-load transactions.tsv] [-shards 0] [-max-concurrent 2] [-cache-size 32]
//	           [-ingest-queue 256] [-pprof-addr ""]
//	           [-data-dir /var/lib/ensemfdetd] [-fsync always] [-snapshot-every 16777216]
//	           [-window-age 720h] [-window-versions 0] [-window-max-edges 0] [-retire-every 1s]
//	           [-serve-replication] [-follow http://primary:8080] [-max-ready-lag 8] [-version]
//
// The API (JSON unless noted):
//
//	POST /v1/edges   {"edges": [[u,v], ...]}            batched ingest
//	POST /v1/detect  {"t":40,"n":80,"s":0.1,            run/serve a detection
//	                  "sampler":"RES","seed":1}
//	GET  /v1/votes   ?n=&s=&sampler=&seed=&min=&top=    ranked vote counts
//	GET  /v1/stats                                      graph + cache + shard + build + persist + repl counters
//	GET  /metrics                                       the same, Prometheus text format
//	GET  /healthz                                       liveness
//	GET  /readyz                                        readiness (recovery done; follower lag within bound)
//	GET  /v1/repl/...                                   WAL shipping (only with -serve-replication)
//	POST /v1/admin/promote                              promote this follower to primary (durable followers)
//	POST /v1/admin/follow    {"primary": url}           re-point this follower at a new primary
//
// -cache-size counts configs (sampler, N, S, seed), not graph versions: each
// cached config keeps one vote set, its newest, plus that run's output as the
// base the next version's detect resumes from.
//
// Package ensemfdet/internal/daemon holds the service itself: the boot
// order, the replication roles, and the shutdown that drains for up to
// -drain on SIGINT/SIGTERM and then flushes a final snapshot. README
// describes durability, windowing, replication and failover.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ensemfdet/internal/daemon"
)

func main() {
	cfg := daemon.DefaultConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.StringVar(&cfg.Load, "load", cfg.Load, "optional edge-list file to ingest at startup")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "ingest shard count, rounded up to a power of two (0 = near GOMAXPROCS)")
	flag.IntVar(&cfg.MaxConcurrent, "max-concurrent", cfg.MaxConcurrent, "maximum concurrent ensemble runs")
	flag.IntVar(&cfg.CacheSize, "cache-size", cfg.CacheSize, "maximum cached configs, least recently used evicted first; each keeps its newest vote set (6 bytes per voted node) plus its run's output as the incremental base: about 3.7 MB a config on a 181K-node graph at N=80")
	flag.Float64Var(&cfg.IncrementalMaxDelta, "incremental-max-delta", cfg.IncrementalMaxDelta, "run detection incrementally when the ingest delta is at most this fraction of the graph's edges (negative = always cold)")
	flag.UintVar(&cfg.MaxNodeID, "max-node-id", cfg.MaxNodeID, "largest accepted node id (0 = default 2^26)")
	flag.IntVar(&cfg.IngestQueue, "ingest-queue", cfg.IngestQueue, "ingest admission queue: in-flight batches past this are shed with 429 (0 = unbounded)")
	flag.StringVar(&cfg.PprofAddr, "pprof-addr", cfg.PprofAddr, "serve net/http/pprof on this address (empty = off)")
	flag.DurationVar(&cfg.Drain, "drain", cfg.Drain, "graceful-shutdown drain timeout")
	flag.StringVar(&cfg.DataDir, "data-dir", cfg.DataDir, "durability directory (WAL + snapshots); empty = memory-only")
	flag.StringVar(&cfg.Fsync, "fsync", cfg.Fsync, "WAL flush policy: always (ack after fsync) or never (OS page cache)")
	flag.Int64Var(&cfg.SnapshotEvery, "snapshot-every", cfg.SnapshotEvery, "WAL growth in bytes that triggers a background snapshot")
	flag.DurationVar(&cfg.WindowAge, "window-age", cfg.WindowAge, "retire edges older than this wall-clock age (0 = unbounded)")
	flag.Uint64Var(&cfg.WindowVersions, "window-versions", cfg.WindowVersions, "keep only the newest N ingest versions of edges (0 = unbounded)")
	flag.IntVar(&cfg.WindowMaxEdges, "window-max-edges", cfg.WindowMaxEdges, "cap live edges, retiring oldest ones past it (0 = unbounded)")
	flag.DurationVar(&cfg.RetireEvery, "retire-every", cfg.RetireEvery, "period of the window retire pass (only with a window flag set)")
	flag.BoolVar(&cfg.ServeReplication, "serve-replication", cfg.ServeReplication, "serve the WAL-shipping endpoints under /v1/repl/ (requires -data-dir)")
	flag.StringVar(&cfg.Follow, "follow", cfg.Follow, "run as a read-only follower of this primary URL")
	flag.Uint64Var(&cfg.MaxReadyLag, "max-ready-lag", cfg.MaxReadyLag, "follower /readyz fails while more than this many versions behind the primary")
	showVer := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVer {
		fmt.Println("ensemfdetd", daemon.Version())
		return
	}

	// The signal context exists before any boot work so a SIGINT aborts even
	// a long follower bootstrap download.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	d, err := daemon.New(ctx, cfg)
	if err == nil {
		err = d.Serve(ctx)
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetd:", err)
		os.Exit(1)
	}
}
