// Package daemon is the ensemfdetd service as a value: New boots it from a
// Config and Serve runs it until its context ends. cmd/ensemfdetd is flag
// parsing and signals around these two calls; the tests drive the same
// values in-process.
//
// New validates the config before touching the disk or the network, then
// boots in this order: the sharded stream graph and its window policy; with
// a data dir, a follower's bootstrap download (only when the dir holds no
// usable state), recovery from snapshot + WAL, and the store installed as
// the graph's journal (primaries only: a follower journals the primary's
// records at their own versions) and snapshot source; the detect engine;
// the replication role (primary, durable failover-capable follower, or
// memory-only follower); the -load ingest; and finally the listener.
//
// Serve runs the HTTP API, the window retire ticker and the memory-only
// follower's tailer. When its context ends it drains in-flight requests for
// up to Drain (cutting whatever is left when the drain times out), joins the
// retire ticker, the tailer and the failover node so their last records land
// first, and then flushes a final snapshot and closes the WAL, so a clean
// reboot replays nothing. If the listener fails instead, Serve stops the
// background goroutines and returns without draining or flushing, as the
// process exit that follows always has; under -fsync always the WAL already
// holds every acknowledged batch.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/replicate"
	"ensemfdet/internal/serve"
	"ensemfdet/internal/stream"
)

// Daemon is one booted ensemfdetd: graph, store, engine, replication role
// and a bound listener.
type Daemon struct {
	cfg      Config
	graph    *stream.Graph
	store    *persist.Store // nil when memory-only
	engine   *serve.Engine
	follower *replicate.Follower // memory-only follower: plain tailer
	node     *replicate.Node     // durable follower: failover-capable
	ln       net.Listener
	srv      *http.Server
}

// New validates cfg, boots the daemon and binds its listener; ctx bounds
// the boot (a follower's bootstrap download). A failed boot leaves the
// data dir as a killed process would.
func New(ctx context.Context, cfg Config) (_ *Daemon, err error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, graph: stream.NewSharded(cfg.Shards)}
	defer func() {
		if err != nil && d.node != nil {
			d.node.Close()
		}
	}()
	log.Printf("ingest sharding: %d shards", d.graph.NumShards())
	if w := cfg.window(); w.Enabled() {
		// Install the policy before recovery: recovery replays explicit
		// tombstones and never re-evaluates the policy, so this only arms
		// the post-boot retire ticker.
		d.graph.SetWindow(w)
		log.Printf("window: age=%v versions=%d max-edges=%d (retire every %v)",
			cfg.WindowAge, cfg.WindowVersions, cfg.WindowMaxEdges, cfg.RetireEvery)
	}
	if cfg.DataDir != "" {
		if err := d.openStore(ctx); err != nil {
			return nil, err
		}
	}
	d.engine = serve.NewEngine(d.graph, serve.Options{
		MaxConcurrent:            cfg.MaxConcurrent,
		MaxCacheEntries:          cfg.CacheSize,
		MaxNodeID:                uint32(cfg.MaxNodeID),
		IncrementalMaxDeltaRatio: cfg.IncrementalMaxDelta,
		IngestQueue:              cfg.IngestQueue,
	})
	if d.store != nil {
		d.engine.AttachPersist(d.store)
	}
	hcfg, err := d.wireReplication(ctx)
	if err != nil {
		return nil, err
	}
	if cfg.Load != "" {
		if err := loadEdges(d.engine, cfg.Load); err != nil {
			return nil, err
		}
	}
	if d.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, err
	}
	d.srv = &http.Server{
		Handler: logRequests(serve.NewHandlerWith(d.engine, hcfg)),
		// ReadTimeout bounds the whole request read so a client trickling
		// a body cannot pin a goroutine forever; it does not limit handler
		// execution, so long cold detections are unaffected (WriteTimeout
		// stays off for the same reason).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return d, nil
}

// openStore bootstraps a follower's empty data dir from its primary, then
// recovers the dir into the graph and wires the store to it.
func (d *Daemon) openStore(ctx context.Context) error {
	cfg := d.cfg
	if cfg.Follow != "" && replicate.NeedsBootstrap(cfg.DataDir) {
		// No usable local state: ship the primary's snapshot + WAL into the
		// data dir so the normal recovery below reproduces the primary's
		// durable state version-exactly.
		log.Printf("bootstrapping %s from %s", cfg.DataDir, cfg.Follow)
		if err := replicate.DownloadInto(ctx, nil, cfg.Follow, cfg.DataDir, log.Printf); err != nil {
			return err
		}
	}
	policy, _ := persist.ParseFsyncPolicy(cfg.Fsync) // validate accepted it
	// Recover before installing the journal, so replayed batches are not
	// re-appended to the log they came from.
	store, err := persist.Open(cfg.DataDir, persist.Options{Fsync: policy, SnapshotBytes: cfg.SnapshotEvery})
	if err != nil {
		return err
	}
	rec, err := store.Recover(d.graph)
	if err != nil {
		return fmt.Errorf("recovering %s: %w", cfg.DataDir, err)
	}
	log.Printf("recovered %s: snapshot version %d (%d edges), replayed %d WAL records (%d edges) → graph version %d (fsync=%s)",
		cfg.DataDir, rec.SnapshotVersion, rec.SnapshotEdges, rec.ReplayedRecords, rec.ReplayedEdges, rec.Version, policy)
	if cfg.Follow == "" {
		// A follower journals replicated records itself at their explicit
		// primary versions; the graph-side journal hook would re-stamp them
		// with local versions.
		d.graph.SetJournal(store)
	}
	store.SetSource(d.graph)
	d.store = store
	return nil
}

// wireReplication gives the daemon its replication role and returns the
// HTTP surface that role serves.
func (d *Daemon) wireReplication(ctx context.Context) (serve.HandlerConfig, error) {
	cfg := d.cfg
	hcfg := serve.HandlerConfig{Version: Version()}
	switch {
	case cfg.Follow != "" && d.store != nil:
		// A durable follower runs under the failover node so it can be
		// promoted to primary (POST /v1/admin/promote) or re-pointed at a new
		// one (POST /v1/admin/follow) without a restart. The read-only guard,
		// readiness, and the replication surface all track the live role.
		node, err := replicate.NewNode(replicate.NodeConfig{
			Store:      d.store,
			Graph:      d.graph,
			MaxLag:     cfg.MaxReadyLag,
			FlushCache: d.engine.FlushCache,
		})
		if err != nil {
			return hcfg, err
		}
		d.node = node
		if epoch, _, owned := d.store.Epoch(); owned && epoch > 0 {
			// A promoted primary that crashed and was restarted with its old
			// -follow flag: the fence fsync made the promotion durable, so the
			// node resumes the role it won rather than re-bootstrapping against
			// a primary it already deposed.
			log.Printf("store owns epoch %d: resuming as primary (ignoring -follow %s)", epoch, cfg.Follow)
			if err := node.BecomePrimary(); err != nil {
				return hcfg, err
			}
		} else if err := node.Follow(ctx, cfg.Follow); err != nil {
			return hcfg, err
		}
		hcfg.ReadOnlyFn = func() bool { return node.Role() != "primary" }
		hcfg.PrimaryURLFn = node.PrimaryURL
		hcfg.Ready = node.Ready
		hcfg.Repl = node.ReplHandler()
		hcfg.Admin = node.AdminHandler()
		d.engine.AttachRepl(nodeReplStats(node))
	case cfg.Follow != "":
		// Memory-only follower: nothing durable to fence, so no failover
		// surface — just the tailer, seeded from the primary's snapshot.
		follower, err := replicate.NewFollower(replicate.FollowerConfig{
			Primary:    cfg.Follow,
			Graph:      d.graph,
			FlushCache: d.engine.FlushCache,
		})
		if err != nil {
			return hcfg, err
		}
		if err := follower.Bootstrap(ctx); err != nil {
			return hcfg, fmt.Errorf("bootstrapping from %s: %w", cfg.Follow, err)
		}
		d.follower = follower
		log.Printf("following %s from version %d", cfg.Follow, d.graph.Version())
		hcfg.ReadOnly = true
		hcfg.PrimaryURL = cfg.Follow
		hcfg.Ready = func() (bool, string) { return follower.Ready(cfg.MaxReadyLag) }
		d.engine.AttachRepl(func() *serve.ReplStats {
			ready, _ := follower.Ready(cfg.MaxReadyLag)
			rs := &serve.ReplStats{Role: "follower", Ready: ready}
			followerStats(rs, follower)
			return rs
		})
	case cfg.ServeReplication:
		if epoch, _, owned := d.store.Epoch(); !owned {
			// The data dir says a higher term exists: this process was deposed
			// (or cloned from a deposed primary). It still serves reads and
			// replication, but every ingest will be refused with 409 — make
			// the operator's next step unmissable.
			log.Printf("WARNING: store is FENCED at epoch %d — a newer primary owns this timeline; "+
				"ingest is rejected. Restart with -follow <new-primary> to rejoin.", epoch)
		}
		primary := replicate.NewPrimary(replicate.PrimaryConfig{Store: d.store, Version: d.graph.Version})
		hcfg.Repl = primary.Handler()
		d.engine.AttachRepl(func() *serve.ReplStats {
			epoch, _, owned := d.store.Epoch()
			rs := &serve.ReplStats{Role: "primary", Ready: true, Epoch: epoch, Fenced: !owned}
			primaryStats(rs, primary)
			return rs
		})
		log.Printf("serving replication under /v1/repl/")
	}
	return hcfg, nil
}

// Addr returns the bound listen address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Serve serves until ctx ends, then drains, joins the background goroutines
// and flushes (see the package doc). It always flushes, even after a drain
// timeout, and returns the drain's and the flush's errors joined.
func (d *Daemon) Serve(ctx context.Context) error {
	bg, stop := context.WithCancel(ctx)
	defer stop()
	var wg sync.WaitGroup
	if d.follower != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.follower.Run(bg)
		}()
	}
	if d.graph.Window().Enabled() {
		// The retire ticker enforces the age bounds (the engine itself kicks
		// an extra pass when ingest blows through a count bound). A journal
		// failure inside a pass degrades the store exactly like a failed
		// append — log it; the next covering snapshot heals it. Shutdown joins
		// an in-flight pass before closing the store: a retirement that
		// commits after the final snapshot cut with its tombstone refused by a
		// closed WAL would resurrect the expired edges on the next boot.
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(d.cfg.RetireEvery)
			defer t.Stop()
			for {
				select {
				case <-bg.Done():
					return
				case <-t.C:
					if res, ok := d.engine.RetireNow(); ok && res.Err != nil {
						log.Printf("retire pass at version %d: %v", res.Version, res.Err)
					}
				}
			}
		}()
	}
	pprofSrv := d.startPprof(&wg)

	served := make(chan error, 1)
	go func() {
		log.Printf("ensemfdetd listening on %s", d.Addr())
		served <- d.srv.Serve(d.ln)
	}()
	// join stops and waits for everything but the API server (the profiler
	// must be shut down first); the failover node owns its tail goroutine,
	// and Close cancels and joins it.
	join := func() {
		stop()
		wg.Wait()
		if d.node != nil {
			d.node.Close()
		}
	}

	select {
	case err := <-served:
		if pprofSrv != nil {
			_ = pprofSrv.Close() // diagnostics only
		}
		join()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", d.cfg.Drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), d.cfg.Drain)
	defer cancel()
	var errs []error
	if err := d.srv.Shutdown(shutdownCtx); err != nil {
		// Cut the connections the drain could not finish so their handlers
		// see their requests end; the flush below happens either way.
		_ = d.srv.Close() // can only report the listener Shutdown already closed
		errs = append(errs, fmt.Errorf("shutdown: %w", err))
	}
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(shutdownCtx) // best effort; a hung profile stream must not block the drain
	}
	// An in-flight retire pass or replicated apply must land its record
	// before the WAL closes; then flush a final snapshot and close the WAL.
	join()
	if err := d.engine.Close(); err != nil {
		errs = append(errs, fmt.Errorf("flushing persistence: %w", err))
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// startPprof serves net/http/pprof on -pprof-addr, if set. The profiler gets
// its own listener and mux so it is never reachable through the public API
// address (which may be exposed) and a stuck profile stream cannot tie up an
// API connection slot. Registering the handlers on a private mux — rather
// than importing for the DefaultServeMux side effect — keeps the public mux
// clean even if some future dependency serves DefaultServeMux. wg covers
// the serving goroutine, which returns once the server is shut down.
func (d *Daemon) startPprof(wg *sync.WaitGroup) *http.Server {
	if d.cfg.PprofAddr == "" {
		return nil
	}
	pmux := http.NewServeMux()
	pmux.HandleFunc("/debug/pprof/", pprof.Index)
	pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: d.cfg.PprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
	wg.Add(1)
	go func() {
		defer wg.Done()
		log.Printf("pprof listening on %s", d.cfg.PprofAddr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			// Diagnostics must never take the daemon down; the API keeps
			// serving without the profiler.
			log.Printf("pprof server: %v", err)
		}
	}()
	return srv
}

// loadEdges performs the startup ingest. It honours the same id bound as
// /v1/edges, enforced while parsing: a stray huge id would otherwise commit
// the reader itself to O(max_id) allocations. Raw edges go straight into
// the stream graph — it dedups and builds the CSR on first snapshot, so no
// throwaway graph is constructed here. Only id-bound failures carry the
// -max-node-id hint; a missing or malformed file is its own problem, and
// suggesting a bigger id budget for it would send the operator the wrong way.
func loadEdges(engine *serve.Engine, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	edges, err := bipartite.ReadEdgesMax(f, engine.MaxNodeID())
	f.Close() // read-only; the parse error is the one that matters
	if err == nil {
		r, ierr := engine.Ingest(edges)
		if ierr == nil {
			log.Printf("loaded %s: %d edges added, %d duplicates (version %d)", path, r.Added, r.Duplicates, r.Version)
			return nil
		}
		err = ierr
	}
	if errors.Is(err, bipartite.ErrIDRange) {
		return fmt.Errorf("%w (see -max-node-id)", err)
	}
	return err
}

// nodeReplStats adapts the failover node's role-dependent counters to the
// /v1/stats and /metrics shape. Promotions survive the role flip: the stats
// of the follower half are reported while tailing, the primary half's after
// a promote, and the epoch and promotion count in both.
func nodeReplStats(node *replicate.Node) func() *serve.ReplStats {
	return func() *serve.ReplStats {
		ready, _ := node.Ready()
		rs := &serve.ReplStats{
			Role:       node.Role(),
			Epoch:      node.Epoch(),
			Promotions: node.Promotions(),
			Ready:      ready,
		}
		if p := node.Primary(); p != nil {
			primaryStats(rs, p)
		} else if f := node.Follower(); f != nil {
			followerStats(rs, f)
		}
		return rs
	}
}

// primaryStats copies a shipping half's counters into rs.
func primaryStats(rs *serve.ReplStats, p *replicate.Primary) {
	ps := p.Stats()
	rs.BytesShipped = ps.TailBytes + ps.FileBytes
	rs.TailRequests = ps.TailRequests
	rs.TailRecords = ps.TailRecords
	rs.FilesShipped = ps.FilesShipped
	rs.EpochFences = ps.EpochFences
}

// followerStats copies a tailing half's counters into rs.
func followerStats(rs *serve.ReplStats, f *replicate.Follower) {
	fs := f.Stats()
	rs.Epoch = fs.Epoch
	rs.Primary = fs.Primary
	rs.PrimaryVersion = fs.PrimaryVersion
	rs.AppliedVersion = fs.AppliedVersion
	rs.VersionsBehind = fs.VersionsBehind
	rs.SecondsBehind = fs.SecondsBehind
	rs.RecordsApplied = fs.RecordsApplied
	rs.TombstonesApplied = fs.TombstonesApplied
	rs.Resyncs = fs.Resyncs
	rs.Reconnects = fs.Reconnects
	rs.JournalErrors = fs.JournalErrors
	rs.BytesShipped = fs.BytesShipped
	rs.EpochAdopts = fs.EpochAdopts
	rs.EpochResyncs = fs.EpochResyncs
	rs.EpochRejects = fs.EpochRejects
	rs.BackoffSeconds = fs.BackoffSeconds
}

// logRequests is a minimal access log; the daemon has no other middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %v", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
