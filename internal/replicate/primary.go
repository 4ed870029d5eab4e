// Package replicate is the WAL-shipping replication subsystem behind
// ensemfdetd's read-replica scale-out: one ingest primary feeds any number
// of read-only followers that serve detections from byte-identical state.
//
// The primary side serves four HTTP endpoints over the persist store's
// shippable surface (mounted under /v1/repl/ behind -serve-replication):
//
//	GET /v1/repl/manifest         newest snapshot + segment listing (JSON)
//	GET /v1/repl/snapshot/{name}  one snapshot file, verbatim
//	GET /v1/repl/segment/{name}   one WAL segment, verbatim (acknowledged bytes only)
//	GET /v1/repl/tail?from=V      long-poll stream of v2-framed records with version > V
//
// The follower side boots read-only against a primary URL: it recovers from
// its local data directory when one holds state, bootstraps by downloading
// the snapshot + segments otherwise (or seeds its graph straight from the
// snapshot body when it has no disk at all), then tails continuously,
// applying records through the stream graph's version-exact replay
// primitives. Because stream snapshots are canonical — byte-identical for a
// given live edge set regardless of shard count or arrival order — a
// follower at version V serves exactly the primary's votes at V.
//
// Consistency: the tail carries the durable history only. Versions a
// degraded primary committed in memory while its WAL rejected writes never
// appear as records; they reach followers through the healing snapshot,
// which raises the truncation floor, turns the next tail request into 410
// Gone, and pushes the follower through a snapshot resync.
package replicate

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"ensemfdet/internal/persist"
)

// Tail response headers: the highest record version included, the primary's
// current graph version (the follower's lag reference, present on empty
// responses too), and the record count. hdrEpoch travels both ways: every
// replication response carries the primary's failover epoch, and every
// follower request carries the follower's — which is how a deposed primary
// learns it has been deposed without any coordinator (a follower that
// adopted a higher term keeps gossiping it back on its next request).
const (
	hdrLastVersion    = "X-Repl-Last-Version"
	hdrPrimaryVersion = "X-Repl-Primary-Version"
	hdrRecords        = "X-Repl-Records"
	hdrEpoch          = "X-Repl-Epoch"
)

// PrimaryConfig configures the serving half.
type PrimaryConfig struct {
	// Store is the durability store whose WAL and snapshots are shipped.
	Store *persist.Store
	// Version reports the primary's current graph version (stamped on tail
	// responses so followers can measure lag).
	Version func() uint64
	// Logf receives shipping warnings (nil → log.Printf).
	Logf func(string, ...any)
}

const (
	// maxChunkBytes caps one tail response. Followers loop.
	maxChunkBytes = 4 << 20
	// maxWait caps a tail long-poll; pollEvery is the idle re-check period
	// while waiting.
	maxWait   = 25 * time.Second
	pollEvery = 25 * time.Millisecond
)

func (c PrimaryConfig) logf() func(string, ...any) {
	if c.Logf == nil {
		return log.Printf
	}
	return c.Logf
}

// Primary serves the replication endpoints. Safe for concurrent use.
type Primary struct {
	cfg  PrimaryConfig
	logf func(string, ...any)

	manifests    atomic.Uint64
	tailRequests atomic.Uint64
	tailRecords  atomic.Uint64
	tailBytes    atomic.Uint64
	filesShipped atomic.Uint64
	fileBytes    atomic.Uint64
	epochFences  atomic.Uint64
}

// epoch is the term this serving half stamps on every response.
func (p *Primary) epoch() uint64 {
	e, _, _ := p.cfg.Store.Epoch()
	return e
}

// observeEpoch inspects the follower's advertised epoch on an incoming
// replication request. A higher term is proof positive that a promotion
// happened elsewhere: this primary immediately and durably adopts the term
// (losing write ownership — the fail-stop half of fencing), so it can never
// again acknowledge local ingest. Serving
// replication reads continues: the shipped history below the fork is still
// valid, and a lagging follower may need it.
func (p *Primary) observeEpoch(r *http.Request) {
	raw := r.Header.Get(hdrEpoch)
	if raw == "" {
		return
	}
	remote, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || remote <= p.epoch() {
		return
	}
	p.epochFences.Add(1)
	if err := p.cfg.Store.AdoptEpoch(remote, 0); err != nil {
		p.logf("replicate: adopting epoch %d observed from %s: %v", remote, r.RemoteAddr, err)
		return
	}
	p.logf("replicate: fenced — follower %s advertises epoch %d; local writes now rejected", r.RemoteAddr, remote)
}

// NewPrimary returns the serving half over cfg.Store; it panics on a nil
// store or version source, which are wiring bugs, not runtime conditions.
func NewPrimary(cfg PrimaryConfig) *Primary {
	if cfg.Store == nil || cfg.Version == nil {
		panic("replicate: PrimaryConfig needs Store and Version")
	}
	return &Primary{cfg: cfg, logf: cfg.logf()}
}

// Manifest is the bootstrap listing a follower downloads from: the persist
// store's shippable state plus the primary's current graph version.
type Manifest struct {
	Version uint64 `json:"version"`
	persist.Manifest
}

// Handler returns the replication routes on their absolute /v1/repl/ paths,
// ready to mount on the daemon mux (or serve alone in tests).
func (p *Primary) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/manifest", p.handleManifest)
	mux.HandleFunc("GET /v1/repl/snapshot/{name}", func(w http.ResponseWriter, r *http.Request) {
		p.handleFile(w, r, p.cfg.Store.OpenSnapshotFile)
	})
	mux.HandleFunc("GET /v1/repl/segment/{name}", func(w http.ResponseWriter, r *http.Request) {
		p.handleFile(w, r, p.cfg.Store.OpenSegmentFile)
	})
	mux.HandleFunc("GET /v1/repl/tail", p.handleTail)
	return mux
}

func (p *Primary) handleManifest(w http.ResponseWriter, r *http.Request) {
	p.observeEpoch(r)
	m, err := p.cfg.Store.Manifest()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	p.manifests.Add(1)
	w.Header().Set(hdrPrimaryVersion, strconv.FormatUint(p.cfg.Version(), 10))
	w.Header().Set(hdrEpoch, strconv.FormatUint(m.Epoch, 10))
	writeJSON(w, http.StatusOK, Manifest{Version: p.cfg.Version(), Manifest: m})
}

// handleFile streams one snapshot or segment verbatim. The open callback
// (which validates the name and re-derives the path) pins the readable size,
// so a segment racing new appends still ships a clean prefix.
func (p *Primary) handleFile(w http.ResponseWriter, r *http.Request, open func(string) (io.ReadCloser, int64, error)) {
	p.observeEpoch(r)
	w.Header().Set(hdrEpoch, strconv.FormatUint(p.epoch(), 10))
	rc, size, err := open(r.PathValue("name"))
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		httpError(w, status, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	n, err := io.Copy(w, rc)
	if err != nil {
		p.logf("replicate: shipping %s: %v", r.URL.Path, err)
	}
	p.filesShipped.Add(1)
	p.fileBytes.Add(uint64(n))
}

// handleTail long-polls for records past ?from=V: it answers immediately
// when the log already holds newer records, otherwise re-checks every
// pollEvery until ?wait= (capped at maxWait) elapses, then returns 204 with the
// primary's version header so an idle follower still refreshes its lag
// reference. A from below the truncation floor is 410 Gone: the follower
// must resync from a snapshot.
func (p *Primary) handleTail(w http.ResponseWriter, r *http.Request) {
	p.tailRequests.Add(1)
	p.observeEpoch(r)
	w.Header().Set(hdrEpoch, strconv.FormatUint(p.epoch(), 10))
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
		return
	}
	wait := maxWait
	if s := r.URL.Query().Get("wait"); s != "" {
		ms, err := strconv.ParseInt(s, 10, 64)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, errors.New("bad wait: want non-negative milliseconds"))
			return
		}
		if d := time.Duration(ms) * time.Millisecond; d < wait {
			wait = d
		}
	}

	deadline := time.Now().Add(wait)
	for {
		payload, last, n, err := p.cfg.Store.TailSince(from, maxChunkBytes)
		switch {
		case errors.Is(err, persist.ErrTailGone):
			w.Header().Set(hdrPrimaryVersion, strconv.FormatUint(p.cfg.Version(), 10))
			httpError(w, http.StatusGone, err)
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		case n > 0:
			p.tailRecords.Add(uint64(n))
			p.tailBytes.Add(uint64(len(payload)))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(hdrLastVersion, strconv.FormatUint(last, 10))
			w.Header().Set(hdrPrimaryVersion, strconv.FormatUint(p.cfg.Version(), 10))
			w.Header().Set(hdrRecords, strconv.Itoa(n))
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
			if _, err := w.Write(payload); err != nil {
				p.logf("replicate: tail write to %s: %v", r.RemoteAddr, err)
			}
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.Header().Set(hdrPrimaryVersion, strconv.FormatUint(p.cfg.Version(), 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
		poll := min(pollEvery, remaining)
		select {
		case <-r.Context().Done():
			return
		case <-time.After(poll):
		}
	}
}

// PrimaryStats is the primary-side replication summary for /v1/stats and
// the ensemfdetd_repl_* metrics.
type PrimaryStats struct {
	Manifests    uint64 `json:"manifests"`
	TailRequests uint64 `json:"tail_requests"`
	TailRecords  uint64 `json:"tail_records"`
	TailBytes    uint64 `json:"tail_bytes"`
	FilesShipped uint64 `json:"files_shipped"`
	FileBytes    uint64 `json:"file_bytes"`
	// EpochFences counts requests that advertised a higher epoch than ours —
	// each one is an observation that this node was deposed.
	EpochFences uint64 `json:"epoch_fences"`
}

// Stats returns current shipping counters.
func (p *Primary) Stats() PrimaryStats {
	return PrimaryStats{
		Manifests:    p.manifests.Load(),
		TailRequests: p.tailRequests.Load(),
		TailRecords:  p.tailRecords.Load(),
		TailBytes:    p.tailBytes.Load(),
		FilesShipped: p.filesShipped.Load(),
		FileBytes:    p.fileBytes.Load(),
		EpochFences:  p.epochFences.Load(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
