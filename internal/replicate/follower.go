package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// FollowerConfig configures the tailing half.
type FollowerConfig struct {
	// Primary is the primary's base URL (e.g. http://primary:8080).
	Primary string
	// Graph is the follower's stream graph; records apply through its
	// version-exact replay primitives. It must carry no journal and no
	// window policy — replicated tombstones are the only deletions.
	Graph *stream.Graph
	// Store, when non-nil, re-journals received records so a follower
	// restart resumes from local state instead of re-bootstrapping. Leave
	// nil for a memory-only follower.
	Store *persist.Store
	// Client issues the HTTP requests (nil → a client with sane timeouts).
	Client *http.Client
	// WaitMS is the per-request long-poll budget sent to the primary
	// (0 → 20000).
	WaitMS int
	// RetryMin/RetryMax bound the reconnect backoff (0 → 100ms / 5s). Each
	// sleep is jittered into [d/2, d) so a fleet of followers knocked over
	// by the same primary restart does not reconnect in lockstep; a
	// Retry-After from the primary (it answers 503 while degraded) overrides
	// the computed backoff when longer.
	RetryMin time.Duration
	RetryMax time.Duration
	// FlushCache, when non-nil, runs after an epoch-boundary resync — the
	// one path that can move the graph version backwards, which invalidates
	// anything cached under version keys (the serving engine's vote cache).
	FlushCache func()
	// Logf receives replication progress and warnings (nil → log.Printf).
	Logf func(string, ...any)
}

func (c FollowerConfig) waitMS() int {
	if c.WaitMS <= 0 {
		return 20000
	}
	return c.WaitMS
}

func (c FollowerConfig) retryMin() time.Duration {
	if c.RetryMin <= 0 {
		return 100 * time.Millisecond
	}
	return c.RetryMin
}

func (c FollowerConfig) retryMax() time.Duration {
	if c.RetryMax <= 0 {
		return 5 * time.Second
	}
	return c.RetryMax
}

func (c FollowerConfig) logf() func(string, ...any) {
	if c.Logf == nil {
		return log.Printf
	}
	return c.Logf
}

func (c FollowerConfig) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	// No overall request timeout: tail long-polls legitimately idle for
	// WaitMS. The dial bound keeps a dead primary from pinning a retry.
	return &http.Client{Transport: http.DefaultTransport}
}

// Follower replicates a primary's durable state into a local graph and
// serves as the readiness/lag authority for the read-only daemon around it.
type Follower struct {
	cfg    FollowerConfig
	base   string
	client *http.Client
	logf   func(string, ...any)

	primaryVersion atomic.Uint64
	lastContact    atomic.Int64 // unix ns of the last successful primary response
	behindSince    atomic.Int64 // unix ns when the current lag streak began (0 = caught up)
	bootstrapped   atomic.Bool

	// memEpoch tracks the adopted failover term for memory-only followers;
	// with a store attached the store's fence file is authoritative and this
	// mirrors it. respEpoch remembers the last term the primary advertised.
	memEpoch  atomic.Uint64
	respEpoch atomic.Uint64

	bytesShipped      atomic.Uint64
	recordsApplied    atomic.Uint64
	tombstonesApplied atomic.Uint64
	resyncs           atomic.Uint64
	reconnects        atomic.Uint64
	journalErrs       atomic.Uint64
	epochAdopts       atomic.Uint64
	epochRejects      atomic.Uint64
	epochResyncs      atomic.Uint64
	backoffNanos      atomic.Int64
	retryAfterHint    atomic.Int64 // nanos requested by the last Retry-After header
}

// NewFollower validates the primary URL and returns a follower ready to
// Bootstrap and Run.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Graph == nil {
		return nil, errors.New("replicate: FollowerConfig needs a Graph")
	}
	base, err := normalizePrimaryURL(cfg.Primary)
	if err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, base: base, client: cfg.client(), logf: cfg.logf()}
	if cfg.Store != nil {
		e, _, _ := cfg.Store.Epoch()
		f.memEpoch.Store(e)
	}
	return f, nil
}

// epoch is the failover term this follower has adopted — what it advertises
// on every request to the primary.
func (f *Follower) epoch() uint64 {
	if f.cfg.Store != nil {
		e, _, _ := f.cfg.Store.Epoch()
		return e
	}
	return f.memEpoch.Load()
}

// lastRespEpoch is the term the primary stamped on its latest response.
func (f *Follower) lastRespEpoch() uint64 { return f.respEpoch.Load() }

// adoptEpoch durably records a higher term (fence file when a store is
// attached). Adopting never grants write ownership.
func (f *Follower) adoptEpoch(epoch, start uint64) {
	if epoch <= f.epoch() {
		return
	}
	if f.cfg.Store != nil {
		if err := f.cfg.Store.AdoptEpoch(epoch, start); err != nil {
			f.logf("replicate: adopting epoch %d: %v", epoch, err)
			return
		}
	}
	f.memEpoch.Store(epoch)
	f.epochAdopts.Add(1)
	f.logf("replicate: adopted epoch %d (starts at version %d)", epoch, start)
}

func normalizePrimaryURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("replicate: bad primary URL %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("replicate: primary URL %q must be http(s)://host[:port]", raw)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// Bootstrap seeds an empty graph from the primary's newest snapshot — the
// memory-only fast path (a disk-backed follower is seeded by DownloadInto +
// local recovery before this runs, so for it Bootstrap is a no-op beyond
// fetching the initial lag reference). A primary with no snapshot yet means
// the whole history is still in its WAL; tailing from the current version
// (possibly 0) covers it.
func (f *Follower) Bootstrap(ctx context.Context) error {
	m, err := f.fetchManifest(ctx)
	if err != nil {
		return err
	}
	f.primaryVersion.Store(m.Version)
	f.noteContact()
	if f.cfg.Graph.Version() == 0 && m.Snapshot != nil {
		g, hdr, n, err := f.fetchSnapshot(ctx, m.Snapshot.Name)
		if err != nil {
			return err
		}
		if err := f.cfg.Graph.RestoreAt(g, hdr.Version, hdr.Mark, hdr.WrittenAt); err != nil {
			return fmt.Errorf("replicate: seeding graph from shipped snapshot: %w", err)
		}
		f.bytesShipped.Add(uint64(n))
		f.logf("replicate: bootstrapped from snapshot %s: version %d, %d edges", m.Snapshot.Name, hdr.Version, g.NumEdges())
	}
	// A primary already in a later term than ours: adopt it now when our
	// history is provably a shared prefix; a forked history is left for the
	// tail loop, whose epoch check pushes it through a boundary resync.
	if ClassifyEpoch(f.epoch(), m.Epoch, f.cfg.Graph.Version(), m.EpochVersion) == EpochAdopt {
		f.adoptEpoch(m.Epoch, m.EpochVersion)
	}
	f.bootstrapped.Store(true)
	return nil
}

// EpochAction is ClassifyEpoch's verdict on one replication response.
type EpochAction int

const (
	// EpochOK: terms match — apply the response normally.
	EpochOK EpochAction = iota
	// EpochStale: the responder is in an older term than we are — it is a
	// deposed primary (or a replica of one); nothing it sends may be
	// applied.
	EpochStale
	// EpochAdopt: the responder is in a newer term and our entire history
	// predates that term's first version, so it is a shared prefix of the
	// new timeline — adopt the term durably and keep tailing in place.
	EpochAdopt
	// EpochResync: the responder is in a newer term and we hold versions at
	// or past the term boundary — versions that may belong to the abandoned
	// timeline. Local history cannot be trusted past the fork; converge by
	// snapshot diff, then force version and watermark onto the new timeline.
	EpochResync
)

func (a EpochAction) String() string {
	switch a {
	case EpochOK:
		return "ok"
	case EpochStale:
		return "stale"
	case EpochAdopt:
		return "adopt"
	case EpochResync:
		return "resync"
	}
	return fmt.Sprintf("EpochAction(%d)", int(a))
}

// ClassifyEpoch decides what a follower at (localEpoch, localVersion) must
// do with a response from a node at respEpoch whose term began at epochStart
// (0 = unknown). The rule that makes fencing safe: a version is only
// trustworthy if it was assigned in a term ≤ the term we have adopted, and a
// higher-term node's history only shares our prefix strictly below its
// term's first version. An unknown boundary forces the conservative resync.
func ClassifyEpoch(localEpoch, respEpoch, localVersion, epochStart uint64) EpochAction {
	switch {
	case respEpoch < localEpoch:
		return EpochStale
	case respEpoch == localEpoch:
		return EpochOK
	case epochStart == 0 || localVersion >= epochStart:
		return EpochResync
	default:
		return EpochAdopt
	}
}

// Sentinels tailOnce raises when the primary's advertised epoch disagrees
// with ours; Run turns them into a hard reject (stale) or a manifest-driven
// adopt/resync (ahead).
var (
	errEpochStale = errors.New("replicate: primary is in an older epoch than this follower")
	errEpochAhead = errors.New("replicate: primary is in a newer epoch than this follower")
)

// Run tails the primary until ctx is canceled, applying each shipped record
// at its explicit version. Stream breaks reconnect with jittered exponential
// backoff (a Retry-After from a degraded primary overrides it when longer),
// resuming from the last locally applied version; a 410 Gone (the primary
// truncated past our position) triggers a snapshot resync, and an epoch
// mismatch triggers adopt/boundary-resync per ClassifyEpoch. Run returns nil
// on cancellation — any terminal error would mean giving up on replication,
// which a replica never does while alive.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.cfg.retryMin()
	for ctx.Err() == nil {
		status, err := f.tailOnce(ctx)
		switch {
		case errors.Is(err, errEpochAhead):
			if err := f.handleEpochAhead(ctx); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				f.logf("replicate: epoch-boundary resync: %v (retrying)", err)
				if !f.pause(ctx, f.cfg.retryMax()) {
					return nil
				}
			}
			backoff = f.cfg.retryMin()
			continue
		case errors.Is(err, errEpochStale):
			// A deposed primary cannot become current again by waiting; back
			// off at the cap until an operator re-points us (/v1/admin/follow)
			// or the node is rebooted into the new timeline.
			f.epochRejects.Add(1)
			f.logf("replicate: %s answers with epoch %d below ours (%d); refusing its records until re-pointed",
				f.base, f.lastRespEpoch(), f.epoch())
			if !f.pause(ctx, f.cfg.retryMax()) {
				return nil
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return nil
			}
			f.reconnects.Add(1)
			f.logf("replicate: tail from %s: %v (retrying in ~%v)", f.base, err, backoff)
			if !f.pause(ctx, backoff) {
				return nil
			}
			if backoff *= 2; backoff > f.cfg.retryMax() {
				backoff = f.cfg.retryMax()
			}
			continue
		}
		backoff = f.cfg.retryMin()
		if status == http.StatusGone {
			if err := f.resync(ctx); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				f.logf("replicate: snapshot resync: %v (retrying)", err)
				if !f.pause(ctx, f.cfg.retryMax()) {
					return nil
				}
			}
		}
	}
	return nil
}

// pause sleeps one backoff step: base jittered into [base/2, base] so
// followers desynchronize, raised to the primary's Retry-After request when
// that is longer. The slept time feeds the repl_backoff_seconds metric.
func (f *Follower) pause(ctx context.Context, base time.Duration) bool {
	d := base/2 + time.Duration(rand.Int63n(int64(base/2)+1))
	if hint := time.Duration(f.retryAfterHint.Swap(0)); hint > d {
		d = hint
	}
	f.backoffNanos.Add(int64(d))
	return sleepCtx(ctx, d)
}

// handleEpochAhead runs after a response advertised a term above ours:
// re-fetch the manifest (it carries the term's first version, which the
// header cannot) and either adopt in place or converge through an
// epoch-boundary resync.
func (f *Follower) handleEpochAhead(ctx context.Context) error {
	m, err := f.fetchManifest(ctx)
	if err != nil {
		return err
	}
	f.primaryVersion.Store(m.Version)
	f.noteContact()
	switch ClassifyEpoch(f.epoch(), m.Epoch, f.cfg.Graph.Version(), m.EpochVersion) {
	case EpochAdopt:
		f.adoptEpoch(m.Epoch, m.EpochVersion)
		return nil
	case EpochResync:
		return f.epochResync(ctx, m)
	default:
		// The manifest caught up with (or fell behind) the header race;
		// the next tail request re-evaluates.
		return nil
	}
}

// tailOnce issues one tail request from the current graph version and
// applies whatever comes back. It returns the HTTP status for flow control
// (200 applied, 204 idle, 410 needs resync), an epoch sentinel when the
// primary's term disagrees with ours, or an error for retryable
// transport/server failures.
func (f *Follower) tailOnce(ctx context.Context) (int, error) {
	from := f.cfg.Graph.Version()
	u := fmt.Sprintf("%s/v1/repl/tail?from=%d&wait=%d", f.base, from, f.cfg.waitMS())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(hdrEpoch, strconv.FormatUint(f.epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v, err := strconv.ParseUint(resp.Header.Get(hdrPrimaryVersion), 10, 64); err == nil {
		f.primaryVersion.Store(v)
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.ParseFloat(s, 64); err == nil && secs > 0 {
			f.retryAfterHint.Store(int64(secs * float64(time.Second)))
		}
	}
	if raw := resp.Header.Get(hdrEpoch); raw != "" {
		if e, err := strconv.ParseUint(raw, 10, 64); err == nil {
			f.respEpoch.Store(e)
			switch local := f.epoch(); {
			case e < local:
				f.noteContact()
				return 0, errEpochStale
			case e > local:
				f.noteContact()
				return 0, errEpochAhead
			}
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNoContent, http.StatusGone:
		f.noteContact()
		f.updateLag()
		return resp.StatusCode, nil
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("tail: primary answered %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("tail: reading body: %w", err)
	}
	f.noteContact()
	f.bytesShipped.Add(uint64(len(payload)))
	if err := f.applyFrames(payload); err != nil {
		return 0, err
	}
	f.updateLag()
	return http.StatusOK, nil
}

// applyFrames decodes a tail body (concatenated v2 frames, version-sorted)
// and applies each record exactly as boot-time recovery would: journal
// first when a store is attached, then the version-exact replay primitives.
// Records at or below the current version (overlap after a resume or
// resync) are skipped whole — never re-journaled, never re-applied.
func (f *Follower) applyFrames(payload []byte) error {
	g := f.cfg.Graph
	off := 0
	for off < len(payload) {
		rec, n, ok := persist.DecodeRecordFrame(payload[off:])
		if !ok {
			return fmt.Errorf("tail: undecodable frame at offset %d", off)
		}
		off += n
		if rec.Version <= g.Version() {
			continue
		}
		if f.cfg.Store != nil {
			// Journal-first mirrors the primary's WAL-before-commit order: a
			// crash between the two replays the record at the same version.
			// A journal failure degrades the store (it heals itself via a
			// snapshot cut from this graph) but must not stall replication —
			// the in-memory replica keeps serving, exactly like a degraded
			// primary does.
			if err := f.cfg.Store.AppendRecord(rec); err != nil {
				f.journalErrs.Add(1)
				f.logf("replicate: journaling record %d: %v", rec.Version, err)
			}
		}
		switch rec.Kind {
		case persist.RecordTombstone:
			g.Remove(rec.Edges)
			g.AdvanceMarkTo(rec.Mark)
			g.AdvanceVersionTo(rec.Version)
			f.tombstonesApplied.Add(1)
		case persist.RecordEpochFence:
			// The new primary's fence record arriving in version order means
			// our whole history is the new timeline's prefix: adopt the term
			// in place, no resync needed. The version bump is the record's
			// only graph effect.
			g.AdvanceVersionTo(rec.Version)
			f.adoptEpoch(rec.Epoch, rec.Version)
		default:
			g.Append(rec.Edges)
			g.AdvanceVersionTo(rec.Version)
		}
		f.recordsApplied.Add(1)
	}
	return nil
}

// resync converges the live graph onto the primary's newest snapshot after
// the tail went 410: the versions between our position F and the snapshot's
// S exist only inside that snapshot now. Rather than wiping in-process
// state, it applies the set difference — Remove what the snapshot lost,
// Append what it gained — then pins version and watermark.
//
// Version safety: Remove and Append each bump the version by at most one,
// and a bump only happens when its set is non-empty. A single version step
// is a single WAL record, which either only adds or only deletes, so both
// sets non-empty implies S ≥ F+2; one set non-empty implies S ≥ F+1. The
// version therefore never overshoots S before AdvanceVersionTo pins it.
// Canonical snapshots make the result byte-identical to the primary at S.
func (f *Follower) resync(ctx context.Context) error {
	m, err := f.fetchManifest(ctx)
	if err != nil {
		return err
	}
	f.primaryVersion.Store(m.Version)
	f.noteContact()
	if m.Snapshot == nil {
		return errors.New("tail gone but the primary lists no snapshot; retrying")
	}
	g := f.cfg.Graph
	if m.Snapshot.Version <= g.Version() {
		// A stale manifest racing an even newer snapshot; the next tail will
		// either work or push us back here with a fresher listing.
		return nil
	}
	target, hdr, n, err := f.fetchSnapshot(ctx, m.Snapshot.Name)
	if err != nil {
		return err
	}
	deletes, inserts := f.diffOnto(target)
	g.AdvanceVersionTo(hdr.Version)
	g.AdvanceMarkTo(hdr.Mark)
	f.bytesShipped.Add(uint64(n))
	f.resyncs.Add(1)
	f.updateLag()
	f.logf("replicate: resynced to snapshot version %d (-%d/+%d edges)", hdr.Version, len(deletes), len(inserts))
	if f.cfg.Store != nil {
		// The diff was applied without journaling (its operations are not
		// primary history); a forced snapshot makes the converged state
		// durable and truncates the now-stale local WAL.
		if err := f.cfg.Store.Snapshot(); err != nil {
			f.journalErrs.Add(1)
			f.logf("replicate: snapshot after resync: %v", err)
		}
	}
	return nil
}

// diffOnto converges the live graph's edge set onto target via the same
// Remove/Append set difference the 410 resync uses, returning both halves.
func (f *Follower) diffOnto(target *bipartite.Graph) (deletes, inserts []bipartite.Edge) {
	g := f.cfg.Graph
	local, _ := g.Snapshot()
	local.Edges(func(e bipartite.Edge) bool {
		if !target.HasEdge(e.U, e.V) {
			deletes = append(deletes, e)
		}
		return true
	})
	target.Edges(func(e bipartite.Edge) bool {
		if !local.HasEdge(e.U, e.V) {
			inserts = append(inserts, e)
		}
		return true
	})
	g.Remove(deletes)
	g.Append(inserts)
	return deletes, inserts
}

// epochResync converges a forked follower onto a new primary's timeline.
// The follower holds versions at or past the term boundary that the new
// primary may never have had (the abandoned timeline), so unlike the 410
// resync the version counter must move BACKWARDS — to the primary's newest
// snapshot (or to zero when it has none yet, in which case the target is the
// empty graph and the tail replays the whole new timeline).
//
// Order is crash-safe by construction: diff the graph onto the target, force
// version+watermark, wipe the local store (Rewind: all snapshots + WAL —
// they describe the abandoned timeline), adopt the new term, then cut a
// fresh snapshot of the converged state. A crash before AdoptEpoch leaves
// the old (or an empty) epoch on disk, so the reboot re-enters this path and
// re-converges; a crash after it leaves an empty store in the new term,
// which tails forward from zero. At no point can the node serve the
// abandoned timeline under the new term's epoch.
func (f *Follower) epochResync(ctx context.Context, m Manifest) error {
	g := f.cfg.Graph
	var target *bipartite.Graph
	var hdr persist.SnapshotHeader
	if m.Snapshot != nil {
		t, h, n, err := f.fetchSnapshot(ctx, m.Snapshot.Name)
		if err != nil {
			return err
		}
		target, hdr = t, h
		f.bytesShipped.Add(uint64(n))
	} else {
		target = bipartite.NewBuilder().Build()
	}
	deletes, inserts := f.diffOnto(target)
	g.ForceVersionTo(hdr.Version)
	g.ForceMarkTo(hdr.Mark)
	if f.cfg.Store != nil {
		if err := f.cfg.Store.Rewind(); err != nil {
			return fmt.Errorf("rewinding store across epoch boundary: %w", err)
		}
	}
	f.adoptEpoch(m.Epoch, m.EpochVersion)
	if f.cfg.Store != nil {
		if err := f.cfg.Store.Snapshot(); err != nil {
			f.journalErrs.Add(1)
			f.logf("replicate: snapshot after epoch resync: %v", err)
		}
	}
	if f.cfg.FlushCache != nil {
		f.cfg.FlushCache()
	}
	f.epochResyncs.Add(1)
	f.updateLag()
	f.logf("replicate: epoch-boundary resync to epoch %d at version %d (-%d/+%d edges)",
		m.Epoch, hdr.Version, len(deletes), len(inserts))
	return nil
}

func (f *Follower) fetchManifest(ctx context.Context) (Manifest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/repl/manifest", nil)
	if err != nil {
		return Manifest{}, err
	}
	req.Header.Set(hdrEpoch, strconv.FormatUint(f.epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return Manifest{}, fmt.Errorf("replicate: fetching manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("replicate: manifest: primary answered %s", resp.Status)
	}
	var m Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("replicate: decoding manifest: %w", err)
	}
	return m, nil
}

// fetchSnapshot downloads and decodes one snapshot, returning the validated
// graph, its header, and the byte count shipped.
func (f *Follower) fetchSnapshot(ctx context.Context, name string) (*bipartite.Graph, persist.SnapshotHeader, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/repl/snapshot/"+url.PathEscape(name), nil)
	if err != nil {
		return nil, persist.SnapshotHeader{}, 0, err
	}
	req.Header.Set(hdrEpoch, strconv.FormatUint(f.epoch(), 10))
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, persist.SnapshotHeader{}, 0, fmt.Errorf("replicate: fetching snapshot %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, persist.SnapshotHeader{}, 0, fmt.Errorf("replicate: snapshot %s: primary answered %s", name, resp.Status)
	}
	cr := &countingReader{r: resp.Body}
	g, hdr, err := persist.DecodeSnapshot(cr)
	if err != nil {
		return nil, persist.SnapshotHeader{}, 0, err
	}
	return g, hdr, cr.n, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (f *Follower) noteContact() { f.lastContact.Store(time.Now().UnixNano()) }

// updateLag maintains the behind-since stamp: zero while the applied
// version has caught the primary's, else the time the current streak began.
func (f *Follower) updateLag() {
	if f.cfg.Graph.Version() >= f.primaryVersion.Load() {
		f.behindSince.Store(0)
		return
	}
	f.behindSince.CompareAndSwap(0, time.Now().UnixNano())
}

// Lag reports how far behind the primary this follower is. known is false
// until the first successful primary contact.
func (f *Follower) Lag() (versionsBehind uint64, secondsBehind float64, known bool) {
	if f.lastContact.Load() == 0 {
		return 0, 0, false
	}
	pv, av := f.primaryVersion.Load(), f.cfg.Graph.Version()
	if pv > av {
		versionsBehind = pv - av
	}
	if since := f.behindSince.Load(); since != 0 {
		secondsBehind = time.Since(time.Unix(0, since)).Seconds()
	}
	return versionsBehind, secondsBehind, true
}

// Ready implements the /readyz contract: a follower is ready once it has
// bootstrapped, heard from the primary, and its lag is within maxLag
// versions — so load balancers never route detection traffic to a replica
// still cold or far behind.
func (f *Follower) Ready(maxLag uint64) (bool, string) {
	if !f.bootstrapped.Load() {
		return false, "bootstrap in progress"
	}
	behind, _, known := f.Lag()
	if !known {
		return false, "no contact with primary yet"
	}
	if behind > maxLag {
		return false, fmt.Sprintf("replication lag %d versions exceeds %d", behind, maxLag)
	}
	return true, ""
}

// FollowerStats is the follower-side replication summary for /v1/stats and
// the ensemfdetd_repl_* metrics.
type FollowerStats struct {
	Primary           string  `json:"primary"`
	PrimaryVersion    uint64  `json:"primary_version"`
	AppliedVersion    uint64  `json:"applied_version"`
	VersionsBehind    uint64  `json:"versions_behind"`
	SecondsBehind     float64 `json:"seconds_behind"`
	Bootstrapped      bool    `json:"bootstrapped"`
	Epoch             uint64  `json:"epoch"`
	BytesShipped      uint64  `json:"bytes_shipped"`
	RecordsApplied    uint64  `json:"records_applied"`
	TombstonesApplied uint64  `json:"tombstones_applied"`
	Resyncs           uint64  `json:"resyncs"`
	Reconnects        uint64  `json:"reconnects"`
	JournalErrors     uint64  `json:"journal_errors"`
	// EpochAdopts counts higher terms adopted in place; EpochResyncs counts
	// boundary resyncs off an abandoned timeline; EpochRejects counts
	// responses refused because the sender's term was below ours.
	EpochAdopts  uint64 `json:"epoch_adopts"`
	EpochResyncs uint64 `json:"epoch_resyncs"`
	EpochRejects uint64 `json:"epoch_rejects"`
	// BackoffSeconds is cumulative time spent sleeping between retries —
	// the ensemfdetd_repl_backoff_seconds metric.
	BackoffSeconds float64 `json:"backoff_seconds"`
}

// Stats returns current replication counters.
func (f *Follower) Stats() FollowerStats {
	behind, seconds, _ := f.Lag()
	return FollowerStats{
		Primary:           f.base,
		PrimaryVersion:    f.primaryVersion.Load(),
		AppliedVersion:    f.cfg.Graph.Version(),
		VersionsBehind:    behind,
		SecondsBehind:     seconds,
		Bootstrapped:      f.bootstrapped.Load(),
		Epoch:             f.epoch(),
		BytesShipped:      f.bytesShipped.Load(),
		RecordsApplied:    f.recordsApplied.Load(),
		TombstonesApplied: f.tombstonesApplied.Load(),
		Resyncs:           f.resyncs.Load(),
		Reconnects:        f.reconnects.Load(),
		JournalErrors:     f.journalErrs.Load(),
		EpochAdopts:       f.epochAdopts.Load(),
		EpochResyncs:      f.epochResyncs.Load(),
		EpochRejects:      f.epochRejects.Load(),
		BackoffSeconds:    time.Duration(f.backoffNanos.Load()).Seconds(),
	}
}

// sleepCtx sleeps for d or until ctx is done, reporting whether it slept
// the full duration.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// --- disk bootstrap ---

// bootstrapMarker flags a data directory whose bootstrap did not finish: a
// crash mid-download must not leave a half-shipped segment set that a later
// boot would "recover" with silent version holes. The marker lands before
// any shipped file and is removed only after every file is in place.
const bootstrapMarker = "REPL_BOOTSTRAP_INCOMPLETE"

// NeedsBootstrap reports whether a follower's data directory requires a
// fresh download: it holds no recoverable state, or a previous bootstrap
// was interrupted (marker present).
func NeedsBootstrap(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, bootstrapMarker)); err == nil {
		return true
	}
	return !persist.HasState(dir)
}

// DownloadInto ships the primary's newest snapshot and WAL segments into
// dataDir (creating it), laid out exactly as the persist store writes them,
// so a normal Open+Recover afterwards reproduces the primary's durable
// state version-exactly. Existing snap/wal contents are wiped first — the
// caller gates on NeedsBootstrap, so anything present is the debris of an
// interrupted earlier attempt.
//
// A download that finds a file changed or gone (the primary snapshotted and
// truncated mid-bootstrap) restarts the whole procedure from a fresh
// manifest — partial sets from two manifests must never mix, or recovery
// could see version holes it cannot detect.
func DownloadInto(ctx context.Context, client *http.Client, primary, dataDir string, logf func(string, ...any)) error {
	base, err := normalizePrimaryURL(primary)
	if err != nil {
		return err
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Minute}
	}
	if logf == nil {
		logf = log.Printf
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("replicate: creating data dir: %w", err)
	}
	marker := filepath.Join(dataDir, bootstrapMarker)
	if err := os.WriteFile(marker, []byte("bootstrap in progress\n"), 0o644); err != nil {
		return fmt.Errorf("replicate: writing bootstrap marker: %w", err)
	}

	const maxAttempts = 5
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if lastErr != nil {
			logf("replicate: bootstrap attempt %d/%d restarting: %v", attempt, maxAttempts, lastErr)
		}
		if lastErr = downloadAttempt(ctx, client, base, dataDir); lastErr == nil {
			if err := os.Remove(marker); err != nil {
				return fmt.Errorf("replicate: clearing bootstrap marker: %w", err)
			}
			return syncDirBestEffort(dataDir)
		}
	}
	return fmt.Errorf("replicate: bootstrap from %s failed after %d attempts: %w", base, maxAttempts, lastErr)
}

func downloadAttempt(ctx context.Context, client *http.Client, base, dataDir string) error {
	// Wipe debris from any earlier attempt so files from two manifests
	// never mix.
	for _, sub := range []string{"snap", "wal"} {
		dir := filepath.Join(dataDir, sub)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	m, err := fetchManifestWith(ctx, client, base)
	if err != nil {
		return err
	}
	fetch := func(kind, name, dest string, wantBytes int64, exact bool) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/repl/"+kind+"/"+url.PathEscape(name), nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("fetching %s %s: %w", kind, name, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s %s: primary answered %s", kind, name, resp.Status)
		}
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		n, err := io.Copy(f, resp.Body)
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s %s: %w", kind, name, err)
		}
		// The active segment may legitimately have grown since the manifest
		// (extra records the tail would ship anyway); anything shorter — or
		// a sealed file of the wrong size — means the set changed under us.
		if n < wantBytes || (exact && n != wantBytes) {
			return fmt.Errorf("%s %s: got %d bytes, manifest said %d (primary state moved)", kind, name, n, wantBytes)
		}
		return nil
	}
	if m.Snapshot != nil {
		dest := filepath.Join(dataDir, "snap", m.Snapshot.Name)
		if err := fetch("snapshot", m.Snapshot.Name, dest, m.Snapshot.Bytes, true); err != nil {
			return err
		}
		// Decode-validate now: a corrupt shipped snapshot found at boot
		// recovery time would refuse the boot with data-loss wording that
		// sends the operator entirely the wrong way.
		if f, err := os.Open(dest); err != nil {
			return err
		} else {
			_, _, derr := persist.DecodeSnapshot(f)
			f.Close()
			if derr != nil {
				return fmt.Errorf("validating shipped snapshot: %w", derr)
			}
		}
	}
	for i, seg := range m.Segments {
		exact := i < len(m.Segments)-1 // only the final (active) segment may grow
		if err := fetch("segment", seg.Name, filepath.Join(dataDir, "wal", seg.Name), seg.Bytes, exact); err != nil {
			return err
		}
	}
	return nil
}

func fetchManifestWith(ctx context.Context, client *http.Client, base string) (Manifest, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/repl/manifest", nil)
	if err != nil {
		return Manifest{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return Manifest{}, fmt.Errorf("fetching manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Manifest{}, fmt.Errorf("manifest: primary answered %s", resp.Status)
	}
	var m Manifest
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("decoding manifest: %w", err)
	}
	return m, nil
}

func syncDirBestEffort(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	d.Sync()
	return d.Close()
}
