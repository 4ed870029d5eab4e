package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// NodeConfig configures a failover-capable replica node.
type NodeConfig struct {
	// Store is required: promotion is only meaningful when the epoch fence
	// can be made durable before the first write of the new term.
	Store *persist.Store
	// Graph is the node's stream graph, shared with the serving engine.
	Graph *stream.Graph
	// Client, WaitMS, RetryMin, RetryMax configure the tailing half (see
	// FollowerConfig).
	Client   *http.Client
	WaitMS   int
	RetryMin time.Duration
	RetryMax time.Duration
	// MaxLag is the readiness lag bound while following (see Follower.Ready).
	MaxLag uint64
	// FlushCache runs after any state change that can move the graph version
	// backwards (epoch-boundary resyncs).
	FlushCache func()
	// Inject, when non-nil, is consulted at the promotion crash-points
	// ("promote.pre-fence", "promote.post-fence"); a non-nil return aborts
	// the promotion at exactly the state a crash there would leave behind.
	Inject func(point string) error
	// Logf receives role-transition and replication logs (nil → log.Printf).
	Logf func(string, ...any)
}

// servingHalf pairs a promoted Primary with its built handler so ReplHandler
// can delegate without rebuilding the mux per request.
type servingHalf struct {
	p *Primary
	h http.Handler
}

// Node is the failover role manager: a daemon process that starts as a
// follower, can be promoted to primary at runtime (POST /v1/admin/promote),
// and can be re-pointed at a different primary (POST /v1/admin/follow). It
// owns the tailing goroutine's lifecycle and exposes the role-dependent
// readiness and replication-serving surfaces the HTTP layer mounts.
//
// The promotion sequence is ordered so the fencing guarantee holds at every
// crash-point: (1) stop tailing — no record from the old timeline lands
// after this; (2) fsync the epoch fence with write ownership, which is the
// commit point of the promotion; (3) journal the fence record so tailing
// followers and boot-time recovery learn the term; (4) attach the WAL
// journal to the graph and start serving replication. A crash before (2)
// reboots as the follower it was; a crash after (2) reboots as the owned
// primary of the new term.
type Node struct {
	cfg  NodeConfig
	logf func(string, ...any)

	mu        sync.Mutex // serializes role transitions
	cancel    context.CancelFunc
	done      chan struct{}
	follower  atomic.Pointer[Follower]
	serving   atomic.Pointer[servingHalf]
	isPrimary atomic.Bool
	promoting atomic.Bool

	promotions atomic.Uint64
	repoints   atomic.Uint64
}

// NewNode validates the wiring and returns a node with no role yet; call
// Follow to start tailing (or Promote to claim the primary role directly).
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Store == nil || cfg.Graph == nil {
		return nil, errors.New("replicate: NodeConfig needs Store and Graph")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = PrimaryConfig{}.logf()
	}
	return &Node{cfg: cfg, logf: logf}, nil
}

func (n *Node) inject(point string) error {
	if n.cfg.Inject == nil {
		return nil
	}
	return n.cfg.Inject(point)
}

// Follow (re-)points the node at primaryURL: any current tail is stopped,
// a fresh follower bootstraps against the new primary (a no-op beyond the
// lag reference when local state exists — the epoch machinery reconciles a
// forked history on the first tail exchange), and tailing resumes in the
// background. It refuses on a promoted node: demoting a primary requires a
// restart, so the decision to abandon write ownership is never one HTTP
// request away.
func (n *Node) Follow(ctx context.Context, primaryURL string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isPrimary.Load() {
		return errors.New("replicate: node is primary; restart it as a follower to demote")
	}
	f, err := NewFollower(FollowerConfig{
		Primary:    primaryURL,
		Graph:      n.cfg.Graph,
		Store:      n.cfg.Store,
		Client:     n.cfg.Client,
		WaitMS:     n.cfg.WaitMS,
		RetryMin:   n.cfg.RetryMin,
		RetryMax:   n.cfg.RetryMax,
		FlushCache: n.cfg.FlushCache,
		Logf:       n.cfg.Logf,
	})
	if err != nil {
		return err
	}
	n.stopTailingLocked()
	if err := f.Bootstrap(ctx); err != nil {
		return fmt.Errorf("replicate: bootstrapping against %s: %w", primaryURL, err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	n.cancel, n.done = cancel, done
	n.follower.Store(f)
	go func() {
		defer close(done)
		_ = f.Run(runCtx)
	}()
	n.repoints.Add(1)
	n.logf("replicate: following %s (epoch %d, version %d)", f.base, f.epoch(), n.cfg.Graph.Version())
	return nil
}

func (n *Node) stopTailingLocked() {
	if n.cancel != nil {
		n.cancel()
		<-n.done
		n.cancel, n.done = nil, nil
	}
	n.follower.Store(nil)
}

// Promote claims the next epoch for this node and switches it to the
// primary role, returning the new term. Promoting an already-promoted node
// is an idempotent success (retried admin calls must not mint extra terms).
// On a crash-point abort the node deliberately stays not-ready — exactly
// like the process crash it simulates — until rebooted or re-promoted.
func (n *Node) Promote() (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isPrimary.Load() {
		epoch, _, _ := n.cfg.Store.Epoch()
		return epoch, nil
	}
	n.promoting.Store(true)
	n.stopTailingLocked()
	if err := n.inject("promote.pre-fence"); err != nil {
		return 0, fmt.Errorf("replicate: promote aborted before fence: %w", err)
	}
	cur, _, _ := n.cfg.Store.Epoch()
	epoch := cur + 1
	start := n.cfg.Graph.Version() + 1
	if err := n.cfg.Store.PromoteEpoch(epoch, start); err != nil {
		return 0, fmt.Errorf("replicate: fencing epoch %d: %w", epoch, err)
	}
	n.cfg.Graph.AdvanceVersionTo(start)
	if err := n.inject("promote.post-fence"); err != nil {
		return 0, fmt.Errorf("replicate: promote aborted after fence (epoch %d is durable): %w", epoch, err)
	}
	n.finishPromotionLocked(epoch)
	n.logf("replicate: promoted to primary at epoch %d (fence at version %d)", epoch, start)
	return epoch, nil
}

// BecomePrimary adopts the primary role without minting a new epoch — the
// boot path for a node whose store already owns its term (a promoted node
// restarting, or a fresh pre-epoch primary).
func (n *Node) BecomePrimary() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isPrimary.Load() {
		return nil
	}
	if _, _, owned := n.cfg.Store.Epoch(); !owned {
		epoch, _, _ := n.cfg.Store.Epoch()
		return fmt.Errorf("replicate: store does not own epoch %d; promote instead", epoch)
	}
	n.stopTailingLocked()
	epoch, _, _ := n.cfg.Store.Epoch()
	n.finishPromotionLocked(epoch)
	return nil
}

func (n *Node) finishPromotionLocked(epoch uint64) {
	// Primaries tee local ingest into the WAL; the graph carried no journal
	// while following (records were re-journaled by the apply path).
	n.cfg.Graph.SetJournal(n.cfg.Store)
	p := NewPrimary(PrimaryConfig{
		Store:   n.cfg.Store,
		Version: n.cfg.Graph.Version,
		Logf:    n.cfg.Logf,
	})
	n.serving.Store(&servingHalf{p: p, h: p.Handler()})
	n.isPrimary.Store(true)
	n.promoting.Store(false)
	n.promotions.Add(1)
}

// Close stops the tailing goroutine, if any.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopTailingLocked()
}

// Role reports "primary", "follower", or "promoting".
func (n *Node) Role() string {
	switch {
	case n.promoting.Load():
		return "promoting"
	case n.isPrimary.Load():
		return "primary"
	default:
		return "follower"
	}
}

// Epoch is the node's current failover term.
func (n *Node) Epoch() uint64 {
	e, _, _ := n.cfg.Store.Epoch()
	return e
}

// Follower returns the tailing half while following (nil otherwise);
// Primary returns the serving half once promoted (nil otherwise).
func (n *Node) Follower() *Follower { return n.follower.Load() }
func (n *Node) Primary() *Primary {
	if s := n.serving.Load(); s != nil {
		return s.p
	}
	return nil
}

// Promotions counts successful promotions since the process started.
func (n *Node) Promotions() uint64 { return n.promotions.Load() }

// PrimaryURL reports the URL this node is currently tailing, or "" when it
// is not following anyone (promoted, or mid-transition).
func (n *Node) PrimaryURL() string {
	if f := n.follower.Load(); f != nil {
		return f.base
	}
	return ""
}

// Ready implements the /readyz contract across role transitions. The
// mid-promote window reports not-ready: between stopping the tail and the
// fence fsync the node is neither a current follower nor a primary anyone
// may write to, and load balancers must not route to it.
func (n *Node) Ready() (bool, string) {
	if n.promoting.Load() {
		return false, "promotion in progress: epoch fence not yet durable"
	}
	if n.isPrimary.Load() {
		return true, ""
	}
	if f := n.follower.Load(); f != nil {
		return f.Ready(n.cfg.MaxLag)
	}
	return false, "not following any primary"
}

// ReplHandler serves the /v1/repl/ surface: delegated to the promoted
// serving half, 503 while still a follower (a follower's log is not
// authoritative — replicas must chain from the primary).
func (n *Node) ReplHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := n.serving.Load(); s != nil {
			s.h.ServeHTTP(w, r)
			return
		}
		httpError(w, http.StatusServiceUnavailable, errors.New("not primary: this node does not serve replication"))
	})
}

// AdminHandler serves the failover control surface on absolute paths:
//
//	POST /v1/admin/promote  claim the next epoch and become primary
//	POST /v1/admin/follow   {"primary": "http://host:port"} re-point the tail
func (n *Node) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		epoch, err := n.Promote()
		if err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"role":    n.Role(),
			"epoch":   epoch,
			"version": n.cfg.Graph.Version(),
		})
	})
	mux.HandleFunc("POST /v1/admin/follow", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Primary string `json:"primary"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad body: %w", err))
			return
		}
		if strings.TrimSpace(body.Primary) == "" {
			httpError(w, http.StatusBadRequest, errors.New(`bad body: "primary" URL required`))
			return
		}
		if err := n.Follow(r.Context(), body.Primary); err != nil {
			status := http.StatusBadGateway
			if n.isPrimary.Load() {
				status = http.StatusConflict
			}
			httpError(w, status, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"role":    n.Role(),
			"primary": body.Primary,
			"epoch":   n.Epoch(),
			"version": n.cfg.Graph.Version(),
		})
	})
	return mux
}
