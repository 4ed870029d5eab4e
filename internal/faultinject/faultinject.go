// Package faultinject is a deterministic, seed-driven fault injector for the
// replication stack. Production code exposes named injection points (the
// replication Node's crash-points) and drill tests arm rules against them:
// crashes around the promote fsync, and — through Transport — dropped,
// delayed, or torn replication HTTP exchanges.
//
// Every decision an Injector makes flows from its seed, so a failing drill
// replays byte-identically. The zero-value rules are the common cases: an
// armed point with an empty Rule fires on every check.
//
//ensemfdet:testonly only drill tests import this package
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrInjected is the default error returned by a firing point; drills match
// it with errors.Is to tell injected failures from real ones.
var ErrInjected = errors.New("faultinject: injected failure")

// Rule shapes when an armed point fires.
type Rule struct {
	// Prob is the per-check firing probability; 0 means always fire.
	Prob float64
	// After skips the first After checks before the rule may fire.
	After int
	// Count caps total firings; 0 means unlimited.
	Count int
	// Err is the error a firing check returns (nil → ErrInjected, wrapped
	// with the point name).
	Err error
}

type ruleState struct {
	rule   Rule
	checks int
	fired  int
}

// Injector dispatches named injection points. All methods are safe for
// concurrent use, and every method is a no-op on a nil receiver, so
// production code can call Check unconditionally.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	armed map[string]*ruleState
	hits  map[string]int
}

// New returns an injector whose probabilistic decisions derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		armed: make(map[string]*ruleState),
		hits:  make(map[string]int),
	}
}

// Arm installs (or replaces) the rule for a point.
func (in *Injector) Arm(point string, r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.armed[point] = &ruleState{rule: r}
	in.mu.Unlock()
}

// Disarm removes the rule for a point; its hit count is preserved.
func (in *Injector) Disarm(point string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	delete(in.armed, point)
	in.mu.Unlock()
}

// Check consults the point's rule and returns its error when it fires, nil
// otherwise. Unarmed points never fire.
func (in *Injector) Check(point string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.armed[point]
	if !ok {
		return nil
	}
	st.checks++
	if st.checks <= st.rule.After {
		return nil
	}
	if st.rule.Count > 0 && st.fired >= st.rule.Count {
		return nil
	}
	if st.rule.Prob > 0 && in.rng.Float64() >= st.rule.Prob {
		return nil
	}
	st.fired++
	in.hits[point]++
	if st.rule.Err != nil {
		return st.rule.Err
	}
	return fmt.Errorf("%w at %s", ErrInjected, point)
}

// Hits reports how many times a point has fired since New.
func (in *Injector) Hits(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[point]
}

// Transport point names. Drop aborts the exchange before it is sent, Delay
// sleeps before sending, Torn truncates the response body mid-stream — the
// follower then sees exactly what a primary dying mid-chunk produces.
const (
	PointHTTPDrop  = "http.drop"
	PointHTTPDelay = "http.delay"
	PointHTTPTorn  = "http.torn"
)

// Transport wraps an http.RoundTripper with injectable request drops, delays,
// and torn response bodies. Install it as the follower client's Transport to
// drill the tailer against a misbehaving network or a dying primary.
type Transport struct {
	// Base performs the real exchange (nil → http.DefaultTransport).
	Base http.RoundTripper
	// Inj supplies the decisions; a nil injector passes everything through.
	Inj *Injector
	// Delay is how long a firing PointHTTPDelay sleeps (0 → 50ms).
	Delay time.Duration
	// TornAfter is how many body bytes survive a firing PointHTTPTorn
	// (0 → 64).
	TornAfter int64
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.Inj.Check(PointHTTPDrop); err != nil {
		return nil, err
	}
	if err := t.Inj.Check(PointHTTPDelay); err != nil {
		d := t.Delay
		if d <= 0 {
			d = 50 * time.Millisecond
		}
		time.Sleep(d)
	}
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if terr := t.Inj.Check(PointHTTPTorn); terr != nil {
		limit := t.TornAfter
		if limit <= 0 {
			limit = 64
		}
		resp.Body = &tornBody{rc: resp.Body, remaining: limit}
		// The declared length no longer matches what the body will deliver,
		// which is precisely the point: the client library surfaces an
		// unexpected-EOF mid-read, like a primary dying mid-chunk.
	}
	return resp, nil
}

// tornBody delivers at most remaining bytes and then fails the read, keeping
// the error distinguishable from a clean EOF.
type tornBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w: torn response body", ErrInjected)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	if err == nil && b.remaining <= 0 {
		err = fmt.Errorf("%w: torn response body", ErrInjected)
	}
	return n, err
}

func (b *tornBody) Close() error { return b.rc.Close() }
