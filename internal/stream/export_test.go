package stream

import "fmt"

// checkRuns verifies every shard's run table against its log: rows are
// non-empty and sorted by end, the last row ends at the log's end, and every
// row has been stamped. A graph without a window must hold no log, no rows
// and a zero mark. Call it with no append in flight.
func checkRuns(g *Graph) error {
	for i := range g.shards {
		if err := g.shards[i].checkRuns(g.window.Enabled()); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func (s *shard) checkRuns(logged bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !logged && (len(s.entries) > 0 || len(s.runs) > 0 || s.snapMark != 0) {
		return fmt.Errorf("no window, yet %d log entries, %d run rows, mark %d", len(s.entries), len(s.runs), s.snapMark)
	}
	lo := 0
	for j, r := range s.runs {
		if r.end <= lo {
			return fmt.Errorf("row %d: end %d not past %d", j, r.end, lo)
		}
		if r.ver == 0 {
			return fmt.Errorf("row %d: unstamped", j)
		}
		lo = r.end
	}
	if lo != len(s.entries) {
		return fmt.Errorf("rows end at %d, log at %d", lo, len(s.entries))
	}
	return nil
}

// runsOutOfOrder reports whether some shard's run table holds a row whose
// version is below an earlier row's, i.e. two same-shard batches committed
// in the opposite order to their appends.
func runsOutOfOrder(g *Graph) bool {
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		var top uint64
		out := false
		for _, r := range s.runs {
			out = out || r.ver < top
			top = max(top, r.ver)
		}
		s.mu.Unlock()
		if out {
			return true
		}
	}
	return false
}

// SetDeltaHistoryLimit replaces the touched-node history bound (in summed
// endpoints across retained records; 0 or negative disables tracking). The
// existing history is discarded and the floor rises to the current version,
// so the next Delta range starts fresh — the limit is a construction-time
// tuning knob, not something to flip per query.
func (g *Graph) SetDeltaHistoryLimit(nodes int) {
	g.histMu.Lock()
	defer g.histMu.Unlock()
	g.histLimit = nodes
	g.histResetLocked(g.version.Load())
}
