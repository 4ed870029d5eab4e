package bipartite

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrIDRange tags failures caused by a node id above a configured bound —
// distinct from parse errors or I/O failures, so callers can decide whether
// raising the bound is the right remedy before suggesting it.
var ErrIDRange = errors.New("node id out of range")

// Edge-list text format: one edge per line, "user<TAB>merchant" (or any run
// of spaces/tabs as separator). Lines starting with '#' and blank lines are
// ignored.

// ReadEdgeList parses a text edge list into a Graph. Side sizes are inferred
// from the largest ids present. Ids up to MaxNodeID are accepted.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return ReadEdgeListMax(r, MaxNodeID)
}

// MaxNodeID is the largest node id ReadEdgeList accepts. Ids are dense
// indices, so graph memory is proportional to the largest id present; the
// very top of the uint32 range is additionally excluded because CSR offset
// arithmetic indexes by id+1.
const MaxNodeID = 1<<32 - 2

// ReadEdgeListMax parses a text edge list, rejecting any node id above
// maxID. The parsed edge slice is handed to the CSR builder without an
// intermediate copy, so peak memory is one edge slice plus the graph.
func ReadEdgeListMax(r io.Reader, maxID uint32) (*Graph, error) {
	edges, err := ReadEdgesMax(r, maxID)
	if err != nil {
		return nil, err
	}
	numUsers, numMerchants := 0, 0
	for _, e := range edges {
		if int(e.U) >= numUsers {
			numUsers = int(e.U) + 1
		}
		if int(e.V) >= numMerchants {
			numMerchants = int(e.V) + 1
		}
	}
	return buildFromEdges(numUsers, numMerchants, edges), nil
}

// ReadEdgesMax parses the text edge-list format into a raw edge slice
// without building a graph — the right entry point when the edges feed a
// dynamic ingest path rather than an immediate CSR. Any node id above maxID
// is rejected; callers ingesting untrusted files should pass a bound
// matching the memory they are willing to spend, since ids are dense
// indices and a single line naming id 2^32-2 is 20 bytes of input that
// commits downstream consumers to gigabytes of offset arrays.
func ReadEdgesMax(r io.Reader, maxID uint32) ([]Edge, error) {
	if maxID > MaxNodeID {
		maxID = MaxNodeID
	}
	var edges []Edge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("bipartite: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bipartite: line %d: bad user id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bipartite: line %d: bad merchant id %q: %w", lineNo, fields[1], err)
		}
		if u > uint64(maxID) || v > uint64(maxID) {
			return nil, fmt.Errorf("bipartite: line %d: %w: node id exceeds maximum %d", lineNo, ErrIDRange, maxID)
		}
		edges = append(edges, Edge{U: uint32(u), V: uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bipartite: reading edge list: %w", err)
	}
	return edges, nil
}

// WriteEdgeList writes g in the text edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.Edges(func(e Edge) bool {
		_, err = fmt.Fprintf(bw, "%d\t%d\n", e.U, e.V)
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("bipartite: writing edge list: %w", err)
	}
	return bw.Flush()
}
