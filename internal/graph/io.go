package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format limits for untrusted inputs: parsers reject headers claiming more
// than these, so a tiny corrupt file cannot demand a giant allocation.
const (
	_maxVertices = 1 << 24
	_maxAdjWords = 1 << 26
)

// WriteEdgeList writes the graph in a plain-text edge-list format: a header
// line "n m" followed by one "u v" line per edge with u < v. Lines beginning
// with '#' are comments on read.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", g.N(), g.M()); err != nil {
		return fmt.Errorf("graph: write header: %w", err)
	}
	var werr error
	g.ForEachEdge(func(u, v int32) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
	})
	if werr != nil {
		return fmt.Errorf("graph: write edge: %w", werr)
	}
	return bw.Flush()
}

// ReadEdgeList parses the text edge-list format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		n, m      int
		haveHead  bool
		edges     []Edge
		lineCount int
	)
	for sc.Scan() {
		lineCount++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineCount, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineCount, err)
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineCount, err)
		}
		if !haveHead {
			if a < 0 || b < 0 || a > _maxVertices || b > _maxAdjWords {
				return nil, fmt.Errorf("graph: line %d: header values out of range (%d %d)", lineCount, a, b)
			}
			n, m = a, b
			haveHead = true
			edges = make([]Edge, 0, min(m, 1<<20)) // capacity hint, distrusting the header
			continue
		}
		if a < 0 || b < 0 || a >= n || b >= n {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range for n=%d", lineCount, n)
		}
		edges = append(edges, Edge{U: int32(a), V: int32(b)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	if !haveHead {
		return nil, fmt.Errorf("graph: missing header line")
	}
	g, err := New(n, edges)
	if err != nil {
		return nil, err
	}
	if g.M() != m {
		return nil, fmt.Errorf("graph: header claims %d edges, parsed %d", m, g.M())
	}
	return g, nil
}
