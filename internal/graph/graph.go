// Package graph implements the static undirected graph substrate used by the
// MPC simulator and the ruling-set algorithms.
//
// Graphs are stored in compressed sparse row (CSR) form: simple, undirected,
// with vertices identified by integers in [0, n). All construction paths
// deduplicate parallel edges and reject self-loops, so algorithm code can
// assume a simple graph.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Graph is an immutable simple undirected graph in CSR form.
//
// The zero value is the empty graph on zero vertices.
type Graph struct {
	offsets []int32 // len n+1
	adj     []int32 // len 2m, neighbor lists sorted ascending
}

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int32
}

// ErrVertexRange indicates an edge endpoint outside [0, n).
var ErrVertexRange = errors.New("graph: vertex out of range")

// New builds a graph on n vertices from the given edge list. Self-loops are
// rejected; duplicate edges (in either orientation) are merged.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrVertexRange, e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
	}
	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]int32, offsets[n])
	cursor := deg // the degrees are spent: reuse them as fill cursors
	copy(cursor, offsets[:n])
	for _, e := range edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := &Graph{offsets: offsets, adj: adj}
	g.sortAndDedupe()
	return g, nil
}

// MustNew is New but panics on error; intended for tests and generators whose
// inputs are correct by construction.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// sortAndDedupe sorts each adjacency list and removes duplicate entries,
// compacting the CSR arrays in place. A list New filled in ascending order
// (gen.GNP's edges, ordered by larger and then smaller endpoint, fill every
// list so) is not sorted again, and sorting allocates nothing, so New
// allocates the same whatever n.
func (g *Graph) sortAndDedupe() {
	n := g.N()
	write := int32(0)
	newOffsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		list := g.adj[lo:hi]
		if !slices.IsSorted(list) {
			slices.Sort(list)
		}
		newOffsets[v] = write
		var prev int32 = -1
		for _, u := range list {
			if u != prev {
				g.adj[write] = u
				write++
				prev = u
			}
		}
	}
	newOffsets[n] = write
	g.offsets = newOffsets
	g.adj = g.adj[:write]
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// CSR returns the flat adjacency behind Neighbors: v's sorted neighbour list
// is adj[off[v]:off[v+1]]. Both slices alias internal storage and must not
// be modified.
func (g *Graph) CSR() (off, adj []int32) { return g.offsets, g.adj }

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	_, found := slices.BinarySearch(g.Neighbors(u), int32(v))
	return found
}

// MaxDegree returns the maximum degree Δ (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		if dv := g.Degree(v); dv > d {
			d = dv
		}
	}
	return d
}

// AvgDegree returns the average degree 2m/n (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(g.N())
}

// ForEachEdge calls f once per undirected edge with u < v.
func (g *Graph) ForEachEdge(f func(u, v int32)) {
	for v := int32(0); int(v) < g.N(); v++ {
		for _, u := range g.Neighbors(int(v)) {
			if v < u {
				f(v, u)
			}
		}
	}
}

// Edges returns all undirected edges with U < V.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	g.ForEachEdge(func(u, v int32) {
		out = append(out, Edge{U: u, V: v})
	})
	return out
}

// BFSFrom computes hop distances from the source set. dist[v] == -1 means v
// is unreachable from every source.
func (g *Graph) BFSFrom(sources []int32) []int32 {
	n := g.N()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, n)
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// ConnectedComponents returns a component id per vertex and the component
// count. Ids are assigned in order of smallest contained vertex.
func (g *Graph) ConnectedComponents() (comp []int32, count int) {
	n := g.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		comp[s] = id
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
				}
			}
		}
	}
	return comp, count
}

// Validate checks structural invariants of the CSR representation. It returns
// nil for every graph produced by New; tests use it as the invariant check.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.offsets) > 0 && g.offsets[0] != 0 {
		return errors.New("graph: offsets must start at 0")
	}
	// Pass 1: the offsets array must be monotone and within the adjacency
	// array before any slicing (including HasEdge lookups below) is safe.
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at %d", v)
		}
		if g.offsets[v] < 0 || int(g.offsets[v+1]) > len(g.adj) {
			return fmt.Errorf("graph: offsets of %d outside adjacency array", v)
		}
	}
	// Pass 2: adjacency contents.
	for v := 0; v < n; v++ {
		list := g.adj[g.offsets[v]:g.offsets[v+1]]
		for i, u := range list {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("%w: neighbor %d of %d", ErrVertexRange, u, v)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if i > 0 && list[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, u)
			}
		}
	}
	if n > 0 && int(g.offsets[n]) != len(g.adj) {
		return errors.New("graph: final offset does not cover adjacency array")
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}
