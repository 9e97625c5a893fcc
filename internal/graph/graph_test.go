package graph

import (
	"cmp"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func path5(t *testing.T) *Graph {
	t.Helper()
	g, err := New(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewBasics(t *testing.T) {
	g := path5(t)
	if g.N() != 5 || g.M() != 4 {
		t.Fatalf("n=%d m=%d, want 5, 4", g.N(), g.M())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(2))
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) || g.HasEdge(0, 2) {
		t.Fatalf("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestNewRejectsBadEdges(t *testing.T) {
	if _, err := New(3, []Edge{{U: 0, V: 3}}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out-of-range edge: got %v", err)
	}
	if _, err := New(3, []Edge{{U: -1, V: 1}}); !errors.Is(err, ErrVertexRange) {
		t.Errorf("negative endpoint: got %v", err)
	}
	if _, err := New(3, []Edge{{U: 1, V: 1}}); err == nil {
		t.Errorf("self-loop accepted")
	}
	if _, err := New(-1, nil); err == nil {
		t.Errorf("negative n accepted")
	}
}

func TestDuplicateEdgesMerged(t *testing.T) {
	g, err := New(3, []Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d, want 2 after dedupe", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees after dedupe: %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatalf("empty graph stats wrong")
	}
	var zero Graph
	if zero.N() != 0 {
		t.Fatalf("zero value N = %d", zero.N())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := path5(t)
	edges := g.Edges()
	if len(edges) != g.M() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.M())
	}
	g2, err := New(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestBFSFrom(t *testing.T) {
	g := path5(t)
	dist := g.BFSFrom([]int32{0})
	want := []int32{0, 1, 2, 3, 4}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
	dist = g.BFSFrom([]int32{0, 4})
	want = []int32{0, 1, 2, 1, 0}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("multi-source dist[%d] = %d, want %d", i, d, want[i])
		}
	}
	dist = g.BFSFrom(nil)
	for i, d := range dist {
		if d != -1 {
			t.Errorf("no-source dist[%d] = %d, want -1", i, d)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g, err := New(6, []Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	comp, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[3] != comp[4] {
		t.Errorf("components grouped wrong: %v", comp)
	}
	if comp[0] == comp[2] || comp[2] == comp[5] {
		t.Errorf("distinct components merged: %v", comp)
	}
}

func TestCSR(t *testing.T) {
	g := path5(t)
	off, adj := g.CSR()
	if len(off) != g.N()+1 || int(off[g.N()]) != len(adj) || len(adj) != 2*g.M() {
		t.Fatalf("CSR shape: %d offsets, final %d, %d adjacency entries", len(off), off[len(off)-1], len(adj))
	}
	for v := 0; v < g.N(); v++ {
		if got := adj[off[v]:off[v+1]]; !reflect.DeepEqual(got, g.Neighbors(v)) {
			t.Fatalf("CSR row %d = %v, Neighbors = %v", v, got, g.Neighbors(v))
		}
	}
}

func TestString(t *testing.T) {
	if got, want := path5(t).String(), "graph{n=5 m=4 Δ=2}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	empty, err := New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := empty.String(), "graph{n=0 m=0 Δ=0}"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := path5(t)
	g.adj[0] = 99 // corrupt: out of range
	if err := g.Validate(); err == nil {
		t.Fatalf("validate accepted corrupted adjacency")
	}
}

func TestRandomGraphInvariants(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		var edges []Edge
		for i := 0; i < n*2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, Edge{U: int32(u), V: int32(v)})
			}
		}
		g, err := New(n, edges)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		// Handshake lemma.
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sortedEdges returns about 8n random edges on n vertices, duplicates
// included, ordered by larger and then smaller endpoint with U < V: the
// order in which New fills every adjacency list ascending.
func sortedEdges(rng *rand.Rand, n int) []Edge {
	edges := make([]Edge, 0, 8*n)
	for len(edges) < cap(edges) {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: min(u, v), V: max(u, v)})
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.V, b.V), cmp.Compare(a.U, b.U))
	})
	return edges
}

// TestNewShuffledMatchesSorted checks that New builds the same CSR from an
// edge list whatever its order and orientation: the sorted list, whose rows
// New fills ascending and never sorts, and shuffled copies with random
// endpoints swapped, whose rows it must sort.
func TestNewShuffledMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 3, 17, 200} {
		edges := sortedEdges(rng, n)
		ref, err := New(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Validate(); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			shuffled := slices.Clone(edges)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for i, e := range shuffled {
				if rng.Intn(2) == 0 {
					shuffled[i] = Edge{U: e.V, V: e.U}
				}
			}
			g, err := New(n, shuffled)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, ref) {
				t.Fatalf("n=%d trial %d: the shuffled edge list built a different CSR", n, trial)
			}
		}
	}
}

// TestNewAllocs pins that New allocates a fixed number of times, not once
// or twice per vertex: the same count on 1024 and 8192 vertices, sorted
// edge list or shuffled.
func TestNewAllocs(t *testing.T) {
	allocs := func(n int, shuffle bool) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		edges := sortedEdges(rng, n)
		if shuffle {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := New(n, edges); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, shuffle := range []bool{false, true} {
		small, large := allocs(1024, shuffle), allocs(8192, shuffle)
		if small != large || large > 6 {
			t.Errorf("shuffle=%v: %v allocations at n=1024, %v at n=8192, want the same at most 6", shuffle, small, large)
		}
	}
}
