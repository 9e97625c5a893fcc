package mpc

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
)

// testGraph: 0-1, 1-2, 2-3, 3-4, 0-4 (5-cycle) plus chord 1-3.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.New(5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 0, V: 4}, {U: 1, V: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func distTestGraph(t *testing.T, machines int) *DistGraph {
	t.Helper()
	g := testGraph(t)
	c, err := NewCluster(Config{Machines: machines}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Distribute(c, g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDistributeChargesResidentMemory(t *testing.T) {
	d := distTestGraph(t, 2)
	c := d.Cluster()
	// Total resident across machines: sum over v of (2 + deg(v)) = 2n + 2m.
	total := 0
	for m := 0; m < c.Machines(); m++ {
		total += c.Resident(m)
	}
	if want := 2*5 + 2*6; total != want {
		t.Fatalf("resident total = %d, want %d", total, want)
	}
}

func TestDistributeOrderMismatch(t *testing.T) {
	g := testGraph(t)
	c, err := NewCluster(Config{Machines: 2}, g.N()+1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distribute(c, g); err == nil {
		t.Fatal("order mismatch accepted")
	}
}

func TestNotifyNeighbors(t *testing.T) {
	for _, machines := range []int{1, 2, 5} {
		d := distTestGraph(t, machines)
		marked := bitset.New(5)
		marked.Add(1)
		touched, err := d.NotifyNeighbors("n", marked, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 2, 3} // neighbors of 1
		if touched.Count() != len(want) {
			t.Fatalf("machines=%d: touched %v", machines, touched.Elements())
		}
		for _, v := range want {
			if !touched.Contains(v) {
				t.Fatalf("machines=%d: %d not touched", machines, v)
			}
		}
	}
}

func TestNotifyNeighborsRestricted(t *testing.T) {
	d := distTestGraph(t, 3)
	marked := bitset.New(5)
	marked.Add(1)
	restrict := bitset.New(5)
	restrict.Add(2) // only 2 may be notified
	touched, err := d.NotifyNeighbors("n", marked, restrict)
	if err != nil {
		t.Fatal(err)
	}
	if touched.Count() != 1 || !touched.Contains(2) {
		t.Fatalf("restricted touched = %v", touched.Elements())
	}
}

func TestExchangeActive(t *testing.T) {
	for _, machines := range []int{1, 3, 5} {
		d := distTestGraph(t, machines)
		active := bitset.New(5)
		for _, v := range []int{0, 1, 3} {
			active.Add(v)
		}
		nbrs, err := d.ExchangeActive("x", active, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Active subgraph on {0,1,3}: edges 0-1, 1-3.
		wantNbrs := map[int][]int32{0: {1}, 1: {0, 3}, 3: {1}}
		for _, v := range []int{0, 1, 3} {
			want := wantNbrs[v]
			got := nbrs.Row(v)
			if len(got) != len(want) {
				t.Fatalf("machines=%d: nbrs[%d] = %v, want %v", machines, v, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("machines=%d: nbrs[%d] = %v, want %v (order matters)", machines, v, got, want)
				}
			}
		}
		// Inactive vertices have no view.
		if len(nbrs.Row(2)) != 0 || len(nbrs.Row(4)) != 0 {
			t.Fatalf("machines=%d: inactive vertices got views", machines)
		}
	}
}

func TestExchangeActiveWithValues(t *testing.T) {
	d := distTestGraph(t, 2)
	active := bitset.New(5)
	active.Fill()
	vals := []int32{10, 11, 12, 13, 14}
	nbrs, err := d.ExchangeActive("x", active, vals)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if len(nbrs.Row(v)) != len(nbrs.Vals(v)) {
			t.Fatalf("misaligned values at %d", v)
		}
		for i, u := range nbrs.Row(v) {
			if nbrs.Vals(v)[i] != vals[u] {
				t.Fatalf("value for neighbor %d of %d = %d, want %d", u, v, nbrs.Vals(v)[i], vals[u])
			}
		}
	}
}

func TestGatherSubgraph(t *testing.T) {
	for _, machines := range []int{1, 2, 4} {
		d := distTestGraph(t, machines)
		include := bitset.New(5)
		for _, v := range []int{1, 2, 3} {
			include.Add(v)
		}
		sub, toOrig, err := d.GatherSubgraph("g", include)
		if err != nil {
			t.Fatal(err)
		}
		if sub.N() != 3 {
			t.Fatalf("machines=%d: sub n = %d", machines, sub.N())
		}
		// Induced edges on {1,2,3}: 1-2, 2-3, 1-3.
		if sub.M() != 3 {
			t.Fatalf("machines=%d: sub m = %d, want 3", machines, sub.M())
		}
		for i, orig := range toOrig {
			if orig != int32(i+1) {
				t.Fatalf("machines=%d: toOrig = %v", machines, toOrig)
			}
		}
	}
}

func TestGatherSubgraphChargesCoordinator(t *testing.T) {
	d := distTestGraph(t, 2)
	c := d.Cluster()
	before := c.Resident(0)
	include := bitset.New(5)
	include.Fill()
	sub, _, err := d.GatherSubgraph("g", include)
	if err != nil {
		t.Fatal(err)
	}
	want := before + sub.N() + 2*sub.M()
	if c.Resident(0) != want {
		t.Fatalf("coordinator resident = %d, want %d", c.Resident(0), want)
	}
}

// randomSet returns a subset of [0, n) holding each vertex with probability
// 1/2 (all or none on a quarter of the draws each, to cover the extremes).
func randomSet(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	switch rng.Intn(4) {
	case 0:
		return s
	case 1:
		s.Fill()
		return s
	}
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			s.Add(v)
		}
	}
	return s
}

// checkRows fails unless a's rows are laid out back to back (row v ends
// exactly where row v+1 starts) and row v equals want(v), with values
// aligned when vals is non-nil.
func checkRows(t *testing.T, a Adjacency, n int, want func(v int) []int32, vals []int32) {
	t.Helper()
	if len(a.Off) != n+1 || a.Off[0] != 0 || int(a.Off[n]) != len(a.Nbr) {
		t.Fatalf("offsets %v do not span %d neighbours over %d rows", a.Off, len(a.Nbr), n)
	}
	if (vals != nil) != (a.Val != nil) || (vals != nil && len(a.Val) != len(a.Nbr)) {
		t.Fatalf("values: %d for %d neighbours, exchanged %v", len(a.Val), len(a.Nbr), vals != nil)
	}
	for v := 0; v < n; v++ {
		w := want(v)
		if int(a.Off[v+1]-a.Off[v]) != len(w) {
			t.Fatalf("row %d spans [%d, %d), want %d neighbours", v, a.Off[v], a.Off[v+1], len(w))
		}
		if got := a.Row(v); !slices.Equal(got, w) {
			t.Fatalf("row %d = %v, want %v", v, got, w)
		}
		if vals == nil {
			continue
		}
		for i, u := range a.Row(v) {
			if a.Vals(v)[i] != vals[u] {
				t.Fatalf("value of neighbour %d of %d = %d, want %d", u, v, a.Vals(v)[i], vals[u])
			}
		}
	}
}

// TestExchangeActiveProperty checks ExchangeActive and NotifyNeighbors
// against brute force on random graphs, machine counts and active sets:
// rows are the ascending active neighbourhoods (empty for inactive
// vertices) with aligned values, the traffic is one or two words per
// (active vertex, neighbour) pair, and the notified set is the marked
// vertices' neighbourhood, restricted or not.
func TestExchangeActiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		g, err := gen.GNP(n, 0.3*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, machines := range []int{1, 3, 8} {
			c, err := NewCluster(Config{Machines: machines}, n)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Distribute(c, g)
			if err != nil {
				t.Fatal(err)
			}
			active := randomSet(rng, n)
			activeNbrs := func(v int) []int32 {
				var row []int32
				if active.Contains(v) {
					for _, u := range g.Neighbors(v) {
						if active.Contains(int(u)) {
							row = append(row, u)
						}
					}
				}
				return row
			}
			for _, withVals := range []bool{false, true} {
				var vals []int32
				if withVals {
					vals = make([]int32, n)
					for i := range vals {
						vals[i] = rng.Int31() - 1<<30
					}
				}
				before := c.Stats().Words
				a, err := d.ExchangeActive("x", active, vals)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, a, n, activeNbrs, vals)
				stride := int64(1)
				if vals != nil {
					stride = 2
				}
				var want int64
				active.ForEach(func(u int) bool {
					want += stride * int64(g.Degree(u))
					return true
				})
				if got := c.Stats().Words - before; got != want {
					t.Fatalf("n=%d machines=%d: exchange moved %d words, want %d", n, machines, got, want)
				}
			}
			for _, restrict := range []*bitset.Set{nil, randomSet(rng, n)} {
				touched, err := d.NotifyNeighbors("n", active, restrict)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					want := false
					if restrict == nil || restrict.Contains(v) {
						for _, u := range g.Neighbors(v) {
							want = want || active.Contains(int(u))
						}
					}
					if touched.Contains(v) != want {
						t.Fatalf("n=%d machines=%d restricted=%v: touched(%d) = %v, want %v",
							n, machines, restrict != nil, v, !want, want)
					}
				}
			}
		}
	}
}

// TestExchangeActiveAllocs pins that an exchange allocates per machine, not
// per vertex or edge: the same number of allocations on graphs of 1024 and
// 8192 vertices at a fixed machine count.
func TestExchangeActiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := func(n int, vals bool) float64 {
		g, err := gen.GNP(n, 16/float64(n), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(Config{Machines: 4, Parallelism: 1}, n)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Distribute(c, g)
		if err != nil {
			t.Fatal(err)
		}
		active := bitset.New(n)
		active.Fill()
		var deg []int32
		if vals {
			deg = make([]int32, n)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := d.ExchangeActive("x", active, deg); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, vals := range []bool{false, true} {
		small, large := allocs(1024, vals), allocs(8192, vals)
		if small != large {
			t.Errorf("vals=%v: %v allocations at n=1024, %v at n=8192", vals, small, large)
		}
	}
}
