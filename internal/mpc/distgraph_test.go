package mpc

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
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
	return distribute(t, testGraph(t), Config{Machines: machines})
}

func distribute(t *testing.T, g *graph.Graph, cfg Config) *DistGraph {
	t.Helper()
	c, err := NewCluster(cfg, g.N())
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

// viewOf returns active's symmetric view, refreshed from the graph's rows.
func viewOf(t *testing.T, d *DistGraph, active *bitset.Set) Adjacency {
	t.Helper()
	view, err := d.RefreshWithin("x", active, active, KeepHeard, GraphRows(d.Graph()), Adjacency{})
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestNotifyAlongGraphRows(t *testing.T) {
	for _, machines := range []int{1, 2, 5} {
		d := distTestGraph(t, machines)
		marked := bitset.New(5)
		marked.Add(1)
		touched, err := d.NotifyWithin("n", marked, GraphRows(d.Graph()))
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

func TestNotifyWithin(t *testing.T) {
	d := distTestGraph(t, 3)
	marked := bitset.New(5)
	marked.Add(1)
	active := bitset.New(5)
	active.Add(1)
	active.Add(2) // of 1's neighbours, only 2 is active
	touched, err := d.NotifyWithin("n", marked, viewOf(t, d, active))
	if err != nil {
		t.Fatal(err)
	}
	if touched.Count() != 1 || !touched.Contains(2) {
		t.Fatalf("touched along the view = %v", touched.Elements())
	}
}

func TestRefreshWithinGraphRows(t *testing.T) {
	for _, machines := range []int{1, 3, 5} {
		d := distTestGraph(t, machines)
		active := bitset.New(5)
		for _, v := range []int{0, 1, 3} {
			active.Add(v)
		}
		nbrs := viewOf(t, d, active)
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

func TestExchangeAlongValues(t *testing.T) {
	d := distTestGraph(t, 2)
	active := bitset.New(5)
	active.Fill()
	vals := []int32{10, 11, 12, 13, 14}
	nbrs, err := d.ExchangeAlong("v", active, viewOf(t, d, active), vals)
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
		// The announce round's view lands in fresh storage, in a recycled
		// view with room for it, or in one too small to take it.
		for _, reuse := range []Adjacency{{}, garbageView(5, 16), garbageView(1, 1)} {
			d := distTestGraph(t, machines)
			include := bitset.New(5)
			for _, v := range []int{1, 2, 3} {
				include.Add(v)
			}
			sub, toOrig, err := d.GatherSubgraph("g", include, reuse)
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
	// The graph's rows are never dead: offering them fails before any round.
	d := distTestGraph(t, 2)
	include := bitset.New(5)
	include.Fill()
	if _, _, err := d.GatherSubgraph("g", include, GraphRows(d.Graph())); err == nil {
		t.Fatal("gathering into the graph's rows succeeded")
	}
	if rounds := d.Cluster().Stats().Rounds; rounds != 0 {
		t.Fatalf("a refused gather ran %d rounds", rounds)
	}
}

func TestGatherSubgraphChargesCoordinator(t *testing.T) {
	d := distTestGraph(t, 2)
	c := d.Cluster()
	before := c.Resident(0)
	include := bitset.New(5)
	include.Fill()
	sub, _, err := d.GatherSubgraph("g", include, Adjacency{})
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
	return halfSet(rng, n)
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

// TestRefreshWithinProperty checks RefreshWithin, ExchangeAlong and
// NotifyWithin against brute force on random graphs, machine counts and
// active sets: a set's view refreshed from the graph's rows, and a marked
// subset's view refreshed from the set's view (luby/resolve), are the
// ascending active neighbourhoods (empty for inactive vertices) with
// aligned values; each refresh moves one word per (announcing vertex,
// distinct owner of its last row) and the values one per active edge end;
// and the notified set is the marked vertices' neighbourhood, or along the
// view its active part.
func TestRefreshWithinProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(80)
		g, err := gen.GNP(n, 0.3*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, machines := range []int{1, 3, 8} {
			d := distribute(t, g, Config{Machines: machines})
			c := d.Cluster()
			active := randomSet(rng, n)
			before := c.Stats().Words
			view := viewOf(t, d, active)
			checkRows(t, view, n, activeRows(g, active), nil)
			if got, want := c.Stats().Words-before, ownerWords(c, GraphRows(g), active); got != want {
				t.Fatalf("n=%d machines=%d: view moved %d words, want %d", n, machines, got, want)
			}
			vals := randomVals(rng, n)
			before = c.Stats().Words
			a, err := d.ExchangeAlong("v", active, view, vals)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, a, n, activeRows(g, active), vals)
			if got, want := c.Stats().Words-before, int64(len(view.Nbr)); got != want {
				t.Fatalf("n=%d machines=%d: values moved %d words, want %d", n, machines, got, want)
			}
			marked := halfSet(rng, n)
			marked.Intersect(active)
			before = c.Stats().Words
			resolve, err := d.RefreshWithin("r", marked, marked, KeepHeard, view, Adjacency{})
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, resolve, n, activeRows(g, marked), nil)
			if got, want := c.Stats().Words-before, ownerWords(c, view, marked); got != want {
				t.Fatalf("n=%d machines=%d: resolve moved %d words, want %d", n, machines, got, want)
			}
			for _, within := range []bool{false, true} {
				rows := GraphRows(g)
				if within {
					rows = view
				}
				touched, err := d.NotifyWithin("n", marked, rows)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < n; v++ {
					want := false
					if !within || active.Contains(v) {
						for _, u := range g.Neighbors(v) {
							want = want || marked.Contains(int(u))
						}
					}
					if touched.Contains(v) != want {
						t.Fatalf("n=%d machines=%d within=%v: touched(%d) = %v, want %v",
							n, machines, within, v, !want, want)
					}
				}
			}
		}
	}
}

// TestRefreshWithinAllocs pins that a view refresh (RefreshWithin from the
// graph's rows, or ExchangeAlong on a fixed view) allocates per machine,
// not per vertex or edge: the same number of allocations on graphs of 1024
// and 8192 vertices at a fixed machine count. It also pins that a repeated
// exchange of the same size reuses every machine's send slab, every
// worker block's heard-set and the value cursors, so it allocates only its
// result (a refresh's Off and Nbr, or the values) and a few kilobytes of
// per-machine bookkeeping and size-class rounding. On 65536 vertices and
// four worker blocks, fresh heard-sets (one per block and pass) would cost
// n bytes, fresh cursors 4n, and a fresh send slab far more; the test
// allows n/2.
func TestRefreshWithinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := func(n, par int, along bool) (count float64, extra int64) {
		g, err := gen.GNP(n, 16/float64(n), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		d := distribute(t, g, Config{Machines: 4, Parallelism: par})
		active := bitset.New(n)
		active.Fill()
		view := viewOf(t, d, active)
		deg := make([]int32, n)
		// The view's offsets and rows, or the values.
		result := int64(4 * (n + 1 + 2*g.M()))
		exchange := func() { viewOf(t, d, active) }
		if along {
			result = int64(4 * 2 * g.M())
			exchange = func() {
				if _, err := d.ExchangeAlong("v", active, view, deg); err != nil {
					t.Fatal(err)
				}
			}
		}
		count = testing.AllocsPerRun(20, exchange)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			exchange()
		}
		runtime.ReadMemStats(&after)
		return count, int64(after.TotalAlloc-before.TotalAlloc)/runs - result
	}
	for _, along := range []bool{false, true} {
		small, _ := allocs(1024, 1, along)
		large, _ := allocs(8192, 1, along)
		if small != large {
			t.Errorf("along=%v: %v allocations at n=1024, %v at n=8192", along, small, large)
		}
		const n = 1 << 16
		if _, extra := allocs(n, 4, along); extra > n/2 {
			t.Errorf("along=%v: a repeated exchange on %d vertices allocates %d bytes beyond its result: a send slab, a heard-set or the cursors were not reused",
				along, n, extra)
		}
	}
}

// garbageView returns a view-shaped buffer of n+1 offsets and k
// neighbours holding values no refresh would write, so a refresh that
// reads a stale entry of a recycled buffer shows up in its rows.
func garbageView(n, k int) Adjacency {
	a := Adjacency{Off: make([]int32, n+1), Nbr: make([]int32, k)}
	for i := range a.Off {
		a.Off[i] = int32(7*i + 3)
	}
	for i := range a.Nbr {
		a.Nbr[i] = -1
	}
	return a
}

// TestRefreshWithinReuse checks RefreshWithin into a recycled view. Into a
// buffer too small for the result, or large enough and full of stale
// entries, both refresh directions give the rows a fresh refresh gives
// (activeRows), at parallelism 1 and 4, and a large enough buffer is used
// in place. A buffer that shares an array with the view being refreshed or
// with the graph's rows is refused before any round runs. A steady-state
// refresh into its own last result allocates well under the n+1 offsets
// it would otherwise make afresh.
func TestRefreshWithinReuse(t *testing.T) {
	g := exchangeGraph(t, 11)
	rows := GraphRows(g)
	rng := rand.New(rand.NewSource(12))
	for _, par := range []int{1, 4} {
		d := distribute(t, g, Config{Machines: 5, Parallelism: par})
		active := halfSet(rng, exchangeN)
		departed := bitset.New(exchangeN)
		departed.Fill()
		departed.Subtract(active)
		for _, dir := range []Refresh{KeepHeard, DropHeard} {
			announce := active
			if dir == DropHeard {
				announce = departed
			}
			for _, size := range []struct {
				name string
				buf  Adjacency
			}{
				{"small", garbageView(2, 1)},
				{"large", garbageView(exchangeN, 2*g.M())},
			} {
				before := d.Cluster().Stats().Words
				view, err := d.RefreshWithin("r", active, announce, dir, rows, size.buf)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, view, exchangeN, activeRows(g, active), nil)
				if got, want := d.Cluster().Stats().Words-before, ownerWords(d.Cluster(), rows, announce); got != want {
					t.Fatalf("par=%d dir=%d %s: moved %d words, want %d", par, dir, size.name, got, want)
				}
				inPlace := sharesArray(view.Off, size.buf.Off) && sharesArray(view.Nbr, size.buf.Nbr)
				if inPlace != (size.name == "large") {
					t.Fatalf("par=%d dir=%d %s buffer: result in place = %v", par, dir, size.name, inPlace)
				}
			}
		}
	}

	d := distribute(t, g, Config{Machines: 5})
	active := halfSet(rng, exchangeN)
	view := viewOf(t, d, active)
	vals, err := d.ExchangeAlong("v", active, view, randomVals(rng, exchangeN))
	if err != nil {
		t.Fatal(err)
	}
	marks := halfSet(rng, exchangeN)
	marks.Intersect(active)
	for _, bad := range []struct {
		name        string
		last, reuse Adjacency
	}{
		{"the view being refreshed", view, view},
		{"its offsets", view, Adjacency{Off: view.Off}},
		{"its neighbours, resliced", view, Adjacency{Nbr: view.Nbr[:1]}},
		{"its values exchange", view, vals},
		{"the graph's rows", rows, rows},
		{"the graph's rows, refreshing another view", view, Adjacency{Nbr: rows.Nbr}},
	} {
		before := d.Cluster().Stats()
		if _, err := d.RefreshWithin("r", marks, marks, KeepHeard, bad.last, bad.reuse); err == nil {
			t.Errorf("recycling %s was accepted", bad.name)
		}
		if after := d.Cluster().Stats(); after.Rounds != before.Rounds || after.Words != before.Words {
			t.Errorf("recycling %s ran a round", bad.name)
		}
	}
	checkRows(t, view, exchangeN, activeRows(g, active), nil)
	checkRows(t, GraphRows(g), exchangeN, g.Neighbors, nil)

	// Bytes, unlike allocation counts, hold under the race detector too.
	const n = 1 << 16
	big, err := gen.GNP(n, 16.0/n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d = distribute(t, big, Config{Machines: 4, Parallelism: 4})
	active = halfSet(rng, n)
	buf := viewOf(t, d, active) // allocates the heard-sets and send slabs
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if buf, err = d.RefreshWithin("r", active, active, KeepHeard, GraphRows(big), buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if extra := int64(after.TotalAlloc-before.TotalAlloc) / runs; extra > n/4 {
		t.Errorf("a refresh into a recycled view on %d vertices allocates %d bytes, want at most n/4 = %d (fresh offsets are 4(n+1))",
			n, extra, n/4)
	}
}

// activeRows is the brute-force view of an exchange on active: row v is v's
// ascending active neighbourhood for active v, empty otherwise.
func activeRows(g *graph.Graph, active *bitset.Set) func(v int) []int32 {
	return func(v int) []int32 {
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
}

// halfSet returns a subset of [0, n) holding each vertex with probability
// 1/2.
func halfSet(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			s.Add(v)
		}
	}
	return s
}

// randomVals returns n random values, negative ones included.
func randomVals(rng *rand.Rand, n int) []int32 {
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = rng.Int31() - 1<<30
	}
	return vals
}

// exchangeN is the vertex count of the slab and pool tests: a multiple of
// neither 64 nor any machine count they use, so machine blocks split bitset
// words and CSR rows.
const exchangeN = 203

func exchangeGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.GNP(exchangeN, 0.06, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestVertexExchangesParallelismInvariant runs one sequence of vertex-keyed
// exchanges (a view refreshed from the graph's rows alone and followed by
// ExchangeAlong, NotifyWithin along the graph's rows and along the view,
// RefreshWithin both ways once the marked vertices leave, and the marked
// vertices' own view refreshed from the view) on one DistGraph at
// Parallelism 1, 2, 3 and 8: the views, touched sets and Stats must be
// identical at every level, and the serial views must match brute force.
// The senders reuse their slabs and the receivers their heard-sets across
// the sequence, and the receivers decode on the worker pool, so this is
// also the pool's race test.
func TestVertexExchangesParallelismInvariant(t *testing.T) {
	g := exchangeGraph(t, 11)
	rng := rand.New(rand.NewSource(12))
	active, marked := halfSet(rng, exchangeN), halfSet(rng, exchangeN)
	marked.Intersect(active)
	survivors := active.Clone()
	survivors.Subtract(marked)
	vals := randomVals(rng, exchangeN)
	type result struct {
		Views   []Adjacency
		Touched []*bitset.Set
		Stats   Stats
	}
	run := func(machines, par int) result {
		d := distribute(t, g, Config{Machines: machines, Parallelism: par})
		var r result
		for _, v := range [][]int32{nil, vals} {
			r.Views = append(r.Views, exchangeView(t, d, active, v))
		}
		touched, err := d.NotifyWithin("n", active, GraphRows(g))
		if err != nil {
			t.Fatal(err)
		}
		r.Touched = append(r.Touched, touched)
		if touched, err = d.NotifyWithin("n", marked, r.Views[0]); err != nil {
			t.Fatal(err)
		}
		r.Touched = append(r.Touched, touched)
		for _, dir := range []Refresh{KeepHeard, DropHeard} {
			announce := survivors
			if dir == DropHeard {
				announce = marked
			}
			view, err := d.RefreshWithin("r", survivors, announce, dir, r.Views[0], Adjacency{})
			if err != nil {
				t.Fatal(err)
			}
			r.Views = append(r.Views, view)
		}
		resolve, err := d.RefreshWithin("r", marked, marked, KeepHeard, r.Views[0], Adjacency{})
		if err != nil {
			t.Fatal(err)
		}
		r.Views = append(r.Views, resolve)
		r.Stats = d.Cluster().Stats()
		return r
	}
	for _, machines := range []int{3, 8} {
		ref := run(machines, 1)
		checkRows(t, ref.Views[0], exchangeN, activeRows(g, active), nil)
		checkRows(t, ref.Views[1], exchangeN, activeRows(g, active), vals)
		checkRows(t, ref.Views[2], exchangeN, activeRows(g, survivors), nil)
		checkRows(t, ref.Views[3], exchangeN, activeRows(g, survivors), nil)
		checkRows(t, ref.Views[4], exchangeN, activeRows(g, marked), nil)
		for _, par := range []int{2, 3, 8} {
			if got := run(machines, par); !reflect.DeepEqual(got, ref) {
				t.Fatalf("machines=%d: parallelism %d diverged from the serial run", machines, par)
			}
		}
	}
}

// exchangeView refreshes active's view from the graph's rows and, when vals
// is non-nil, runs ExchangeAlong with vals on the view, and returns the
// last result: the vertex-keyed exchange sequence of one Luby iteration.
func exchangeView(t *testing.T, d *DistGraph, active *bitset.Set, vals []int32) Adjacency {
	t.Helper()
	a := viewOf(t, d, active)
	if vals != nil {
		var err error
		if a, err = d.ExchangeAlong("v", active, a, vals); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// cloneAdjacency returns a deep copy of a.
func cloneAdjacency(a Adjacency) Adjacency {
	return Adjacency{Off: slices.Clone(a.Off), Nbr: slices.Clone(a.Nbr), Val: slices.Clone(a.Val)}
}

// TestSlabReuseKeepsEarlierViews checks that an Adjacency returned by one
// exchange is unchanged by later exchanges on the same DistGraph, which
// overwrite the send slabs the first exchange's words travelled in.
func TestSlabReuseKeepsEarlierViews(t *testing.T) {
	g := exchangeGraph(t, 21)
	rng := rand.New(rand.NewSource(22))
	for _, par := range []int{1, 3} {
		d := distribute(t, g, Config{Machines: 5, Parallelism: par})
		full := bitset.New(exchangeN)
		full.Fill()
		vals := randomVals(rng, exchangeN)
		first := exchangeView(t, d, full, vals)
		kept := cloneAdjacency(first)
		exchangeView(t, d, halfSet(rng, exchangeN), nil)
		if _, err := d.NotifyWithin("n", full, GraphRows(g)); err != nil {
			t.Fatal(err)
		}
		exchangeView(t, d, full, randomVals(rng, exchangeN))
		if !reflect.DeepEqual(first, kept) {
			t.Fatalf("parallelism %d: a later exchange changed an earlier view", par)
		}
		checkRows(t, first, exchangeN, activeRows(g, full), vals)
	}
}

// slabSequence is a large → small → large sequence of active sets (plus
// values for the exchanges that carry them): the send slabs grow on the
// first exchange, are overwritten in part by the small ones and in full by
// the last.
func slabSequence(rng *rand.Rand) (sets []*bitset.Set, vals [][]int32) {
	full := bitset.New(exchangeN)
	full.Fill()
	sparse := bitset.New(exchangeN)
	for v := 0; v < exchangeN; v += 9 {
		sparse.Add(v)
	}
	sets = []*bitset.Set{full, sparse, bitset.New(exchangeN), halfSet(rng, exchangeN), full}
	vals = [][]int32{randomVals(rng, exchangeN), nil, nil, randomVals(rng, exchangeN), randomVals(rng, exchangeN)}
	return sets, vals
}

// runSlabSequence runs the exchanges of slabSequence on d, checking each
// view against brute force and its traffic against one word per (active
// vertex, distinct owner of its neighbours) plus, with values, one per
// active edge end, and returns the views.
func runSlabSequence(t *testing.T, d *DistGraph, sets []*bitset.Set, vals [][]int32) []Adjacency {
	t.Helper()
	g, c := d.Graph(), d.Cluster()
	var views []Adjacency
	for i, active := range sets {
		before := c.Stats().Words
		a := exchangeView(t, d, active, vals[i])
		checkRows(t, a, exchangeN, activeRows(g, active), vals[i])
		want := ownerWords(c, GraphRows(g), active)
		if vals[i] != nil {
			want += int64(len(a.Nbr))
		}
		if got := c.Stats().Words - before; got != want {
			t.Fatalf("exchange %d moved %d words, want %d", i, got, want)
		}
		views = append(views, a)
	}
	return views
}

// TestSlabReuseLargeSmallLarge checks a large → small → large sequence of
// active sets on one DistGraph against brute force.
func TestSlabReuseLargeSmallLarge(t *testing.T) {
	g := exchangeGraph(t, 31)
	for _, par := range []int{1, 3} {
		sets, vals := slabSequence(rand.New(rand.NewSource(32)))
		runSlabSequence(t, distribute(t, g, Config{Machines: 5, Parallelism: par}), sets, vals)
	}
}

// TestSlabReuseCrashRetry injects crashes into the exchange rounds of the
// large → small → large sequence: into the first view and values
// exchanges, where the slabs grow, and into the last values exchange, where
// they are reused. The retried attempt
// rewrites the slabs its discarded predecessor filled, so the views and
// every Stats field but the recovery counters must equal the fault-free
// run's.
func TestSlabReuseCrashRetry(t *testing.T) {
	g := exchangeGraph(t, 41)
	run := func(plan *FaultPlan) ([]Adjacency, Stats) {
		sets, vals := slabSequence(rand.New(rand.NewSource(42)))
		d := distribute(t, g, Config{Machines: 5, Parallelism: 3, Faults: plan})
		views := runSlabSequence(t, d, sets, vals)
		return views, d.Cluster().Stats()
	}
	base, baseStats := run(nil)
	plan := &FaultPlan{Seed: 1, Crashes: []FaultEvent{{Round: 1, Machine: 2}, {Round: 2, Machine: 1}, {Round: 8, Machine: 0}, {Round: 8, Machine: 4}}}
	views, st := run(plan)
	if !reflect.DeepEqual(views, base) {
		t.Fatal("views differ under crashes")
	}
	if st.RecoveredCrashes != 4 || st.ReplayedWords == 0 {
		t.Fatalf("crashes not injected: %+v", st)
	}
	st.RecoveredCrashes, st.RecoveryRounds, st.ReplayedWords = 0, 0, 0
	if !reflect.DeepEqual(st, baseStats) {
		t.Fatalf("stats differ under crashes:\n%+v\nvs\n%+v", st, baseStats)
	}
}

// TestExchangeAlongEquivalence checks ExchangeAlong against the values an
// exchange carrying (id, value) pairs along the graph delivers: over random
// graphs, machine counts and active sets, Val must hold vals[u] for every
// active v and each active neighbour u of v, ascending in u, built here
// straight from g and active. It runs at Parallelism 1 and 4, with and
// without crashes in both the view and the values round.
func TestExchangeAlongEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(120)
		g, err := gen.GNP(n, 0.25*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		active := randomSet(rng, n)
		vals := randomVals(rng, n)
		var want []int32
		for v := 0; v < n; v++ {
			if !active.Contains(v) {
				continue
			}
			for _, u := range g.Neighbors(v) {
				if active.Contains(int(u)) {
					want = append(want, vals[u])
				}
			}
		}
		for _, machines := range []int{1, 3, 8} {
			for _, par := range []int{1, 4} {
				for _, crash := range []bool{false, true} {
					cfg := Config{Machines: machines, Parallelism: par}
					if crash {
						cfg.Faults = &FaultPlan{Seed: 1, Crashes: []FaultEvent{{Round: 1, Machine: machines - 1}, {Round: 2, Machine: 0}}}
					}
					d := distribute(t, g, cfg)
					a := exchangeView(t, d, active, vals)
					if !slices.Equal(a.Val, want) || len(a.Val) != len(a.Nbr) {
						t.Fatalf("n=%d machines=%d par=%d crash=%v: values %v, want %v", n, machines, par, crash, a.Val, want)
					}
					checkRows(t, a, n, activeRows(g, active), vals)
					if st := d.Cluster().Stats(); crash && st.RecoveredCrashes != 2 {
						t.Fatalf("n=%d machines=%d: %d crashes recovered, want 2", n, machines, st.RecoveredCrashes)
					}
				}
			}
		}
	}
}

// TestExchangeAlongMisalignedView checks that ExchangeAlong on a view that
// is not active's view returns an error instead of writing out of bounds or
// misaligning: a row too short for the values sent to it (row 1 of the
// 5-cycle-plus-chord lacks neighbour 3, which still sends to 1), rows left
// short by an active set smaller than the view's, and a view with no rows.
func TestExchangeAlongMisalignedView(t *testing.T) {
	vals := []int32{10, 11, 12, 13, 14}
	full := bitset.New(5)
	full.Fill()
	sub := bitset.New(5)
	sub.Add(0)
	sub.Add(1)
	for _, par := range []int{1, 4} {
		for _, machines := range []int{1, 2, 5} {
			d := distribute(t, testGraph(t), Config{Machines: machines, Parallelism: par})
			view := exchangeView(t, d, full, nil)
			// Drop 3 from row 1 (rows 0..4: {1,4} {0,2,3} {1,3} {1,2,4} {0,3}).
			lacking := Adjacency{
				Off: []int32{0, 2, 4, 6, 9, 11},
				Nbr: []int32{1, 4, 0, 2, 1, 3, 1, 2, 4, 0, 3},
			}
			if _, err := d.ExchangeAlong("v", full, lacking, vals); err == nil || !strings.Contains(err.Error(), "row 1 received more than its 2 values") {
				t.Fatalf("machines=%d par=%d: full row gave %v", machines, par, err)
			}
			if _, err := d.ExchangeAlong("v", sub, view, vals); err == nil || !strings.Contains(err.Error(), "of its") {
				t.Fatalf("machines=%d par=%d: short rows gave %v", machines, par, err)
			}
			if _, err := d.ExchangeAlong("v", full, Adjacency{}, vals); err == nil || !strings.Contains(err.Error(), "row offsets") {
				t.Fatalf("machines=%d par=%d: empty view gave %v", machines, par, err)
			}
			// The inboxes were drained: the next exchange is unaffected.
			checkRows(t, exchangeView(t, d, full, vals), 5, activeRows(testGraph(t), full), vals)
		}
	}
}

// TestChanged checks announce's branch-free run test against !=, on the
// owners it compares: -1 (no previous entry) and machine ids up to the
// largest int.
func TestChanged(t *testing.T) {
	vals := []int{-1, 0, 1, 2, 7, 63, 64, 1 << 31, 1<<63 - 1}
	for _, a := range vals {
		for _, b := range vals {
			want := 0
			if a != b {
				want = 1
			}
			if got := changed(a, b); got != want {
				t.Errorf("changed(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}
