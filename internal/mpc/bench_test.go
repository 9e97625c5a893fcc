package mpc

import (
	"math/rand"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/gen"
)

// benchPlane distributes the message-plane benchmarks' instance: GNP(262144,
// 6e-5), average degree about 16, on 8 machines at parallelism 1, with a
// random half of the vertices active and that half's view (refreshed from
// the graph's rows). It is luby-gnp-large's graph and cluster shape, so the benchmarks
// below time the vertex-keyed exchanges a marking phase runs, layer by
// layer, without the algorithm around them.
func benchPlane(b *testing.B) (*DistGraph, *bitset.Set, Adjacency) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := gen.GNP(262144, 6e-5, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewCluster(Config{Machines: 8, Parallelism: 1}, g.N())
	if err != nil {
		b.Fatal(err)
	}
	d, err := Distribute(c, g)
	if err != nil {
		b.Fatal(err)
	}
	active := halfSet(rng, g.N())
	view, err := d.RefreshWithin("view", active, active, KeepHeard, GraphRows(g), Adjacency{})
	if err != nil {
		b.Fatal(err)
	}
	return d, active, view
}

// BenchmarkRefreshWithin times the view refreshes of the marking loops. The
// graph's rows (the full set's view) are refreshed to the active half's
// view, with the survivors (KeepHeard) or the departed half (DropHeard)
// announcing each of its vertices once per machine that holds it in a row.
// Luby's conflict view (resolve) refreshes the active half's view to a
// sparse set of marks, 1/32 of the active half, announced by the marks.
// The -reuse cases write each refresh into the storage of the one before,
// as the marking loops do; the others allocate a fresh view every time.
func BenchmarkRefreshWithin(b *testing.B) {
	d, active, view := benchPlane(b)
	rows := GraphRows(d.Graph())
	departed := bitset.New(d.Graph().N())
	departed.Fill()
	departed.Subtract(active)
	marks := bitset.New(d.Graph().N())
	rng := rand.New(rand.NewSource(4))
	active.ForEach(func(v int) bool {
		if rng.Intn(32) == 0 {
			marks.Add(v)
		}
		return true
	})
	for _, bc := range []struct {
		name           string
		kept, announce *bitset.Set
		dir            Refresh
		last           Adjacency
		reuse          bool
	}{
		{"survivors", active, active, KeepHeard, rows, false},
		{"survivors-reuse", active, active, KeepHeard, rows, true},
		{"departures", active, departed, DropHeard, rows, false},
		{"resolve", marks, marks, KeepHeard, view, false},
		{"resolve-reuse", marks, marks, KeepHeard, view, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			refresh := func(reuse Adjacency) Adjacency {
				out, err := d.RefreshWithin("r", bc.kept, bc.announce, bc.dir, bc.last, reuse)
				if err != nil {
					b.Fatal(err)
				}
				return out
			}
			var out Adjacency
			if bc.reuse {
				out = refresh(Adjacency{}) // the buffer the timed refreshes recycle
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.reuse {
					out = refresh(out)
				} else {
					refresh(Adjacency{})
				}
			}
		})
	}
}

// BenchmarkExchangeAlong times one value per view edge (recValue), decoded
// into the slots of the view's rows.
func BenchmarkExchangeAlong(b *testing.B) {
	d, active, view := benchPlane(b)
	vals := randomVals(rand.New(rand.NewSource(2)), d.Graph().N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ExchangeAlong("a", active, view, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNotifyWithin times a marked half of the active set notifying its
// active neighbours along the view (recVertex), decoded into a bitset.
func BenchmarkNotifyWithin(b *testing.B) {
	d, active, view := benchPlane(b)
	marked := halfSet(rand.New(rand.NewSource(3)), d.Graph().N())
	marked.Intersect(active)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.NotifyWithin("n", marked, view); err != nil {
			b.Fatal(err)
		}
	}
}
