package mpc

import (
	"math/rand"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/gen"
)

// benchPlane distributes the message-plane benchmarks' instance: GNP(262144,
// 6e-5), average degree about 16, on 8 machines at parallelism 1, with a
// random half of the vertices active and that half's view (ExchangeActive's
// result). It is luby-gnp-large's graph and cluster shape, so the benchmarks
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
	view, err := d.ExchangeActive("view", active)
	if err != nil {
		b.Fatal(err)
	}
	return d, active, view
}

// BenchmarkExchangeWithin times a view refresh: the active half announced
// along the graph's rows (one recEdge word per active edge end), decoded
// into the new view.
func BenchmarkExchangeWithin(b *testing.B) {
	d, active, _ := benchPlane(b)
	rows := GraphRows(d.Graph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ExchangeWithin("w", active, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshWithin times the refresh that replaced
// BenchmarkExchangeWithin's in the marking loops, on the same shrink: the
// graph's rows (the full set's view) refreshed to the active half's view,
// with the survivors (KeepHeard) or the departed half (DropHeard) announcing
// each of its vertices once per machine that holds it in a row.
func BenchmarkRefreshWithin(b *testing.B) {
	d, active, _ := benchPlane(b)
	rows := GraphRows(d.Graph())
	departed := bitset.New(d.Graph().N())
	departed.Fill()
	departed.Subtract(active)
	for _, bc := range []struct {
		name     string
		announce *bitset.Set
		dir      Refresh
	}{{"survivors", active, KeepHeard}, {"departures", departed, DropHeard}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.RefreshWithin("r", active, bc.announce, bc.dir, rows); err != nil {
					b.Fatal(err)
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
