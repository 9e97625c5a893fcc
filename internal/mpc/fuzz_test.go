package mpc

import (
	"math/rand"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/gen"
)

// FuzzIncrementalView checks the marking loops' view refresh against brute
// force, on a random graph and a random shrinking chain of active sets that
// starts full. At each step after the first, the last view is refreshed
// both ways: the departures announcing themselves (DropHeard) and the
// survivors (KeepHeard), into a ping-pong pair of buffers: both
// refreshes of a step write into the view before the last one (the second
// overwriting the first), and the result becomes the next step's view.
// Each must equal the active set's brute-force view (activeRows), and each
// costs exactly one word per (announcing u, distinct owner of a vertex of
// the last view's row u). The survivors' refresh must
// send no more words or messages than a per-edge refresh along the last
// view would (one word per active edge end, one message per machine pair
// that an active edge end joins; perEdgeCost). The chain carries the view
// of the smaller side, as the loops do. Notifying a random marked subset of
// the active set along the view must reach exactly the marked vertices'
// active neighbours, as the graph-wide notify restricted to the active set
// did.
func FuzzIncrementalView(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(60), uint8(3))
	f.Add(int64(2), uint8(1), uint8(255), uint8(1))
	f.Add(int64(3), uint8(119), uint8(20), uint8(8))
	f.Add(int64(4), uint8(64), uint8(255), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, size, density, machines uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%120
		g, err := gen.GNP(n, 0.4*float64(density)/255, rng)
		if err != nil {
			t.Fatal(err)
		}
		d := distribute(t, g, Config{Machines: 1 + int(machines)%9, Parallelism: 1 + int(machines)%3})
		c := d.Cluster()
		active := bitset.New(n)
		active.Fill()
		last := active.Clone() // the set view was exchanged for
		view := GraphRows(g)
		var spare Adjacency // the view before view, dead; empty while that is the graph's rows
		for step := 0; active.Count() > 0; step++ {
			ref := activeRows(g, active)
			if step > 0 {
				departed := last.Clone()
				departed.Subtract(active)
				perEdgeWords, perEdgeMsgs := perEdgeCost(c, view, active)
				// The direction the chain carries goes last, so both
				// refreshes write into spare and the kept one ends there.
				dirs := []Refresh{DropHeard, KeepHeard}
				if 2*active.Count() > last.Count() {
					dirs = []Refresh{KeepHeard, DropHeard}
				}
				for _, dir := range dirs {
					announce := active
					if dir == DropHeard {
						announce = departed
					}
					before := c.Stats()
					if spare, err = d.RefreshWithin("r", active, announce, dir, view, spare); err != nil {
						t.Fatal(err)
					}
					if got, want := c.Stats().Words-before.Words, ownerWords(c, view, announce); got != want {
						t.Fatalf("step %d: refresh %d moved %d words, want %d", step, dir, got, want)
					}
					checkRows(t, spare, n, ref, nil)
					if dir == KeepHeard {
						words, msgs := c.Stats().Words-before.Words, c.Stats().Messages-before.Messages
						if words > perEdgeWords || msgs > perEdgeMsgs {
							t.Fatalf("step %d: the survivors' refresh sent %d words in %d messages, a per-edge one would send %d in %d",
								step, words, msgs, perEdgeWords, perEdgeMsgs)
						}
					}
				}
				view, spare = spare, view
				if step == 1 {
					spare = Adjacency{} // never recycle the graph's rows
				}
				last = active.Clone()
			} else {
				checkRows(t, view, n, ref, nil)
			}
			marked := halfSet(rng, n)
			marked.Intersect(active)
			touched, err := d.NotifyWithin("n", marked, view)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				want := false
				if active.Contains(v) {
					for _, u := range g.Neighbors(v) {
						want = want || marked.Contains(int(u))
					}
				}
				if touched.Contains(v) != want {
					t.Fatalf("step %d: touched(%d) = %v, want %v", step, v, !want, want)
				}
			}
			// Shrink as a phase does, and drop a few more vertices so
			// chains without marks still end.
			active.Subtract(marked)
			active.Subtract(touched)
			active.Subtract(halfSet(rng, n))
		}
	})
}

// ownerWords is RefreshWithin's word count, by brute force: one word per (u
// in announce, distinct owner of a vertex of view.Row(u)).
func ownerWords(c *Cluster, view Adjacency, announce *bitset.Set) int64 {
	var words int64
	announce.ForEach(func(u int) bool {
		owners := map[int]bool{}
		for _, v := range view.Row(u) {
			owners[c.Owner(int(v))] = true
		}
		words += int64(len(owners))
		return true
	})
	return words
}

// perEdgeCost is what a refresh sending one word per edge end would cost,
// by brute force: a word per (u in active, w in view.Row(u)), in one
// message per (Owner(u), Owner(w)) pair.
func perEdgeCost(c *Cluster, view Adjacency, active *bitset.Set) (words, msgs int64) {
	pairs := map[[2]int]bool{}
	active.ForEach(func(u int) bool {
		for _, w := range view.Row(u) {
			words++
			pairs[[2]int{c.Owner(u), c.Owner(int(w))}] = true
		}
		return true
	})
	return words, int64(len(pairs))
}
