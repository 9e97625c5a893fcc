package mpc

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/gen"
)

// FuzzIncrementalView checks the marking loops' view refresh against the
// exchanges it replaces, on a random graph and a random shrinking chain of
// active sets that starts full. At each step the view must equal
// ExchangeActive's on the active set (the graph's own rows at the first
// step; ExchangeWithin along the last view after that), costing one word
// per edge end the last view kept. Notifying a random marked subset of the
// active set along the view must reach exactly the marked vertices' active
// neighbours, as the graph-wide notify restricted to the active set did.
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
		view := GraphRows(g)
		for step := 0; active.Count() > 0; step++ {
			if step > 0 {
				before := c.Stats().Words
				var want int64
				active.ForEach(func(u int) bool {
					want += int64(len(view.Row(u)))
					return true
				})
				if view, err = d.ExchangeWithin("w", active, view); err != nil {
					t.Fatal(err)
				}
				if got := c.Stats().Words - before; got != want {
					t.Fatalf("step %d: the refresh moved %d words, want %d", step, got, want)
				}
			}
			ref, err := d.ExchangeActive("x", active)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(view, ref) {
				t.Fatalf("step %d: the carried view differs from ExchangeActive's", step)
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
