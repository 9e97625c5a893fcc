package clique

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

// TestSendInvalidDestination: a send to a node outside [0, n) fails in the
// sender's closure as that node's *mpc.MachineError, and the round delivers
// nothing — at every parallelism level.
func TestSendInvalidDestination(t *testing.T) {
	const n, bad = 4, 2
	for _, p := range []int{1, 4} {
		for _, owned := range []bool{false, true} {
			for _, dst := range []int{-1, n} {
				t.Run(fmt.Sprintf("p=%d/owned=%v/dst=%d", p, owned, dst), func(t *testing.T) {
					c, err := NewCluster(Config{PairWords: 4, Parallelism: p}, n)
					if err != nil {
						t.Fatal(err)
					}
					err = c.Step("bad-dst", func(x Ctx) {
						x.Send((x.Machine+1)%n, uint64(x.Machine))
						if x.Machine == bad {
							if owned {
								x.SendOwned(dst, []uint64{7})
							} else {
								x.Send(dst, 7)
							}
						}
					})
					var me *mpc.MachineError
					if !errors.As(err, &me) || me.Machine != bad {
						t.Fatalf("err = %v, want a *mpc.MachineError from node %d", err, bad)
					}
					if st := c.Stats(); st.Rounds != 0 || st.Messages != 0 || len(st.Violations) != 0 {
						t.Fatalf("failed round was committed: %+v", st)
					}
					for v := 0; v < n; v++ {
						if box := c.Drain(v); len(box) != 0 {
							t.Fatalf("node %d received %v from the failed round", v, box)
						}
					}
				})
			}
		}
	}
}

// TestScatterAggregateCrashRetry: a crashed scatter round re-runs every
// node on its block's scratch, which must start from zero again — a local
// that accumulates into vals sums each contribution once.
func TestScatterAggregateCrashRetry(t *testing.T) {
	const n, nExt = 8, 4
	plan := &mpc.FaultPlan{Crashes: []mpc.FaultEvent{{Round: 1, Machine: 3}}}
	c, err := NewCluster(Config{Faults: plan, Parallelism: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
		for e := range vals {
			vals[e] += int64(v + e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().RecoveredCrashes != 1 {
		t.Fatalf("crash not injected: %+v", c.Stats())
	}
	for e := 0; e < nExt; e++ {
		if want := int64(n*(n-1)/2 + n*e); sums[e] != want {
			t.Fatalf("sums[%d] = %v, want %v", e, sums[e], want)
		}
	}
}

// TestScatterAggregateAllocs pins the per-block buffers: a scatter
// allocates the same number of times on 1024 and 4096 nodes.
func TestScatterAggregateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const nExt = 16
	allocs := func(n int) float64 {
		c, err := NewCluster(Config{Parallelism: 1}, n)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(8, func() {
			if _, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
				for e := range vals {
					vals[e] = int64(v ^ e)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1024), allocs(4096); small != large {
		t.Fatalf("%v allocations per scatter at n=1024, %v at n=4096", small, large)
	}
}

// TestSumToZeroAllocs pins the reduction's kept payload slab: a SumToZero
// allocates the same number of times on 1024 and 4096 nodes.
func TestSumToZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	allocs := func(n int) float64 {
		c, err := NewCluster(Config{Parallelism: 1}, n)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(8, func() {
			if _, err := c.SumToZero("sum", func(v int) uint64 { return uint64(v) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1024), allocs(4096); small != large {
		t.Fatalf("%v allocations per SumToZero at n=1024, %v at n=4096", small, large)
	}
}

// scatterTerm is node v's contribution to coordinate e in the scatter
// tests: distinct magnitudes, so a lost, doubled or misrouted term shows.
func scatterTerm(call, v, e int) int64 {
	return int64((call+1)*1_000_000 + v*1000 + e + 1)
}

// scatterCalls runs ScatterAggregate once per width on c and returns every
// call's sums.
func scatterCalls(t *testing.T, c *Cluster, widths []int) [][]int64 {
	t.Helper()
	var out [][]int64
	for call, nExt := range widths {
		sums, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
			for e := range vals {
				vals[e] += scatterTerm(call, v, e)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sums)
	}
	return out
}

// TestScatterAggregateWidthChanges: the kept per-block buffers serve a
// small width, then a larger one that grows them (the payload buffer moves
// while the block's earlier payloads are in flight), then a smaller one
// again, and every call sums exactly its own contributions.
func TestScatterAggregateWidthChanges(t *testing.T) {
	const n = 16
	widths := []int{2, 16, 3, 16}
	c, err := NewCluster(Config{Parallelism: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	for call, sums := range scatterCalls(t, c, widths) {
		if len(sums) != widths[call] {
			t.Fatalf("call %d: %d sums, want %d", call, len(sums), widths[call])
		}
		for e, got := range sums {
			var want int64
			for v := 0; v < n; v++ {
				want += scatterTerm(call, v, e)
			}
			if got != want {
				t.Fatalf("call %d (nExt=%d): sums[%d] = %v, want %v", call, widths[call], e, got, want)
			}
		}
	}
}

// TestScatterAggregateCrashOnReusedSlab: a crash on the scatter round of a
// later call, which runs on per-block buffers an earlier call filled, and
// whose retry appends behind the crashed attempt's payloads, returns the
// same sums as the fault-free run.
func TestScatterAggregateCrashOnReusedSlab(t *testing.T) {
	const n = 12
	widths := []int{8, 8, 4}
	run := func(plan *mpc.FaultPlan) ([][]int64, mpc.Stats) {
		c, err := NewCluster(Config{Faults: plan, Parallelism: 3}, n)
		if err != nil {
			t.Fatal(err)
		}
		return scatterCalls(t, c, widths), c.Stats()
	}
	want, _ := run(nil)
	// Rounds 3 and 5 are the second and third calls' scatter rounds.
	got, st := run(&mpc.FaultPlan{Crashes: []mpc.FaultEvent{{Round: 3, Machine: 5}, {Round: 5, Machine: 0}}})
	if st.RecoveredCrashes != 2 {
		t.Fatalf("crashes not injected: %+v", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sums under crashes = %v, want %v", got, want)
	}
}

// scatterBytes returns the bytes of ScatterAggregate's kept storage.
func scatterBytes(c *Cluster) int {
	total := 0
	for _, sb := range c.scatter {
		total += 8 * (cap(sb.vals) + cap(sb.ends) + cap(sb.words))
	}
	return total
}

// TestScatterAggregateKeepsSlabs: the storage a scatter keeps follows the
// nonzero values that travel, not n·nExt: two nonzero values per node on
// 1024 nodes and 128 coordinates keep about a block's dense scratch plus
// the packed payloads, far below the 24·n·nExt bytes of per-node slabs. A
// second call of the same width reuses every buffer in place.
func TestScatterAggregateKeepsSlabs(t *testing.T) {
	const n, nExt = 1024, 128
	for _, p := range []int{1, 4} {
		c, err := NewCluster(Config{Parallelism: p}, n)
		if err != nil {
			t.Fatal(err)
		}
		call := func() {
			if _, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
				vals[v%nExt] = int64(v + 1)
				vals[(7*v+3)%nExt] -= 2
			}); err != nil {
				t.Fatal(err)
			}
		}
		call()
		blocks := c.eng.Blocks()
		// Two nonzeros per node, one more than twice over for append's
		// growth from empty; each block's dense scratch is 16·nExt bytes.
		bound := blocks*16*nExt + 2*8*(2*n)
		if got, slabs := scatterBytes(c), 24*n*nExt; got > bound || 8*got > slabs {
			t.Fatalf("p=%d: %d bytes kept for %d nonzero values in %d blocks, want at most %d (per-node slabs: %d)", p, got, 2*n, blocks, bound, slabs)
		}
		kept := scatterBytes(c)
		arrays := scatterArrays(c)
		call()
		if got := scatterBytes(c); got != kept || !slices.Equal(scatterArrays(c), arrays) {
			t.Fatalf("p=%d: a repeated scatter replaced the kept storage (%d bytes, now %d)", p, kept, got)
		}
	}
}

// scatterArray is the address of one block's buffers' first elements,
// which stay put while the buffers are reused (words: nil while empty).
type scatterArray struct {
	vals  *int64
	ends  *int
	words *uint64
}

// scatterArrays returns every block's scatterArray.
func scatterArrays(c *Cluster) []scatterArray {
	var arrays []scatterArray
	for _, sb := range c.scatter {
		a := scatterArray{vals: &sb.vals[0], ends: &sb.ends[0]}
		if cap(sb.words) > 0 {
			a.words = &sb.words[:1][0]
		}
		arrays = append(arrays, a)
	}
	return arrays
}

// denseSums is the reference ScatterAggregate is held to: coordinate e of
// every node's contribution summed on the host, zeros included, in node
// order or, with reversed, in reversed node order.
func denseSums(contrib [][]int64, nExt int, reversed bool) []int64 {
	sums := make([]int64, nExt)
	for i := range contrib {
		row := contrib[i]
		if reversed {
			row = contrib[len(contrib)-1-i]
		}
		for e := range sums {
			sums[e] += row[e]
		}
	}
	return sums
}

// nonzero counts the values of xs that are not 0.
func nonzero(xs []int64) int {
	k := 0
	for _, x := range xs {
		if x != 0 {
			k++
		}
	}
	return k
}

// TestScatterAggregateSkipsZeros: only nonzero contributions travel. An
// all-zero node sends nothing, an aggregator whose sum is zero forwards
// nothing, and the sums equal the dense host sum.
func TestScatterAggregateSkipsZeros(t *testing.T) {
	contrib := [][]int64{
		{3, 0, 0, 4, 2},
		{0, 0, -6, 0, 0},
		{0, 0, 0, 0, 0},  // all zero
		{1, 0, 8, 0, -2}, // coordinate 4 cancels to 0
		{2, 0, 0, 10, 0},
	}
	n, nExt := len(contrib), len(contrib[0])
	want := denseSums(contrib, nExt, false)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c, ring := newTracedClique(t, Config{Parallelism: p}, n)
			sums, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
				copy(vals, contrib[v])
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sums, want) {
				t.Fatalf("sums = %v, want %v", sums, want)
			}
			evs := ring.Events()
			if len(evs) != 2 {
				t.Fatalf("%d events, want the scatter and collect rounds", len(evs))
			}
			scatter, collect := evs[0], evs[1]
			words := 0
			for v, row := range contrib {
				if got := scatter.Sent[v]; got != nonzero(row) {
					t.Errorf("node %d sent %d words, has %d nonzero contributions", v, got, nonzero(row))
				}
				words += nonzero(row)
			}
			if scatter.Sent[2] != 0 {
				t.Errorf("all-zero node 2 sent %d words", scatter.Sent[2])
			}
			if scatter.Words != words || scatter.Messages != words {
				t.Errorf("scatter round: %d words in %d messages, want %d", scatter.Words, scatter.Messages, words)
			}
			// Coordinates 0, 2 and 3 are forwarded; the all-zero coordinate
			// 1 and the cancelled coordinate 4 are not.
			if collect.Words != 3 || collect.Recv[0] != 3 {
				t.Errorf("collect round: %d words, %d at node 0, want 3", collect.Words, collect.Recv[0])
			}
		})
	}
}

// FuzzScatterAggregate holds the sparse scatter to the dense host sum over
// random sparsity patterns: two calls of random widths on one cluster, at
// Parallelism 1 and 4 and under a crash on either call's scatter round.
// Some values lie near ±2^63, so sums wrap; each call's sums equal the host
// sums in node order and in reversed node order, and its words are exactly
// its nonzero contributions plus its nonzero sums.
func FuzzScatterAggregate(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), uint8(9), uint8(80))
	f.Add(int64(2), uint8(40), uint8(16), uint8(3), uint8(10))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(255))
	f.Add(int64(4), uint8(33), uint8(32), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, width1, width2, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%48
		widths := []int{1 + int(width1)%n, 1 + int(width2)%n}
		value := func() int64 {
			if rng.Intn(256) >= int(density) {
				return 0
			}
			switch rng.Intn(8) {
			case 0:
				return math.MaxInt64 - rng.Int63n(1<<20)
			case 1:
				return math.MinInt64 + rng.Int63n(1<<20)
			}
			return rng.Int63n(1<<41) - 1<<40
		}
		contrib := make([][][]int64, len(widths))
		for call, nExt := range widths {
			contrib[call] = make([][]int64, n)
			for v := range contrib[call] {
				contrib[call][v] = make([]int64, nExt)
				for e := range contrib[call][v] {
					contrib[call][v][e] = value()
				}
			}
		}
		crashed := rng.Intn(n)
		configs := []Config{
			{Parallelism: 1},
			{Parallelism: 4},
			// Rounds 1 and 3 are the two calls' scatter rounds.
			{Parallelism: 4, Faults: &mpc.FaultPlan{Crashes: []mpc.FaultEvent{{Round: 1 + 2*rng.Intn(2), Machine: crashed}}}},
		}
		for _, cfg := range configs {
			c, err := NewCluster(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			for call, nExt := range widths {
				before := c.Stats().Words
				sums, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
					for e, x := range contrib[call][v] {
						vals[e] += x
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				want := denseSums(contrib[call], nExt, false)
				for _, reversed := range []bool{false, true} {
					if ref := denseSums(contrib[call], nExt, reversed); !slices.Equal(sums, ref) {
						t.Fatalf("p=%d faults=%v call %d: sums = %v, want %v (reversed host order: %v)", cfg.Parallelism, cfg.Faults != nil, call, sums, ref, reversed)
					}
				}
				words := int64(nonzero(want))
				for _, row := range contrib[call] {
					words += int64(nonzero(row))
				}
				if got := c.Stats().Words - before; got != words {
					t.Fatalf("p=%d faults=%v call %d: %d words, want %d", cfg.Parallelism, cfg.Faults != nil, call, got, words)
				}
			}
			if cfg.Faults != nil && c.Stats().RecoveredCrashes != 1 {
				t.Fatalf("crash not injected: %+v", c.Stats())
			}
		}
	})
}
