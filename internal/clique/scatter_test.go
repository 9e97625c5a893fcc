package clique

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
					err = c.Step("bad-dst", func(x *Ctx) {
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

// TestScatterAggregateFloatCrashRetry: a crashed scatter round re-runs
// every node on its own range of the round's slabs, which must start from
// zero again — a local that accumulates into vals sums each contribution
// once.
func TestScatterAggregateFloatCrashRetry(t *testing.T) {
	const n, nExt = 8, 4
	plan := &mpc.FaultPlan{Crashes: []mpc.FaultEvent{{Round: 1, Machine: 3}}}
	c, err := NewCluster(Config{Faults: plan, Parallelism: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := c.ScatterAggregateFloat("sa", nExt, func(v int, vals []float64) {
		for e := range vals {
			vals[e] += float64(v + e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().RecoveredCrashes != 1 {
		t.Fatalf("crash not injected: %+v", c.Stats())
	}
	for e := 0; e < nExt; e++ {
		if want := float64(n*(n-1)/2 + n*e); sums[e] != want {
			t.Fatalf("sums[%d] = %v, want %v", e, sums[e], want)
		}
	}
}

// TestScatterAggregateFloatAllocs pins the per-round slabs: a scatter
// allocates the same number of times on 1024 and 4096 nodes.
func TestScatterAggregateFloatAllocs(t *testing.T) {
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
			if _, err := c.ScatterAggregateFloat("sa", nExt, func(v int, vals []float64) {
				for e := range vals {
					vals[e] = float64(v ^ e)
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
func scatterTerm(call, v, e int) float64 {
	return float64(call+1)*1e6 + float64(v)*1e3 + float64(e) + 0.25
}

// scatterCalls runs ScatterAggregateFloat once per width on c and returns
// every call's sums.
func scatterCalls(t *testing.T, c *Cluster, widths []int) [][]float64 {
	t.Helper()
	var out [][]float64
	for call, nExt := range widths {
		sums, err := c.ScatterAggregateFloat("sa", nExt, func(v int, vals []float64) {
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

// TestScatterAggregateFloatWidthChanges: the kept slabs serve a small
// width, then a larger one that grows them, then a smaller one again, and
// every call sums exactly its own contributions.
func TestScatterAggregateFloatWidthChanges(t *testing.T) {
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
			want := 0.0
			for v := 0; v < n; v++ {
				want += scatterTerm(call, v, e)
			}
			if got != want {
				t.Fatalf("call %d (nExt=%d): sums[%d] = %v, want %v", call, widths[call], e, got, want)
			}
		}
	}
}

// TestScatterAggregateFloatCrashOnReusedSlab: a crash on the scatter round
// of a later call, which runs on slabs an earlier call filled, returns the
// same sums bit for bit as the fault-free run.
func TestScatterAggregateFloatCrashOnReusedSlab(t *testing.T) {
	const n = 12
	widths := []int{8, 8, 4}
	run := func(plan *mpc.FaultPlan) ([][]float64, mpc.Stats) {
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

// TestScatterAggregateFloatKeepsSlabs: a second call of the same width
// allocates no new slab — its bytes stay far below the slabs' bytes.
func TestScatterAggregateFloatKeepsSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n, nExt = 1024, 128
	c, err := NewCluster(Config{Parallelism: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		if _, err := c.ScatterAggregateFloat("sa", nExt, func(v int, vals []float64) {
			for e := range vals {
				vals[e] = float64(v ^ e)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	call()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	call()
	runtime.ReadMemStats(&after)
	slabs := int64(n * nExt * 16) // vals and payload words, 8 bytes each
	if got := int64(after.TotalAlloc - before.TotalAlloc); got > slabs/4 {
		t.Fatalf("a repeated scatter allocates %d bytes against %d bytes of slabs: the slabs were not kept", got, slabs)
	}
}

// denseSums is the reference ScatterAggregateFloat is held to: coordinate
// e of every node's contribution summed on the host from +0 in node order,
// zeros included.
func denseSums(contrib [][]float64, nExt int) []float64 {
	sums := make([]float64, nExt)
	for _, row := range contrib {
		for e := range sums {
			sums[e] += row[e]
		}
	}
	return sums
}

// nonzero counts the values of xs that are not ±0 (NaN counts).
func nonzero(xs []float64) int {
	k := 0
	for _, x := range xs {
		if x != 0 {
			k++
		}
	}
	return k
}

// sameBits reports whether got and want are equal under math.Float64bits,
// except that any NaN matches any NaN: which payload the sum of two NaNs
// carries depends on the order of the addition's operands, which the
// compiler may swap.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return false
		}
	}
	return true
}

// TestScatterAggregateFloatSkipsZeros: only nonzero contributions travel.
// An all-zero node sends nothing, −0 is not sent while ±Inf and NaN are,
// an aggregator whose sum is zero forwards nothing, and the sums equal the
// dense host sum bit for bit.
func TestScatterAggregateFloatSkipsZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	contrib := [][]float64{
		{1.5, 0, 0, 2, 1},
		{0, 0, -3, 0, 0},
		{0, negZero, 0, 0, negZero}, // all zero
		{0.25, 0, 4, 0, -1},         // coordinate 4 cancels to +0
		{math.Inf(1), negZero, math.NaN(), math.Inf(-1), 0},
		{1, 0, 0, 5, 0},
	}
	n, nExt := len(contrib), len(contrib[0])
	want := denseSums(contrib, nExt)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c, ring := newTracedClique(t, Config{Parallelism: p}, n)
			sums, err := c.ScatterAggregateFloat("sa", nExt, func(v int, vals []float64) {
				copy(vals, contrib[v])
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(sums, want) {
				t.Fatalf("sums = %v, want %v bit for bit", sums, want)
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
			// +Inf, NaN and −Inf are forwarded; the all-zero coordinate 1
			// and the cancelled coordinate 4 are not.
			if collect.Words != 3 || collect.Recv[0] != 3 {
				t.Errorf("collect round: %d words, %d at node 0, want 3", collect.Words, collect.Recv[0])
			}
		})
	}
}

// FuzzScatterAggregateFloat holds the sparse scatter to the dense host sum
// over random sparsity patterns: two calls of random widths on one cluster,
// at Parallelism 1 and 4 and under a crash on either call's scatter round.
// Each call's sums match bit for bit, and its words are exactly its
// nonzero contributions plus its nonzero sums.
func FuzzScatterAggregateFloat(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), uint8(9), uint8(80))
	f.Add(int64(2), uint8(40), uint8(16), uint8(3), uint8(10))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), uint8(255))
	f.Add(int64(4), uint8(33), uint8(32), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, width1, width2, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%48
		widths := []int{1 + int(width1)%n, 1 + int(width2)%n}
		value := func() float64 {
			if rng.Intn(256) >= int(density) {
				if rng.Intn(2) == 0 {
					return math.Copysign(0, -1)
				}
				return 0
			}
			switch rng.Intn(32) {
			case 0:
				return math.Inf(1 - 2*rng.Intn(2))
			case 1:
				return math.NaN()
			}
			return rng.NormFloat64() * math.Pow(2, float64(rng.Intn(64)-32))
		}
		contrib := make([][][]float64, len(widths))
		for call, nExt := range widths {
			contrib[call] = make([][]float64, n)
			for v := range contrib[call] {
				contrib[call][v] = make([]float64, nExt)
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
				sums, err := c.ScatterAggregateFloat("sa", nExt, func(v int, vals []float64) {
					for e, x := range contrib[call][v] {
						vals[e] += x
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				want := denseSums(contrib[call], nExt)
				if !sameBits(sums, want) {
					t.Fatalf("p=%d faults=%v call %d: sums = %v, want %v bit for bit", cfg.Parallelism, cfg.Faults != nil, call, sums, want)
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
