package clique

import (
	"errors"
	"fmt"
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
