package rulingset

import (
	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/mpc"
)

// registerCheckpoint exposes a driver's mutable vertex sets to the cluster's
// superstep recovery (see mpc.Checkpointer): machine m's snapshot is the
// concatenation of each set's PackRange over the machine's vertex range, and
// Restore unpacks the same layout back. Registration is a no-op unless
// checkpointing is needed — for crash recovery (a fault plan is present),
// durable persistence (a checkpoint sink is attached) or a resume — so
// plain runs pay nothing.
//
// The drivers register the vertex sets that carry a loop's progress (active
// and candidate sets for sample-and-sparsify, active and membership sets for
// Luby), and nothing else. The rest of a loop's state lives only in driver
// memory: within a phase the view, degrees, marks and seed prefix, and
// across phases the view, which each phase refreshes along the last. A
// snapshot alone therefore cannot restart a loop mid-run. Recovery is still
// exact: a simulated crash aborts one superstep attempt and loses no driver
// memory (Restore round-trips the state the simulator still holds, see
// mpc.Checkpointer), and a durable resume, or a restarted worker, replays
// the run from round 1, rebuilding every view, before it checks the
// snapshot against the replayed sets.
func registerCheckpoint(c *mpc.Cluster, o Options, sets ...*bitset.Set) error {
	if o.CheckpointEvery <= 0 {
		return nil
	}
	if o.Faults == nil && o.CheckpointSink == nil && o.Resume == nil {
		return nil
	}
	perRange := func(lo, hi int) int { return (hi - lo + 63) / 64 }
	return c.SetCheckpointer(mpc.FuncCheckpointer{
		SnapshotFn: func(m int) []uint64 {
			lo, hi := c.Range(m)
			out := make([]uint64, 0, len(sets)*perRange(lo, hi))
			for _, s := range sets {
				out = append(out, s.PackRange(lo, hi)...)
			}
			return out
		},
		RestoreFn: func(m int, data []uint64) {
			lo, hi := c.Range(m)
			per := perRange(lo, hi)
			for i, s := range sets {
				a, b := i*per, (i+1)*per
				if a > len(data) {
					a = len(data)
				}
				if b > len(data) {
					b = len(data)
				}
				s.UnpackRange(lo, hi, data[a:b])
			}
		},
	})
}
