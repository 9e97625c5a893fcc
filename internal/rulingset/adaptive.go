package rulingset

import (
	"math/rand"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
)

// _maxAdaptiveLevels caps the adaptive recursion as a safety net; every
// level shrinks the instance in practice, and stall detection forces a solve
// if one does not.
const _maxAdaptiveLevels = 16

// RandRulingAdaptive computes a ruling set whose radius is chosen at
// runtime: the smallest β (up to a safety cap) such that the residual
// instance fits the per-machine memory budget. See DetRulingAdaptive.
func RandRulingAdaptive(g *graph.Graph, o Options) (Result, error) {
	return rulingAdaptive(g, o, false)
}

// DetRulingAdaptive answers the deployment question "what domination radius
// do I need for my machines?": it runs derandomized sparsification levels —
// each level costs one hop of radius and shrinks the instance — until the
// current instance fits the residual budget (Options.MemoryWords-style
// budget via Options.ResidualBudget, defaulting to the cluster's S), then
// ships it to one machine and solves exactly. Every level runs on the one
// cluster, which measures it in one adaptive/size round. With a budget that
// admits the whole input it degenerates to an exact MIS (β = 1); as the
// budget shrinks the radius grows one level at a time.
func DetRulingAdaptive(g *graph.Graph, o Options) (Result, error) {
	return rulingAdaptive(g, o, true)
}

func rulingAdaptive(g *graph.Graph, o Options, deterministic bool) (Result, error) {
	d, o, err := distribute(g, o)
	if err != nil {
		return Result{}, err
	}
	c := d.Cluster()
	budget := o.ResidualBudget
	if budget <= 0 {
		budget = c.Budget()
	}
	st := newSparsifyState(g)
	if err := registerCheckpoint(c, o, st.active, st.candidates); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	m := newMPCModel(d, "sparsify")
	var last levelSize
	for level := 0; ; level++ {
		if level > 0 {
			if err := st.nextLevel(d, "adaptive/view"); err != nil {
				return Result{}, err
			}
		}
		size, err := measureLevel(c, st.active, st.view)
		if err != nil {
			return Result{}, err
		}
		// A level that did not shrink the instance (an edgeless instance
		// keeps every vertex as a candidate) forces the solve rather than
		// loop.
		stalled := level > 0 && size.n >= last.n && size.ends >= last.ends
		if size.n+size.ends <= budget || stalled || level >= _maxAdaptiveLevels {
			// Ship the whole current instance and solve it exactly.
			st.absorbActive()
			return solveLevels(m, st, level+1)
		}
		if err := runPhases(m, o, st, schedule(size.delta), deterministic, rng); err != nil {
			return Result{}, err
		}
		st.absorbActive()
		last = size
	}
}

// levelSize is a level's instance as the machines measure it: its vertex
// count n, its edge ends (2m) and its maximum degree.
type levelSize struct{ n, ends, delta int }

// measureLevel measures the instance of active along its view in one
// all-gather (adaptive/size): each machine reports its active vertices,
// their edge ends and their longest row, and every machine sums and takes
// the maximum of the same parts.
func measureLevel(c *mpc.Cluster, active *bitset.Set, view mpc.Adjacency) (levelSize, error) {
	parts, err := c.AllGather("adaptive/size", func(x *mpc.Ctx) []uint64 {
		var n, ends, delta uint64
		for v := x.Lo; v < x.Hi; v++ {
			if !active.Contains(v) {
				continue
			}
			dv := uint64(len(view.Row(v)))
			n, ends, delta = n+1, ends+dv, max(delta, dv)
		}
		return []uint64{n, ends, delta}
	})
	if err != nil {
		return levelSize{}, err
	}
	var s levelSize
	for _, p := range parts { // every machine sends its three words
		s.n, s.ends, s.delta = s.n+int(p[0]), s.ends+int(p[1]), max(s.delta, int(p[2]))
	}
	return s, nil
}
