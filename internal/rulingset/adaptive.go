package rulingset

import (
	"math/rand"
	"slices"

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
// ships it to one machine and solves exactly. With a budget that admits the
// whole input it degenerates to an exact MIS (β = 1); as the budget shrinks
// the radius grows one level at a time.
func DetRulingAdaptive(g *graph.Graph, o Options) (Result, error) {
	return rulingAdaptive(g, o, true)
}

func rulingAdaptive(g *graph.Graph, o Options, deterministic bool) (Result, error) {
	if err := o.durableUnsupported("RulingAdaptive"); err != nil {
		return Result{}, err
	}
	var (
		total   mpc.Stats
		phases  []PhaseStat
		stalled bool
	)
	rng := rand.New(rand.NewSource(o.Seed))
	cur := g
	origOf := make([]int32, g.N())
	for i := range origOf {
		origOf[i] = int32(i)
	}

	for level := 0; ; level++ {
		d, opts, err := distribute(cur, levelOptions(o, total.Rounds))
		if err != nil {
			return Result{}, err
		}
		c := d.Cluster()
		m := newMPCModel(d, "sparsify")
		budget := opts.ResidualBudget
		if budget <= 0 {
			budget = c.Budget()
		}
		fits := cur.N()+2*cur.M() <= budget

		if fits || stalled || level >= _maxAdaptiveLevels {
			// Ship the whole current instance and solve it exactly.
			st := newSparsifyState(cur)
			st.absorbActive()
			members, residual, err := solveResidual(m, st.candidates, st.deadView())
			if err != nil {
				return Result{}, err
			}
			for i, v := range members {
				members[i] = origOf[v]
			}
			slices.Sort(members)
			total = mpc.MergeStats(total, c.Stats())
			return Result{
				Members:   members,
				Beta:      level + 1,
				Stats:     total,
				Phases:    phases,
				ResidualN: residual.N(),
				ResidualM: residual.M(),
			}, nil
		}

		delta, err := maxDegree(d)
		if err != nil {
			return Result{}, err
		}
		st := newSparsifyState(cur)
		if err := registerCheckpoint(c, opts, st.active, st.candidates); err != nil {
			return Result{}, err
		}
		if err := runPhases(m, opts, st, schedule(int(delta)), deterministic, rng); err != nil {
			return Result{}, err
		}
		st.absorbActive()

		sub, _, toOrig := cur.InducedSubgraph(st.candidates.Contains)
		if sub.N() >= cur.N() && sub.M() >= cur.M() {
			// No shrinkage (an edgeless instance keeps every vertex as a
			// candidate): force the solve next level rather than loop.
			stalled = true
		}
		if err := c.ChargeRounds("adaptive/relabel", 1); err != nil {
			return Result{}, err
		}
		next := make([]int32, sub.N())
		for i, v := range toOrig {
			next[i] = origOf[v]
		}
		origOf = next
		cur = sub
		total = mpc.MergeStats(total, c.Stats())
		phases = append(phases, st.phases...)
	}
}
