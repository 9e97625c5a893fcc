package rulingset

import (
	"fmt"
	"math/rand"
	"slices"

	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// RandRulingBeta computes a β-ruling set of g (β >= 1) with the randomized
// recursive sparsification scheme; see DetRulingBeta for the structure.
// β = 1 delegates to LubyMIS, β = 2 to the sample-and-sparsify 2-ruling set.
func RandRulingBeta(g *graph.Graph, beta int, o Options) (Result, error) {
	return rulingBeta(g, beta, o, false)
}

// DetRulingBeta computes a β-ruling set of g (β >= 1) deterministically by
// recursive sparsification: the escalating phase schedule is split into β−1
// groups; each level runs its group of derandomized sampling phases, folds
// everything still active into the candidate set (every vertex is then
// within one hop of the candidates), and recurses on the candidate-induced
// subgraph. The last level ships its residual instance to one machine and
// solves it greedily. Each level costs one hop of domination radius and buys
// a strictly smaller instance for the remaining phases — the paper's
// radius-for-resources tradeoff (experiment F2).
func DetRulingBeta(g *graph.Graph, beta int, o Options) (Result, error) {
	return rulingBeta(g, beta, o, true)
}

func rulingBeta(g *graph.Graph, beta int, o Options, deterministic bool) (Result, error) {
	if beta < 1 {
		return Result{}, fmt.Errorf("rulingset: beta %d < 1", beta)
	}
	if beta == 1 {
		return lubyMIS(g, o, deterministic)
	}
	if beta == 2 {
		return ruling2(g, o, deterministic)
	}
	if err := o.durableUnsupported("RulingBeta"); err != nil {
		return Result{}, err
	}

	var (
		rng      *rand.Rand
		total    mpc.Stats
		phases   []PhaseStat
		groups   [][]int
		members  []int32
		residual *graph.Graph
	)
	rng = rand.New(rand.NewSource(o.Seed))
	cur := g
	// origOf maps current-level vertex ids back to g's ids.
	origOf := make([]int32, g.N())
	for i := range origOf {
		origOf[i] = int32(i)
	}

	for level := 0; level < beta-1; level++ {
		d, opts, err := distribute(cur, levelOptions(o, total.Rounds))
		if err != nil {
			return Result{}, err
		}
		c := d.Cluster()
		if level == 0 {
			delta, err := maxDegree(d)
			if err != nil {
				return Result{}, err
			}
			groups = splitSchedule(schedule(int(delta)), beta-1)
		}
		st := newSparsifyState(cur)
		if err := registerCheckpoint(c, opts, st.active, st.candidates); err != nil {
			return Result{}, err
		}
		m := newMPCModel(d, "sparsify")
		if err := runPhases(m, opts, st, groups[level], deterministic, rng); err != nil {
			return Result{}, err
		}
		st.absorbActive()

		if level == beta-2 {
			members, residual, err = solveResidual(m, st.candidates, st.deadView())
			if err != nil {
				return Result{}, err
			}
			for i, v := range members {
				members[i] = origOf[v]
			}
			slices.Sort(members)
		} else {
			// Relabel to the candidate-induced subgraph for the next level.
			// The relabeling is a bounded exchange in a real deployment;
			// model it as one charged round.
			sub, _, toOrig := cur.InducedSubgraph(st.candidates.Contains)
			if err := c.ChargeRounds("beta/relabel", 1); err != nil {
				return Result{}, err
			}
			next := make([]int32, sub.N())
			for i, v := range toOrig {
				next[i] = origOf[v]
			}
			origOf = next
			cur = sub
		}
		total = mpc.MergeStats(total, c.Stats())
		phases = append(phases, st.phases...)
	}

	res := Result{
		Members: members,
		Beta:    beta,
		Stats:   total,
		Phases:  phases,
	}
	if residual != nil {
		res.ResidualN = residual.N()
		res.ResidualM = residual.M()
	}
	return res, nil
}

// levelOptions returns o for a chained level that starts after committed
// rounds of the earlier levels. The level's fresh cluster counts rounds from
// 1, so its trace events are shifted to continue the run's numbering, as
// MergeStats shifts its violations.
func levelOptions(o Options, committed int) Options {
	if o.Tracer != nil && committed > 0 {
		o.Tracer = shiftedTracer{sink: o.Tracer, by: committed}
	}
	return o
}

// shiftedTracer forwards every event with its Round advanced by by, and
// every span change as is.
type shiftedTracer struct {
	sink trace.Tracer
	by   int
}

// Superstep implements trace.Tracer.
func (s shiftedTracer) Superstep(ev trace.Event) {
	ev.Round += s.by
	s.sink.Superstep(ev)
}

// SpanChange implements trace.SpanObserver.
func (s shiftedTracer) SpanChange(span string) {
	if o, ok := s.sink.(trace.SpanObserver); ok {
		o.SpanChange(span)
	}
}

// splitSchedule partitions the phase schedule js into exactly parts
// contiguous groups, as evenly as possible (earlier groups take the extra
// phases; trailing groups may be empty when len(js) < parts).
func splitSchedule(js []int, parts int) [][]int {
	groups := make([][]int, parts)
	base := len(js) / parts
	extra := len(js) % parts
	at := 0
	for i := range groups {
		size := base
		if i < extra {
			size++
		}
		groups[i] = js[at : at+size]
		at += size
	}
	return groups
}
