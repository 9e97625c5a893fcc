package rulingset

import (
	"fmt"
	"math/rand"

	"github.com/rulingset/mprs/internal/graph"
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
// subgraph. Every level runs on the one cluster and keeps the original
// vertex ids: a later level's active set is the previous level's candidate
// set, and its first view costs one round (beta/view). The last level ships
// its residual instance to one machine and solves it greedily. Each level
// costs one hop of domination radius and shrinks the instance the remaining
// phases sparsify — the paper's radius-for-resources tradeoff (experiment
// F2).
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
	d, o, err := distribute(g, o)
	if err != nil {
		return Result{}, err
	}
	delta, err := maxDegree(d)
	if err != nil {
		return Result{}, err
	}
	st := newSparsifyState(g)
	if err := registerCheckpoint(d.Cluster(), o, st.active, st.candidates); err != nil {
		return Result{}, err
	}
	// The rng drives randomized sampling; deterministic runs never read it.
	rng := rand.New(rand.NewSource(o.Seed))
	m := newMPCModel(d, "sparsify")
	for level, js := range splitSchedule(schedule(int(delta)), beta-1) {
		if level > 0 {
			if err := st.nextLevel(d, "beta/view"); err != nil {
				return Result{}, err
			}
		}
		if err := runPhases(m, o, st, js, deterministic, rng); err != nil {
			return Result{}, err
		}
		st.absorbActive()
	}
	return solveLevels(m, st, beta)
}

// solveLevels ends a multi-level run: it solves the last level's candidate
// set on one machine (solveResidual) and returns the run's Result with
// domination radius beta.
func solveLevels(m mpcModel, st *sparsifyState, beta int) (Result, error) {
	members, residual, err := solveResidual(m, st.candidates, st.deadView())
	if err != nil {
		return Result{}, err
	}
	return Result{
		Members:   members,
		Beta:      beta,
		Stats:     m.d.Cluster().Stats(),
		Phases:    st.phases,
		ResidualN: residual.N(),
		ResidualM: residual.M(),
	}, nil
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
