package rulingset

import (
	"slices"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
)

// RandRuling2 computes a 2-ruling set of g with the randomized
// sample-and-sparsify algorithm (geometrically escalating sampling
// probabilities, Θ(log log Δ) phases, residual instance solved greedily on
// one machine). The run is reproducible from o.Seed.
func RandRuling2(g *graph.Graph, o Options) (Result, error) {
	return rulingBeta(g, 2, o, false)
}

// DetRuling2 computes a 2-ruling set of g with the paper's deterministic
// algorithm: each sampling phase of the sample-and-sparsify loop is replaced
// by a pairwise-independent hash whose seed is fixed by the distributed
// method of conditional expectations. Identical inputs and options always
// produce identical outputs, regardless of machine count.
func DetRuling2(g *graph.Graph, o Options) (Result, error) {
	return rulingBeta(g, 2, o, true)
}

// maxDegree computes the graph's maximum degree through the cluster's
// collectives (one all-reduce round).
func maxDegree(d *mpc.DistGraph) (uint64, error) {
	g := d.Graph()
	return d.Cluster().AllReduceMaxUint("maxdeg", func(x mpc.Ctx) uint64 {
		var local uint64
		for v := x.Lo; v < x.Hi; v++ {
			if dv := uint64(g.Degree(v)); dv > local {
				local = dv
			}
		}
		return local
	})
}

// solveResidual ships the candidate-induced subgraph to one place in m,
// recycling reuse, a dead view, where m can, computes its MIS greedily
// there, and announces the membership. The MIS of
// G[C] is independent in G and dominates C within one hop, so together with
// the sparsifier's invariant (every vertex in C or adjacent to it) the
// result is a 2-ruling set.
func solveResidual(m model, cand *bitset.Set, reuse mpc.Adjacency) ([]int32, *graph.Graph, error) {
	m.Span("gather")
	sub, toOrig, err := m.gatherResidual(cand, reuse)
	if err != nil {
		return nil, nil, err
	}
	mis := GreedyMIS(sub)
	members := make([]int32, len(mis))
	for i, v := range mis {
		members[i] = toOrig[v]
	}
	m.Span("finish")
	if err := m.announceMembers(members); err != nil {
		return nil, nil, err
	}
	slices.Sort(members)
	return members, sub, nil
}
