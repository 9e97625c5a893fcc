package rulingset

import "github.com/rulingset/mprs/internal/graph"

// GreedyMIS computes a maximal independent set of g by the sequential greedy
// rule in ascending vertex order. It is the machine-local solver applied to
// residual instances by the sample-and-sparsify algorithms, and the quality
// oracle the evaluation compares set sizes against. Deterministic; O(n+m).
func GreedyMIS(g *graph.Graph) []int32 {
	n := g.N()
	blocked := make([]bool, n)
	var members []int32
	for v := 0; v < n; v++ {
		if blocked[v] {
			continue
		}
		members = append(members, int32(v))
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return members
}
