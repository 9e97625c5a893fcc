package rulingset

import (
	"fmt"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/mpc"
)

// VerifyDistributed checks that members form a β-ruling set using only the
// simulator's communication primitives — the way a deployment would verify
// an output without collecting the graph anywhere: one exchange round for
// independence, then β frontier-expansion rounds for domination, then a
// two-round count aggregation. Returns the number of MPC rounds spent.
//
// This is itself a (trivial) distributed algorithm whose cost the model
// meters: verification is Θ(β) rounds, far cheaper than computing the set.
func VerifyDistributed(d *mpc.DistGraph, members []int32, beta int) (int, error) {
	c := d.Cluster()
	n := d.Graph().N()
	before := c.Stats().Rounds

	inSet := bitset.New(n)
	for _, v := range members {
		if v < 0 || int(v) >= n {
			return 0, fmt.Errorf("rulingset: member %d out of range", v)
		}
		inSet.Add(int(v))
	}

	// Independence: members announce themselves; a member that hears from a
	// member neighbor is a conflict. The graph's rows refreshed to the
	// members list, per member, the member neighbors only.
	nbrs, err := d.RefreshWithin("verify/independence", inSet, inSet, mpc.KeepHeard, mpc.GraphRows(d.Graph()), mpc.Adjacency{})
	if err != nil {
		return 0, err
	}
	for _, v := range members {
		if row := nbrs.Row(int(v)); len(row) > 0 {
			return c.Stats().Rounds - before,
				fmt.Errorf("rulingset: members %d and %d are adjacent", v, row[0])
		}
	}

	// Domination: β BFS frontier expansions from the member set.
	covered := inSet.Clone()
	frontier := inSet.Clone()
	for hop := 0; hop < beta; hop++ {
		if frontier.Count() == 0 {
			break
		}
		touched, err := d.NotifyWithin(fmt.Sprintf("verify/hop%d", hop+1), frontier, mpc.GraphRows(d.Graph()))
		if err != nil {
			return 0, err
		}
		touched.Subtract(covered)
		covered.Union(touched)
		frontier = touched
	}

	// Count uncovered vertices through the cluster.
	counts, err := c.AllReduceSumUint("verify/uncovered", func(x *mpc.Ctx) []uint64 {
		var local uint64
		for v := x.Lo; v < x.Hi; v++ {
			if !covered.Contains(v) {
				local++
			}
		}
		return []uint64{local}
	})
	if err != nil {
		return 0, err
	}
	rounds := c.Stats().Rounds - before
	if counts[0] != 0 {
		return rounds, fmt.Errorf("rulingset: %d vertices are farther than %d hops from the set", counts[0], beta)
	}
	return rounds, nil
}
