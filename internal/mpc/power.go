package mpc

import (
	"fmt"

	"github.com/rulingset/mprs/internal/graph"
)

// Power computes the distance-k closure G^{≤k} (an edge wherever
// 1 <= dist(u,w) <= k) through real message exchanges, by binary
// exponentiation over the compose operation: if A covers distances <= a and
// B covers distances <= b, then A ∪ B ∪ (A∘B) covers distances <= a+b.
//
// Each compose costs two rounds — an adjacency announcement (2·m_A words)
// and an edge-emission exchange (≈ Σ_x deg_A(x)·deg_B(x) words, the genuine
// quadratic cost of graph exponentiation, checked against the memory budget
// like any other traffic). maxEdges caps the materialized closure as a
// simulator guard (<= 0 for unbounded); the bandwidth accounting flags model
// violations independently.
func (d *DistGraph) Power(k, maxEdges int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("mpc: power exponent %d < 1", k)
	}
	var (
		acc  *graph.Graph // covers distances <= (processed bits of k)
		base = d.g        // covers distances <= 2^i at iteration i
		err  error
	)
	for e := k; e > 0; e >>= 1 {
		if e&1 == 1 {
			acc, err = d.compose(acc, base, maxEdges)
			if err != nil {
				return nil, err
			}
		}
		if e > 1 {
			base, err = d.compose(base, base, maxEdges)
			if err != nil {
				return nil, err
			}
		}
	}
	// Charge the closure's residency under the same block partition.
	for m := 0; m < d.c.Machines(); m++ {
		lo, hi := d.c.Range(m)
		words := 0
		for v := lo; v < hi; v++ {
			words += 2 + acc.Degree(v)
		}
		if err := d.c.SetResident(m, words); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// compose returns A ∪ B ∪ (A∘B) where (A∘B) joins u to w whenever some x is
// A-adjacent to u and B-adjacent to w. A nil A acts as the identity (returns
// B). Both operands share d's vertex set and block partition.
func (d *DistGraph) compose(a, b *graph.Graph, maxEdges int) (*graph.Graph, error) {
	if a == nil {
		return b, nil
	}
	n := d.g.N()
	// Round 1: every u announces itself to the owners of its A-neighbors,
	// so the owner of x learns the set {u : u ~_A x}.
	err := d.c.Step("power/announce", func(x *Ctx) {
		d.scatter(x, rowsOf(a), nil, nil, recEdge, nil)
	})
	if err != nil {
		return nil, err
	}
	aNbrs := d.collectRows(nil)
	// Round 2: the owner of x emits every composed pair (u, w) with u ~_A x
	// and w ~_B x to the owner of the smaller endpoint; A and B edges ride
	// along so the result is the union closure.
	parts := make([][]graph.Edge, d.c.Machines())
	err = d.c.Step("power/emit", func(xc *Ctx) {
		buckets := make([][]uint64, d.c.Machines())
		emit := func(u, w int32) {
			if u == w {
				return
			}
			if u > w {
				u, w = w, u
			}
			dst := d.c.Owner(int(u))
			buckets[dst] = append(buckets[dst], uint64(uint32(u))<<32|uint64(uint32(w)))
		}
		for x := xc.Lo; x < xc.Hi; x++ {
			for _, u := range aNbrs.Row(x) {
				emit(u, int32(x)) // the A edge itself
				for _, w := range b.Neighbors(x) {
					emit(u, w) // the composed edge
				}
			}
			for _, w := range b.Neighbors(x) {
				emit(int32(x), w) // the B edge itself
			}
		}
		for dst, payload := range buckets {
			if len(payload) > 0 {
				xc.SendOwned(dst, payload)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for m := 0; m < d.c.Machines(); m++ {
		seen := make(map[uint64]struct{})
		for _, msg := range d.c.inboxes[m] {
			for _, w := range msg.Payload {
				if _, dup := seen[w]; dup {
					continue
				}
				seen[w] = struct{}{}
				parts[m] = append(parts[m], graph.Edge{U: int32(w >> 32), V: int32(uint32(w))})
			}
		}
		d.c.inboxes[m] = nil
		total += len(parts[m])
		if maxEdges > 0 && total > maxEdges {
			return nil, fmt.Errorf("mpc: power closure exceeds edge budget %d", maxEdges)
		}
	}
	var edges []graph.Edge
	for _, part := range parts {
		edges = append(edges, part...)
	}
	return graph.New(n, edges)
}
