package mpc

import (
	"fmt"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/graph"
)

// DistGraph is a graph block-partitioned across the cluster's machines:
// machine m holds the adjacency lists of the vertices in its Range. It
// provides the communication patterns the ruling-set algorithms are built
// from, with full bandwidth accounting.
type DistGraph struct {
	c *Cluster
	g *graph.Graph

	// slabs[m] is machine m's send slab, reused by m's next vertex-keyed
	// exchange (see scatter).
	slabs [][]uint64
}

// Distribute places g on the cluster and charges each machine's resident
// memory for its shard (2 + deg(v) words per local vertex v). The cluster
// must have been created with ground-set size g.N().
func Distribute(c *Cluster, g *graph.Graph) (*DistGraph, error) {
	if c.N() != g.N() {
		return nil, fmt.Errorf("mpc: cluster ground set %d != graph order %d", c.N(), g.N())
	}
	d := &DistGraph{c: c, g: g, slabs: make([][]uint64, c.Machines())}
	for m := 0; m < c.Machines(); m++ {
		lo, hi := c.Range(m)
		words := 0
		for v := lo; v < hi; v++ {
			words += 2 + g.Degree(v)
		}
		if err := c.SetResident(m, words); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Cluster returns the underlying cluster.
func (d *DistGraph) Cluster() *Cluster { return d.c }

// Graph returns the underlying graph.
func (d *DistGraph) Graph() *graph.Graph { return d.g }

// NotifyNeighbors performs the core one-round exchange: the owner of every
// vertex in marked informs the owners of all its neighbors. It returns the
// set of vertices that have at least one marked neighbor. Bandwidth is one
// word per (marked vertex, neighbor) pair, batched into one message per
// machine pair. restrict, when non-nil, limits the notified neighbors to
// members of restrict (used to confine a phase to the active subgraph).
func (d *DistGraph) NotifyNeighbors(name string, marked, restrict *bitset.Set) (*bitset.Set, error) {
	err := d.c.Step(name, func(x *Ctx) {
		d.scatter(x, d.g, marked, restrict, recVertex, nil)
	})
	if err != nil {
		return nil, err
	}
	touched := bitset.New(d.g.N())
	for _, box := range d.c.inboxes {
		for _, msg := range box {
			for _, w := range msg.Payload {
				touched.Add(int(w))
			}
		}
	}
	clear(d.c.inboxes)
	return touched, nil
}

// GatherSubgraph ships the subgraph induced by include to machine 0 and
// returns it together with the mapping from subgraph ids back to original
// vertex ids. This is the final "solve the residual instance locally" step
// of sample-and-sparsify algorithms; machine 0's resident memory is charged
// for the shipped instance, so an over-dense residual graph trips the budget
// check exactly as it would overflow a real machine.
//
// Two rounds: included vertices first announce membership to the owners of
// their neighbors, then each edge with both endpoints included is sent to
// machine 0 by the owner of its smaller endpoint.
func (d *DistGraph) GatherSubgraph(name string, include *bitset.Set) (*graph.Graph, []int32, error) {
	nbrs, err := d.ExchangeActive(name+"/announce", include, nil)
	if err != nil {
		return nil, nil, err
	}
	parts, err := d.c.Gather(name+"/ship", func(x *Ctx) []uint64 {
		var payload []uint64
		for v := x.Lo; v < x.Hi; v++ {
			for _, u := range nbrs.Row(v) {
				if int(u) > v {
					payload = append(payload, uint64(uint32(v))<<32|uint64(uint32(u)))
				}
			}
		}
		return payload
	})
	if err != nil {
		return nil, nil, err
	}
	// Machine-0 local computation: decode, relabel, build.
	toOrig := make([]int32, 0, include.Count())
	toSub := make([]int32, d.g.N())
	for i := range toSub {
		toSub[i] = -1
	}
	include.ForEach(func(v int) bool {
		toSub[v] = int32(len(toOrig))
		toOrig = append(toOrig, int32(v))
		return true
	})
	var edges []graph.Edge
	for _, part := range parts {
		for _, w := range part {
			u := int32(w >> 32)
			v := int32(uint32(w))
			edges = append(edges, graph.Edge{U: toSub[u], V: toSub[v]})
		}
	}
	// Charge machine 0 for holding the residual instance (ids + edges).
	if err := d.c.AddResident(0, len(toOrig)+2*len(edges)); err != nil {
		return nil, nil, err
	}
	sub, err := graph.New(len(toOrig), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, toOrig, nil
}

// ExchangeActive performs the per-phase neighborhood exchange: the owner of
// every active vertex u announces u (and, when vals is non-nil, vals[u]) to
// the owners of all of u's neighbors. It returns the view whose row v is the
// ascending list of v's active neighbors for every active v (empty for
// inactive v) and, when vals is non-nil, whose Vals(v) are their announced
// values. One round; one or two words per (active vertex, neighbor) pair,
// batched per machine pair.
//
// The view is deterministic: inboxes are ordered by sender machine, senders
// scan their vertices and adjacency lists in ascending order, and vertex
// ownership is monotone in the vertex id.
func (d *DistGraph) ExchangeActive(name string, active *bitset.Set, vals []int32) (Adjacency, error) {
	rec := recEdge
	if vals != nil {
		rec = recEdgeVal
	}
	err := d.c.Step(name, func(x *Ctx) {
		d.scatter(x, d.g, active, nil, rec, vals)
	})
	if err != nil {
		return Adjacency{}, err
	}
	return d.collectRows(active, vals != nil), nil
}

// Adjacency is a flat (CSR) neighbour view keyed by vertex: row v is
// Nbr[Off[v]:Off[v+1]], and Val, when values were exchanged, is aligned
// with Nbr. Rows are contiguous: row v ends exactly where row v+1 starts.
type Adjacency struct {
	Off []int32 // len n+1
	Nbr []int32
	Val []int32 // nil unless values were exchanged
}

// Row returns v's neighbours in ascending order (empty for a vertex the
// exchange did not keep).
func (a Adjacency) Row(v int) []int32 { return a.Nbr[a.Off[v]:a.Off[v+1]] }

// Vals returns the values announced by v's neighbours, aligned with Row(v).
func (a Adjacency) Vals(v int) []int32 { return a.Val[a.Off[v]:a.Off[v+1]] }

// record selects what a vertex-keyed exchange sends for one (u, v) pair, u a
// sending vertex and v one of its neighbours.
type record uint8

const (
	recVertex  record = iota // v
	recEdge                  // v<<32 | u
	recEdgeVal               // v<<32 | u, then vals[u]
)

// scatter is the sender half of the vertex-keyed exchanges, run by machine x
// in a step closure: for every local vertex u in from (nil: every vertex)
// and every neighbour v of u in adj that is in to (nil: every neighbour), it
// sends one rec record to v's owner, batched into one message per
// destination in (u, v) order.
//
// A count pass sizes every destination exactly, so the machine fills one
// slab and hands each destination a capacity-clipped sub-slice of it, all
// with one SendOwnedRanges call: the fill cursors end at the range ends. The
// slab is d.slabs[x.Machine], grown only when this exchange needs more
// words than it holds and otherwise overwritten. That is safe because every
// DistGraph exchange drains and clears the inboxes it filled before it
// returns, so no delivered sub-slice of the slab outlives its exchange
// (DESIGN.md §8). Both passes visit only the members of from, skipping
// empty bitset words whole, and walk each ascending adjacency list against
// the next block boundary instead of dividing per edge: ownership is
// monotone in the vertex id.
func (d *DistGraph) scatter(x *Ctx, adj *graph.Graph, from, to *bitset.Set, rec record, vals []int32) {
	stride := 1
	if rec == recEdgeVal {
		stride = 2
	}
	per := d.c.per
	pos := make([]int, d.c.Machines()) // words per destination, then fill cursors, then range ends
	slab := d.slabs[x.Machine]
	for pass := 0; pass < 2; pass++ {
		for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
			nb := adj.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			dst := d.c.Owner(int(nb[0]))
			next := (dst + 1) * per // first vertex past dst's block
			for _, v := range nb {
				if to != nil && !to.Contains(int(v)) {
					continue
				}
				for int(v) >= next {
					dst++
					next += per
				}
				i := pos[dst]
				pos[dst] = i + stride
				if pass == 0 {
					continue
				}
				switch rec {
				case recVertex:
					slab[i] = uint64(v)
				case recEdge:
					slab[i] = uint64(uint32(v))<<32 | uint64(uint32(u))
				case recEdgeVal:
					slab[i] = uint64(uint32(v))<<32 | uint64(uint32(u))
					slab[i+1] = uint64(uint32(vals[u]))
				}
			}
		}
		if pass == 0 {
			total := 0
			for dst, words := range pos {
				pos[dst] = total
				total += words
			}
			if cap(slab) < total {
				slab = make([]uint64, total)
				d.slabs[x.Machine] = slab
			}
			slab = slab[:total]
		}
	}
	x.SendOwnedRanges(slab, pos)
}

// nextIn returns the smallest u >= i in from (nil: every u >= i), or hi when
// there is none below hi.
func nextIn(from *bitset.Set, i, hi int) int {
	if from == nil {
		return i
	}
	if u := from.Next(i); u >= 0 && u < hi {
		return u
	}
	return hi
}

// collectRows is the receiver half of a recEdge or recEdgeVal exchange: it
// decodes every delivered record into a CSR keyed by the addressee v,
// keeping only v in keep (nil: every vertex), and empties the inboxes. A
// count pass sizes the rows and a fill pass writes them, so the view costs
// three allocations whatever the traffic. Rows come out in delivery order:
// by sender machine, then sender vertex, which is ascending.
//
// Each machine decodes its own inbox, as in the model: both passes run per
// receiving machine on the cluster's worker pool, with a serial prefix sum
// between them. Every record for v was sent to Owner(v), so machine m
// writes only the Off entries and rows of its own vertices, and no two
// machines write the same word.
func (d *DistGraph) collectRows(keep *bitset.Set, withVals bool) Adjacency {
	stride := 1
	if withVals {
		stride = 2
	}
	a := Adjacency{Off: make([]int32, d.c.N()+1)}
	off := a.Off
	for pass := 0; pass < 2; pass++ {
		d.c.runBlocks(func(lo, hi int) {
			for m := lo; m < hi; m++ {
				for _, msg := range d.c.inboxes[m] {
					p := msg.Payload
					for i := 0; i+stride <= len(p); i += stride {
						v := int32(p[i] >> 32)
						if keep != nil && !keep.Contains(int(v)) {
							continue
						}
						if pass == 0 {
							off[v+1]++
							continue
						}
						// off[v+1] is row v's fill cursor; once row v is
						// full it is row v's end, i.e. row v+1's start.
						j := off[v+1]
						off[v+1] = j + 1
						a.Nbr[j] = int32(uint32(p[i]))
						if withVals {
							a.Val[j] = int32(uint32(p[i+1]))
						}
					}
				}
			}
		})
		if pass == 0 {
			// Shift the counts to row starts: off[v+1] = Σ_{w<v} |row w|.
			var total int32
			for v := 1; v < len(off); v++ {
				total, off[v] = total+off[v], total
			}
			a.Nbr = make([]int32, total)
			if withVals {
				a.Val = make([]int32, total)
			}
		}
	}
	clear(d.c.inboxes)
	return a
}
