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
// machine pair.
func (d *DistGraph) NotifyNeighbors(name string, marked *bitset.Set) (*bitset.Set, error) {
	return d.NotifyWithin(name, marked, GraphRows(d.g))
}

// NotifyWithin is NotifyNeighbors with the senders walking view's rows
// instead of the graph's adjacency lists: the owner of every marked u
// informs the owner of every w in view.Row(u). On a view of an active set
// that holds marked (an ExchangeActive result), that notifies exactly the
// active neighbours of the marked vertices. One round; one word per
// (marked u, w in view.Row(u)).
func (d *DistGraph) NotifyWithin(name string, marked *bitset.Set, view Adjacency) (*bitset.Set, error) {
	err := d.c.Step(name, func(x *Ctx) {
		d.scatter(x, view, marked, recVertex, nil)
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
	nbrs, err := d.ExchangeActive(name+"/announce", include)
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
// every active vertex u announces u to the owners of all of u's neighbors.
// It returns the view whose row v is the ascending list of v's active
// neighbors for every active v (empty for inactive v). One round; one word
// per (active vertex, neighbor) pair, batched per machine pair.
//
// The view is deterministic: inboxes are ordered by sender machine, senders
// scan their vertices and adjacency lists in ascending order, and vertex
// ownership is monotone in the vertex id.
func (d *DistGraph) ExchangeActive(name string, active *bitset.Set) (Adjacency, error) {
	return d.ExchangeWithin(name, active, GraphRows(d.g))
}

// ExchangeWithin is ExchangeActive with the senders walking view's rows
// instead of the graph's adjacency lists: the owner of every active u
// announces u to the owner of every w in view.Row(u). Row v of the result
// lists, for active v, the active u with v in view.Row(u), ascending; on a
// symmetric view (any ExchangeActive result) that is view.Row(v) restricted
// to active. One round; one word per (active u, w in view.Row(u)).
//
// An active set only shrinks within a marking loop, so the loop refreshes
// its view along the last one: when active is a subset of the set last's
// rows were exchanged for, the result is exactly ExchangeActive(active),
// while only the edges the last view kept carry a word.
func (d *DistGraph) ExchangeWithin(name string, active *bitset.Set, view Adjacency) (Adjacency, error) {
	err := d.c.Step(name, func(x *Ctx) {
		d.scatter(x, view, active, recEdge, nil)
	})
	if err != nil {
		return Adjacency{}, err
	}
	return d.collectRows(active), nil
}

// ExchangeAlong sends one value per view edge: the owner of every active u
// sends vals[u] to the owner of every neighbour v in view.Row(u), and the
// result is view with Val filled, so Vals(v)[i] is the value of Row(v)[i].
// view must be the symmetric view of active (ExchangeActive's result on the
// same set): the senders already hold their rows, so the ids need not
// travel again. One round; one word per (active u, v in view.Row(u)).
//
// The values line up with the rows without any id on the wire: every
// record for v reaches Owner(v) in delivery order, by sender machine and
// then ascending sender, which is the ascending order of view.Row(v) since
// ownership is monotone in the vertex id. A record for a vertex whose row is
// already full, or a row left short, means view is not active's view and
// returns an error.
func (d *DistGraph) ExchangeAlong(name string, active *bitset.Set, view Adjacency, vals []int32) (Adjacency, error) {
	if len(view.Off) != d.c.N()+1 {
		return Adjacency{}, fmt.Errorf("mpc: %s: view has %d row offsets, want %d", name, len(view.Off), d.c.N()+1)
	}
	err := d.c.Step(name, func(x *Ctx) {
		d.scatter(x, view, active, recValue, vals)
	})
	if err != nil {
		return Adjacency{}, err
	}
	val, err := d.collectVals(view)
	if err != nil {
		return Adjacency{}, fmt.Errorf("mpc: %s: %w", name, err)
	}
	return Adjacency{Off: view.Off, Nbr: view.Nbr, Val: val}, nil
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

// GraphRows returns g's adjacency lists as an Adjacency (sharing g's
// storage): the rows the graph-wide exchanges send along, and the view of
// the full vertex set, which a marking loop starts from without an
// exchange.
func GraphRows(g *graph.Graph) Adjacency {
	off, nbr := g.CSR()
	return Adjacency{Off: off, Nbr: nbr}
}

// record selects what a vertex-keyed exchange sends for one (u, v) pair, u a
// sending vertex and v one of its neighbours. Every record is one word.
type record uint8

const (
	recVertex record = iota // v
	recEdge                 // v<<32 | u
	recValue                // v<<32 | vals[u]
)

// scatter is the sender half of the vertex-keyed exchanges, run by machine x
// in a step closure: for every local vertex u in from and every neighbour v
// in adj.Row(u), it sends one rec record to v's owner, batched into one
// message per destination in (u, v) order.
//
// A count pass sizes every destination exactly, so the machine fills one
// slab and hands each destination a capacity-clipped sub-slice of it, all
// with one SendOwnedRanges call: the fill cursors end at the range ends. The
// slab is d.slabs[x.Machine], grown only when this exchange needs more
// words than it holds and otherwise overwritten. That is safe because every
// DistGraph exchange drains and clears the inboxes it filled before it
// returns, so no delivered sub-slice of the slab outlives its exchange
// (DESIGN.md §8). Both passes visit only the members of from, skipping
// empty bitset words whole, and find each v's owner with the cluster's
// reciprocal multiply (blocks), which has no data-dependent branch to
// mispredict on a random row. A record is v, shifted by 32 unless rec is
// recVertex, or-ed with a per-row tag: u, vals[u] or nothing.
func (d *DistGraph) scatter(x *Ctx, adj Adjacency, from *bitset.Set, rec record, vals []int32) {
	owner := d.c.blocks
	pos := make([]int, d.c.Machines()) // words per destination, then fill cursors, then range ends
	for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
		for _, v := range adj.Row(u) {
			pos[owner.of(uint64(uint32(v)))]++
		}
	}
	total := 0
	for dst, words := range pos {
		pos[dst] = total
		total += words
	}
	slab := d.slabs[x.Machine]
	if cap(slab) < total {
		slab = make([]uint64, total)
		d.slabs[x.Machine] = slab
	}
	slab = slab[:total]
	shift := 32
	if rec == recVertex {
		shift = 0
	}
	for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
		var tag uint64
		switch rec {
		case recEdge:
			tag = uint64(uint32(u))
		case recValue:
			tag = uint64(uint32(vals[u]))
		}
		for _, v := range adj.Row(u) {
			w := uint64(uint32(v))
			dst := owner.of(w)
			slab[pos[dst]] = w<<shift | tag
			pos[dst]++
		}
	}
	x.SendOwnedRanges(slab, pos)
}

// nextIn returns the smallest u >= i in from, or hi when there is none below
// hi.
func nextIn(from *bitset.Set, i, hi int) int {
	if u := from.Next(i); u >= 0 && u < hi {
		return u
	}
	return hi
}

// collectRows is the receiver half of a recEdge exchange: it decodes every
// delivered record into a CSR keyed by the addressee v, keeping only v in
// keep, and empties the inboxes. A count pass sizes the rows and a fill pass
// writes them, so the view costs two allocations whatever the traffic. Rows
// come out in delivery order: by sender machine, then sender vertex, which is
// ascending.
//
// Each machine decodes its own inbox, as in the model: both passes run per
// receiving machine on the cluster's worker pool, with a serial prefix sum
// between them. Every record for v was sent to Owner(v), so machine m
// writes only the Off entries and rows of its own vertices, and no two
// machines write the same word.
func (d *DistGraph) collectRows(keep *bitset.Set) Adjacency {
	a := Adjacency{Off: make([]int32, d.c.N()+1)}
	off := a.Off
	for pass := 0; pass < 2; pass++ {
		d.c.runBlocks(func(lo, hi int) {
			for m := lo; m < hi; m++ {
				for _, msg := range d.c.inboxes[m] {
					for _, w := range msg.Payload {
						v := int32(w >> 32)
						if !keep.Contains(int(v)) {
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
						a.Nbr[j] = int32(uint32(w))
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
		}
	}
	clear(d.c.inboxes)
	return a
}

// collectVals is the receiver half of a recValue exchange along view: it
// writes every delivered value into the slot of view's CSR that its row's
// cursor points at, and empties the inboxes. There is no count pass: the
// rows are view's. Each machine copies its rows' starts out of view.Off as
// cursors and decodes its own inbox on the worker pool, writing only its
// own rows' slots and cursors. It returns the values and, when some record
// found its row full, some row ended short, or a record reached a machine
// that does not own its vertex, the lowest machine's error.
func (d *DistGraph) collectVals(view Adjacency) ([]int32, error) {
	val := make([]int32, len(view.Nbr))
	cur := make([]int32, d.c.N())
	errs := make([]error, d.c.Machines())
	d.c.runBlocks(func(lo, hi int) {
		for m := lo; m < hi; m++ {
			vlo, vhi := d.c.Range(m)
			copy(cur[vlo:vhi], view.Off[vlo:vhi])
		decode:
			for _, msg := range d.c.inboxes[m] {
				for _, w := range msg.Payload {
					v := int(w >> 32)
					if v < vlo || v >= vhi {
						errs[m] = fmt.Errorf("machine %d received a value for vertex %d, owned by machine %d", m, v, d.c.Owner(v))
						break decode
					}
					j := cur[v]
					if j == view.Off[v+1] {
						errs[m] = fmt.Errorf("row %d received more than its %d values", v, view.Off[v+1]-view.Off[v])
						break decode
					}
					cur[v] = j + 1
					val[j] = int32(uint32(w))
				}
			}
			for v := vlo; v < vhi && errs[m] == nil; v++ {
				if cur[v] != view.Off[v+1] {
					errs[m] = fmt.Errorf("row %d received %d of its %d values", v, cur[v]-view.Off[v], view.Off[v+1]-view.Off[v])
				}
			}
		}
	})
	clear(d.c.inboxes)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return val, nil
}
