package mpc

import (
	"errors"
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
	// heard[lo] is the n-bit heard-set of the worker block whose first
	// machine is lo, reused by the block's next refresh (see refreshRows).
	heard [][]uint64
	// cur is collectVals' per-vertex row cursors, n entries allocated on
	// the first values exchange; machine m writes only its own range.
	cur []int32
}

// Distribute places g on the cluster and charges each machine's resident
// memory for its shard (2 + deg(v) words per local vertex v). The cluster
// must have been created with ground-set size g.N().
func Distribute(c *Cluster, g *graph.Graph) (*DistGraph, error) {
	if c.N() != g.N() {
		return nil, fmt.Errorf("mpc: cluster ground set %d != graph order %d", c.N(), g.N())
	}
	d := &DistGraph{c: c, g: g, slabs: make([][]uint64, c.Machines()), heard: make([][]uint64, c.Machines())}
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

// NotifyWithin performs the core one-round exchange: the owner of every
// marked u informs the owner of every w in view.Row(u), and the result is
// the set of vertices that heard from a marked vertex. Along GraphRows(g)
// that is the marked vertices' neighbourhood; along the view of an active
// set that holds marked (a RefreshWithin result), exactly their active
// neighbours. One round; one word per (marked u, w in view.Row(u)),
// batched into one message per machine pair.
func (d *DistGraph) NotifyWithin(name string, marked *bitset.Set, view Adjacency) (*bitset.Set, error) {
	err := d.c.Step(name, func(x Ctx) {
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
// Two rounds: included vertices first announce membership to the machines
// that own their neighbours (RefreshWithin along the graph's rows), then
// each edge with both endpoints included is sent to machine 0 by the owner
// of its smaller endpoint. reuse is a dead view the announce round's view
// may overwrite, as in RefreshWithin, or the zero Adjacency; it must not
// share storage with the graph's rows.
func (d *DistGraph) GatherSubgraph(name string, include *bitset.Set, reuse Adjacency) (*graph.Graph, []int32, error) {
	nbrs, err := d.RefreshWithin(name+"/announce", include, include, KeepHeard, GraphRows(d.g), reuse)
	if err != nil {
		return nil, nil, err
	}
	parts, err := d.c.Gather(name+"/ship", func(x Ctx) []uint64 {
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

// Refresh selects the side of a shrunk active set that announces itself in
// RefreshWithin, and what a machine does with the ids it hears.
type Refresh uint8

const (
	// KeepHeard: the survivors announce themselves, and each kept row keeps
	// only the ids its machine heard.
	KeepHeard Refresh = iota
	// DropHeard: the departures announce themselves, and each kept row
	// drops the ids its machine heard.
	DropHeard
)

// RefreshWithin is the one view builder. last is the symmetric view of a
// set that holds active (GraphRows(g) for the full vertex set), and the
// result is active's own symmetric view: row v is the ascending list of
// v's neighbours in active for active v, and empty for every other v. The
// owner of every u in announce sends u once to each machine that owns a
// vertex of last.Row(u). Rows are ascending and ownership is monotone in
// the vertex id, so a row's owners come in runs and skipping a repeated
// owner is all the deduplication needed. Each machine decodes only its own
// inbox into its own heard-set, then rebuilds its active vertices' rows
// from its rows of last. With KeepHeard, announce is active and a row keeps
// the ids its machine heard: by symmetry every active neighbour of a
// machine's vertex announced itself there. With DropHeard, announce must
// hold every vertex that left the set and is still in an active vertex's
// row of last, and a row drops the ids its machine heard. One round; one
// word per (u in announce, distinct owner of last.Row(u)), so never more
// words or messages than one word per edge end of announce would take.
//
// A one-shot view of a set is RefreshWithin(name, set, set, KeepHeard,
// GraphRows(g), Adjacency{}), and Luby's conflict view of its marks
// refreshes the iteration's view with the marks on both sides. A marking
// loop announces the smaller side of its shrunk set. It knocks out the
// active neighbours of its marks, so only the knocked-out vertices need
// announce their departure: no survivor's row holds a mark.
//
// reuse is a dead view whose storage the result may take over, or the zero
// Adjacency: its Off and Nbr are overwritten when their capacity suffices,
// so the caller must no longer read reuse or anything sharing its arrays
// (a values exchange along it included). A marking loop passes the view
// it refreshed two iterations ago. reuse must not share an array with last
// or with the graph's rows (CheckReuse); if it does, RefreshWithin returns
// an error before any round runs.
func (d *DistGraph) RefreshWithin(name string, active, announce *bitset.Set, dir Refresh, last, reuse Adjacency) (Adjacency, error) {
	if err := CheckReuse(reuse, last, d.g); err != nil {
		return Adjacency{}, fmt.Errorf("mpc: %s: %w", name, err)
	}
	err := d.c.Step(name, func(x Ctx) {
		d.announce(x, last, announce)
	})
	if err != nil {
		return Adjacency{}, err
	}
	return d.refreshRows(active, dir, last, reuse), nil
}

// CheckReuse returns an error when reuse, a view offered for recycling,
// shares an array with last, the view being refreshed, or with g's own
// rows: writing the result into it would corrupt the rows it is built
// from, or the graph. Two slices share an array here when the last
// element of their capacity is the same one; every view keeps its arrays'
// full capacity, so a view and any reslice of it that keeps its capacity
// always do.
func CheckReuse(reuse, last Adjacency, g *graph.Graph) error {
	rows := GraphRows(g)
	for _, buf := range [][]int32{reuse.Off, reuse.Nbr} {
		for _, live := range [][]int32{last.Off, last.Nbr, last.Val, rows.Off, rows.Nbr} {
			if sharesArray(buf, live) {
				return errors.New("the view to recycle shares storage with the view being refreshed or the graph's rows")
			}
		}
	}
	return nil
}

// sharesArray reports whether a and b end at the same element of one
// backing array.
func sharesArray(a, b []int32) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// resize returns buf with length k when its capacity suffices, and a new
// array of k otherwise.
func resize(buf []int32, k int) []int32 {
	if cap(buf) < k {
		return make([]int32, k)
	}
	return buf[:k]
}

// ExchangeAlong sends one value per view edge: the owner of every active u
// sends vals[u] to the owner of every neighbour v in view.Row(u), and the
// result is view with Val filled, so Vals(v)[i] is the value of Row(v)[i].
// view must be the symmetric view of active: a RefreshWithin result for
// active, or GraphRows(g) when every vertex is active. The senders already
// hold their rows, so the ids need not travel again. One round; one word
// per (active u, v in view.Row(u)).
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
	err := d.c.Step(name, func(x Ctx) {
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
// storage): the view of the full vertex set, which a marking loop starts
// from without an exchange, which graph-wide notifies send along, and
// which a one-shot RefreshWithin refreshes.
func GraphRows(g *graph.Graph) Adjacency {
	off, nbr := g.CSR()
	return Adjacency{Off: off, Nbr: nbr}
}

// record selects what a vertex-keyed exchange sends for one (u, v) pair, u a
// sending vertex and v one of its neighbours. Every record is one word.
type record uint8

const (
	recVertex record = iota // v
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
// mispredict on a random row. A record is v, or v<<32 | vals[u] for
// recValue.
func (d *DistGraph) scatter(x Ctx, adj Adjacency, from *bitset.Set, rec record, vals []int32) {
	owner := d.c.blocks
	pos := make([]int, d.c.Machines()) // words per destination, then fill cursors, then range ends
	for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
		for _, v := range adj.Row(u) {
			pos[owner.of(uint64(uint32(v)))]++
		}
	}
	slab := d.slab(x.Machine, pos)
	shift := 32
	if rec == recVertex {
		shift = 0
	}
	for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
		var tag uint64
		if rec == recValue {
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

// announce is the sender half of RefreshWithin, run by machine x in a step
// closure: every local u in from is sent, as the one-word record u, once to
// each machine that owns a vertex of adj.Row(u), batched into one message
// per destination in u order. A row is ascending and each machine owns one
// block of ids, so a row's owners come in runs, and an entry claims a word
// exactly when its owner differs from the previous entry's. The walk finds
// every entry's owner with the reciprocal multiply and adds the claim to
// the destination's cursor as a 0 or 1, with no data-dependent branch to
// mispredict on a random row: the fill pass writes u at the last claimed
// slot whether or not the entry claimed it. The records go out from the
// machine's slab, sized by a count pass as in scatter.
func (d *DistGraph) announce(x Ctx, adj Adjacency, from *bitset.Set) {
	owner := d.c.blocks
	pos := make([]int, d.c.Machines()) // words per destination, then fill cursors, then range ends
	for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
		prev := -1 // the last entry's owner
		for _, v := range adj.Row(u) {
			dst := owner.of(uint64(uint32(v)))
			pos[dst] += changed(dst, prev)
			prev = dst
		}
	}
	slab := d.slab(x.Machine, pos)
	for u := nextIn(from, x.Lo, x.Hi); u < x.Hi; u = nextIn(from, u+1, x.Hi) {
		w := uint64(uint32(u))
		prev := -1
		for _, v := range adj.Row(u) {
			dst := owner.of(uint64(uint32(v)))
			pos[dst] += changed(dst, prev)
			slab[pos[dst]-1] = w
			prev = dst
		}
	}
	x.SendOwnedRanges(slab, pos)
}

// changed returns 1 when a != b and 0 otherwise, without a branch: a^b is
// non-zero exactly when they differ, and then x | -x has its sign bit set.
func changed(a, b int) int {
	x := uint64(a ^ b)
	return int((x | -x) >> 63)
}

// slab turns pos's per-destination word counts into fill cursors, the
// start of each destination's range, and returns machine m's send slab
// sized to their total: d.slabs[m], grown only when it is too small (see
// scatter for why reuse is safe).
func (d *DistGraph) slab(m int, pos []int) []uint64 {
	total := 0
	for dst, words := range pos {
		pos[dst] = total
		total += words
	}
	slab := d.slabs[m]
	if cap(slab) < total {
		slab = make([]uint64, total)
		d.slabs[m] = slab
	}
	return slab[:total]
}

// nextIn returns the smallest u >= i in from, or hi when there is none below
// hi.
func nextIn(from *bitset.Set, i, hi int) int {
	if u := from.Next(i); u >= 0 && u < hi {
		return u
	}
	return hi
}

// refreshRows is the receiver half of RefreshWithin: it rebuilds every
// active vertex's row from its row of last, keeping (KeepHeard) or dropping
// (DropHeard) the ids its machine heard, and empties the inboxes. The result
// takes over reuse's Off and Nbr when they are large enough, so a refresh
// into a recycled view allocates nothing n-sized. Kept entries stay in
// last's ascending order.
//
// Each machine works from its own inbox and its own rows, as in the model:
// a count pass and a fill pass run per receiving machine on the cluster's
// worker pool. The count pass writes every Off entry of the machine's
// range as its local running row total, so no entry keeps a stale value
// from reuse, and leaves the machine's total in base. A serial pass over
// the M totals turns them into each machine's first row offset, and
// the fill pass adds that base to the machine's Off entries as it writes
// the rows, keeping the next row's start in a register: a machine never
// reads another machine's Off entry. A worker decodes machine m's inbox
// into its block's heard-set, walks m's rows, and clears the words it set
// before the next machine, so the set is empty again between machines,
// passes and refreshes. The sets live in d.heard, one n-bit array per
// worker block keyed by the block's first machine, and are allocated on a
// block's first refresh only. Both passes read an entry's bit without a
// branch: the count adds it, and the fill writes every entry at the row's
// cursor and advances the cursor by the bit, so a dropped entry is
// overwritten by the next one, and stops once the row is full.
func (d *DistGraph) refreshRows(active *bitset.Set, dir Refresh, last, reuse Adjacency) Adjacency {
	n := d.c.N()
	a := Adjacency{Off: resize(reuse.Off, n+1)}
	off := a.Off
	off[0] = 0
	var flip uint64 // an entry is kept when its heard bit differs from flip
	if dir == DropHeard {
		flip = 1
	}
	base := make([]int32, d.c.Machines()) // row totals, then first row offsets
	for pass := 0; pass < 2; pass++ {
		d.c.runBlocks(d.c.Machines(), func(lo, hi int) {
			heard := d.heard[lo]
			if heard == nil {
				heard = make([]uint64, (n+63)/64)
				d.heard[lo] = heard
			}
			for m := lo; m < hi; m++ {
				for _, msg := range d.c.inboxes[m] {
					for _, w := range msg.Payload {
						heard[w/64] |= 1 << (w % 64)
					}
				}
				vlo, vhi := d.c.Range(m)
				if pass == 0 {
					base[m] = countRows(off, active, last, heard, flip, vlo, vhi)
				} else {
					fillRows(a, active, last, heard, flip, vlo, vhi, base[m])
				}
				for _, msg := range d.c.inboxes[m] {
					for _, w := range msg.Payload {
						heard[w/64] = 0
					}
				}
			}
		})
		if pass == 0 {
			var total int32
			for m, k := range base {
				base[m] = total
				total += k
			}
			a.Nbr = resize(reuse.Nbr, int(total))
		}
	}
	clear(d.c.inboxes)
	return a
}

// countRows is refreshRows' count pass over the vertices [vlo, vhi) of one
// machine: it sets off[v+1] to the number of kept entries in the rows of
// the active vertices in [vlo, v], for every v of the range, and returns
// the range's total.
func countRows(off []int32, active *bitset.Set, last Adjacency, heard []uint64, flip uint64, vlo, vhi int) int32 {
	var k int32
	next := vlo + 1 // the next Off entry to write
	for v := nextIn(active, vlo, vhi); v < vhi; v = nextIn(active, v+1, vhi) {
		for ; next <= v; next++ {
			off[next] = k // the empty rows of inactive vertices
		}
		for _, u := range last.Row(v) {
			k += int32(heard[uint32(u)/64]>>(uint32(u)%64)&1 ^ flip)
		}
		off[v+1] = k
		next = v + 2
	}
	for ; next <= vhi; next++ {
		off[next] = k
	}
	return k
}

// fillRows is refreshRows' fill pass over the vertices [vlo, vhi) of one
// machine whose first row starts at base: it adds base to the local totals
// countRows left in a.Off and writes each active vertex's kept entries.
func fillRows(a Adjacency, active *bitset.Set, last Adjacency, heard []uint64, flip uint64, vlo, vhi int, base int32) {
	off := a.Off
	start := base
	next := vlo + 1
	for v := nextIn(active, vlo, vhi); v < vhi; v = nextIn(active, v+1, vhi) {
		for ; next <= v; next++ {
			off[next] += base
		}
		end := base + off[v+1]
		off[v+1] = end
		next = v + 2
		j := start
		for _, u := range last.Row(v) {
			if j == end {
				break
			}
			a.Nbr[j] = u
			j += int32(heard[uint32(u)/64]>>(uint32(u)%64)&1 ^ flip)
		}
		start = end
	}
	for ; next <= vhi; next++ {
		off[next] += base
	}
}

// collectVals is the receiver half of a recValue exchange along view: it
// writes every delivered value into the slot of view's CSR that its row's
// cursor points at, and empties the inboxes. There is no count pass: the
// rows are view's. Each machine copies its rows' starts out of view.Off as
// cursors into d.cur, kept for the next exchange like the heard-sets, and
// decodes its own inbox on the worker pool, writing only its own rows'
// slots and cursors. It returns the values and, when some record
// found its row full, some row ended short, or a record reached a machine
// that does not own its vertex, the lowest machine's error.
func (d *DistGraph) collectVals(view Adjacency) ([]int32, error) {
	val := make([]int32, len(view.Nbr))
	if d.cur == nil {
		d.cur = make([]int32, d.c.N())
	}
	cur := d.cur
	errs := make([]error, d.c.Machines())
	d.c.runBlocks(d.c.Machines(), func(lo, hi int) {
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
