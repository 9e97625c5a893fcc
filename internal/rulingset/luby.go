package rulingset

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
)

// LubyMIS computes a maximal independent set of g with Luby's randomized
// algorithm executed on the MPC simulator: every active vertex marks itself
// with probability 1/(2·deg), conflicts resolve toward the higher
// (degree, id) endpoint, winners join the MIS and knock out their neighbors.
// Θ(log n) iterations — the classical baseline the ruling-set relaxation is
// measured against.
func LubyMIS(g *graph.Graph, o Options) (Result, error) {
	return lubyMIS(g, o, false)
}

// DetLubyMIS is the derandomized Luby baseline: marks come from a
// pairwise-independent AND-family with per-vertex exponents, and each
// iteration's seed is fixed by the method of conditional expectations
// maximizing Luby's pairwise progress bound
//
//	Ψ(seed) = Σ_{active v} deg_A(v)·( P[mark v] − Σ_{u ∈ N_A(v)} P[mark u ∧ mark v] ).
//
// The fixed seed removes at least the expected share of active edges, so the
// iteration count stays O(log m) deterministically.
func DetLubyMIS(g *graph.Graph, o Options) (Result, error) {
	return lubyMIS(g, o, true)
}

func lubyMIS(g *graph.Graph, o Options, deterministic bool) (Result, error) {
	d, o, err := distribute(g, o)
	if err != nil {
		return Result{}, err
	}
	c := d.Cluster()
	m := newMPCModel(d, "luby")
	n := g.N()

	active := bitset.New(n)
	active.Fill()
	inSet := bitset.New(n)
	if err := registerCheckpoint(c, o, active, inSet); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	var phases []PhaseStat

	remaining := n
	// The first iteration marks on the graph's rows, every vertex active;
	// each later one refreshes the view along the last into the storage of
	// the one before (spare), as in runPhases. Winners are independent and
	// every active neighbour of a winner is knocked out, so the last
	// iteration's touched set holds every vertex that left and may still
	// be in a survivor's row. Randomized Luby's conflict view (resolve)
	// recycles the last iteration's, and deg is read only at active
	// vertices, so stale entries of departed ones are harmless.
	view := mpc.GraphRows(g)
	var spare, resolve mpc.Adjacency
	var touched *bitset.Set
	deg := make([]int32, n)
	c.Span("sparsify") // Luby's marking iterations play the sparsify role
	for iter := 1; remaining > 0; iter++ {
		if iter > o.MaxIterations {
			return Result{}, fmt.Errorf("rulingset: luby iteration cap %d exceeded with %d active vertices", o.MaxIterations, remaining)
		}
		if iter > 1 {
			next, err := m.view(active, touched, phases[len(phases)-1].ActiveBefore, remaining, view, spare)
			if err != nil {
				return Result{}, err
			}
			if iter > 2 { // the first iteration's view is the graph's rows
				spare = view
			}
			view = next
		}
		joiners := bitset.New(n) // MIS joiners this iteration
		activeEdges := 0
		active.ForEach(func(v int) bool {
			row := view.Row(v)
			deg[v] = int32(len(row))
			if deg[v] == 0 {
				joiners.Add(v) // isolated in the active graph: joins unconditionally
			}
			for _, u := range row {
				if int(u) > v {
					activeEdges++
				}
			}
			return true
		})
		ps := PhaseStat{
			Phase:        iter,
			ActiveBefore: remaining,
			ActiveEdges:  activeEdges,
		}

		marks := bitset.New(n)
		// The deterministic estimator reads every active neighbour's degree
		// and sizes its family by the largest one, so only it exchanges the
		// degrees along the view (Vals(v) lines up with view.Row(v)) and
		// all-reduces their maximum; its conflict resolution reads the same
		// rows. Randomized marks need v's own degree.
		var nbrDeg mpc.Adjacency
		if deterministic {
			if nbrDeg, err = d.ExchangeAlong("luby/degrees", active, view, deg); err != nil {
				return Result{}, err
			}
			maxDeg, err := c.AllReduceMaxUint("luby/maxdeg", func(x mpc.Ctx) uint64 {
				var local uint64
				for v := x.Lo; v < x.Hi; v++ {
					if active.Contains(v) && uint64(deg[v]) > local {
						local = uint64(deg[v])
					}
				}
				return local
			})
			if err != nil {
				return Result{}, err
			}
			// With maxDeg 0 every active vertex is isolated and joins unmarked.
			if maxDeg > 0 {
				if err := detLubyMarks(m, o, active, nbrDeg, deg, int(maxDeg), marks, &ps); err != nil {
					return Result{}, err
				}
			}
		} else {
			active.ForEach(func(v int) bool {
				if deg[v] > 0 && rng.Float64() < math.Ldexp(1, -lubyJ(int(deg[v]))) {
					marks.Add(v)
				}
				return true
			})
		}
		ps.Marked = marks.Count()

		// Conflict resolution: the lexicographically larger (degree, id)
		// endpoint of each marked edge survives. DetLubyMIS resolves
		// without a round: every machine holds the fixed seed and, in its
		// nbrDeg rows, each active neighbour's id and degree, so it knows
		// which neighbours are marked (ms.marked(u, lubyJ(deg_u)), what
		// marks holds). Randomized marks are private draws, so marked
		// vertices announce themselves to the machines that hold them in a
		// view row: resolve, the view refreshed to marks, lists v's marked
		// rivals in row v, and each marked vertex sends its degree to its
		// rivals along it.
		rivals := nbrDeg
		if !deterministic {
			if resolve, err = d.RefreshWithin("luby/resolve", marks, marks, mpc.KeepHeard, view, resolve); err != nil {
				return Result{}, err
			}
			if rivals, err = d.ExchangeAlong("luby/rivals", marks, resolve, deg); err != nil {
				return Result{}, err
			}
		}
		marks.ForEach(func(v int) bool {
			if lubyWins(v, deg[v], rivals.Row(v), rivals.Vals(v), marks) {
				joiners.Add(v)
			}
			return true
		})

		inSet.Union(joiners)
		touched, err = d.NotifyWithin("luby/knockout", joiners, view)
		if err != nil {
			return Result{}, err
		}
		active.Subtract(joiners)
		active.Subtract(touched)

		if remaining, err = m.countActive(active); err != nil {
			return Result{}, err
		}
		ps.ActiveAfter = remaining
		phases = append(phases, ps)
	}

	c.Span("finish")
	members := make([]int32, 0, inSet.Count())
	inSet.ForEach(func(v int) bool {
		members = append(members, int32(v))
		return true
	})
	return Result{
		Members: members,
		Beta:    1,
		Stats:   c.Stats(),
		Phases:  phases,
	}, nil
}

// lubyWins reports whether marked v with active degree dv beats every
// marked vertex among nbrs, of degrees degs, on (degree, id).
func lubyWins(v int, dv int32, nbrs, degs []int32, marks *bitset.Set) bool {
	for i, w := range nbrs {
		if dw := degs[i]; (dw > dv || (dw == dv && w > int32(v))) && marks.Contains(int(w)) {
			return false
		}
	}
	return true
}

// lubyJ returns the marking exponent for active degree d >= 1: the smallest
// j with 2^-j <= 1/(2d).
func lubyJ(d int) int {
	return bits.Len(uint(2*d - 1))
}

// detLubyMarks runs one derandomized Luby marking step with the AND-family
// (per-vertex power-of-two probabilities). nbrDeg's row v lists v's active
// neighbors and its Vals(v) their degrees.
func detLubyMarks(m model, o Options, active *bitset.Set, nbrDeg mpc.Adjacency, deg []int32, maxDeg int, marks *bitset.Set, ps *PhaseStat) error {
	n := active.Len()
	maxJ := lubyJ(maxDeg)
	fam, err := hash.NewBits(n, maxJ)
	if err != nil {
		return err
	}
	seed := fam.NewSeed()
	ms := newMarkState(fam, n)

	eval, u, err := lubyEstimator(ms, active, nbrDeg, deg, maxJ)
	if err != nil {
		return err
	}
	if err := fixSeed(m, o, derand.Maximize, ms, seed, eval, u, ps); err != nil {
		return err
	}
	active.ForEach(func(v int) bool {
		if deg[v] > 0 && ms.marked(v, lubyJ(int(deg[v]))) {
			marks.Add(v)
		}
		return true
	})
	return nil
}

// lubyEstimator returns detLubyMarks' progress bound Ψ as a ChunkEval on
// ms, one spectrum per machine (summed and transformed by the reduction),
// scored in units of 2^−u, and u: v's term deg_A(v)·(P[mark v] − Σ_x
// P[mark x ∧ mark v]) enters with heterogeneous exponents lubyJ(deg). maxJ
// bounds the exponents.
//
// The pass sums the terms of the per-term reference (perTermLuby, in the
// tests) without making them one by one, as sparsifyEstimator does. Every
// vertex shares the partial segment f = ms.fixedSegs and a code does not
// depend on the exponent, so an exponent j only sets a vertex's weight and
// which of its terms the chunk touches. With e = max(j − f, 0) segments
// left, the partial one among them, an alive v with weight d_v = deg_A(v)
// adds d_v·2^−e_v·(1 − s_v·χ_{m_v}), and an alive pair (v, x) subtracts
// W = d_v·2^−(e_v+e_x) times
//
//	1 − [e_v > 0]·s_v·χ_{m_v} − [e_x > 0]·s_x·χ_{m_x} + [e_v > 0 ∧ e_x > 0]·s_v·s_x·χ_{m_v⊕m_x}
//
// A single term is present only in a determined chunk, and the product
// term only when the pair's keys match (chunkCodes). So the product term
// is the only one that needs both vertices, and v's row adds its sum of W
// at w[0] and, times s_v, at m_v.
func lubyEstimator(ms *markState, active *bitset.Set, nbrDeg mpc.Adjacency, deg []int32, maxJ int) (derand.ChunkEval, int, error) {
	terms, weight := 0, 0.0
	active.ForEach(func(v int) bool {
		if deg[v] > 0 {
			terms += 1 + int(deg[v])
			weight += float64(deg[v]) * float64(1+deg[v])
		}
		return true
	})
	if err := checkExact(maxJ, 0, terms, weight); err != nil {
		return nil, 0, err
	}
	u := units(maxJ, 0)
	return func(lo, hi int, s *hash.Seed, start, width int, out []int64) {
		clear(out)
		f := ms.fixedSegs
		cc := newChunkCodes(ms.fam, ms.chunk(s, start, width))
		fz := ms.firstZero
		for v := lo; v < hi; v++ {
			if !active.Contains(v) || deg[v] == 0 {
				continue
			}
			jv := lubyJ(int(deg[v]))
			if int(fz[v]) < min(f, jv) {
				continue // dead: its first zero is among its fixed bits
			}
			ev := max(jv-f, 0)
			// d_v·2^−e_v; every shift below is exact, as 2·maxJ ≤ u.
			dv := int64(deg[v]) << (u - ev)
			cv := cc.code(v)
			var sum int64 // Σ W over v's alive neighbours
			dx := nbrDeg.Vals(v)
			for i, x := range nbrDeg.Row(v) {
				jx := lubyJ(int(dx[i]))
				if int(fz[x]) < min(f, jx) {
					continue
				}
				ex := max(jx-f, 0)
				w := dv >> ex
				sum += w
				if ex == 0 {
					continue
				}
				cx := cc.code(int(x))
				if cc.det {
					out[cc.slot(cx)] += signed(w, cx&1)
				}
				if y := cv ^ cx; ev > 0 && cc.coupled(y) {
					out[cc.slot(y)] -= signed(w, y&1)
				}
			}
			out[0] += dv - sum
			if cc.det && ev > 0 {
				out[cc.slot(cv)] -= signed(dv-sum, cv&1)
			}
		}
	}, u, nil
}
