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
	// be in a survivor's row. The conflict view (resolve) recycles the last
	// iteration's, and deg is read only at active vertices, so stale
	// entries of departed ones are harmless.
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
		// all-reduces their maximum. Randomized marks need v's own degree.
		var nbrDeg mpc.Adjacency
		if deterministic {
			if nbrDeg, err = d.ExchangeAlong("luby/degrees", active, view, deg); err != nil {
				return Result{}, err
			}
			maxDeg, err := c.AllReduceMaxUint("luby/maxdeg", func(x *mpc.Ctx) uint64 {
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

		// Conflict resolution: marked vertices announce themselves to the
		// machines that hold them in a view row, so resolve, the view
		// refreshed to marks, is the symmetric view of marks: row v lists
		// v's marked rivals. The lexicographically larger (degree, id)
		// endpoint of each marked edge survives. Randomized Luby sends each
		// marked vertex's degree to its rivals only, along resolve; the
		// deterministic variant already holds every neighbour's degree.
		resolve, err = d.RefreshWithin("luby/resolve", marks, marks, mpc.KeepHeard, view, resolve)
		if err != nil {
			return Result{}, err
		}
		var rivals mpc.Adjacency
		if deterministic {
			rivals = rivalDegrees(resolve, nbrDeg, marks)
		} else if rivals, err = d.ExchangeAlong("luby/rivals", marks, resolve, deg); err != nil {
			return Result{}, err
		}
		marks.ForEach(func(v int) bool {
			if lubyWins(v, deg[v], rivals.Row(v), rivals.Vals(v)) {
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
// marked neighbour rivals[i], of degree rivalDeg[i], on (degree, id).
func lubyWins(v int, dv int32, rivals, rivalDeg []int32) bool {
	for i, w := range rivals {
		if dw := rivalDeg[i]; dw > dv || (dw == dv && w > int32(v)) {
			return false
		}
	}
	return true
}

// rivalDegrees returns resolve with each marked v's rival degrees filled
// in from v's nbrDeg row, so Vals(v)[i] is the degree of Row(v)[i]: the
// values luby/rivals would carry, read locally. resolve's rows are
// ascending sub-rows of nbrDeg's.
func rivalDegrees(resolve, nbrDeg mpc.Adjacency, marks *bitset.Set) mpc.Adjacency {
	val := make([]int32, len(resolve.Nbr))
	marks.ForEach(func(v int) bool {
		row, degs := nbrDeg.Row(v), nbrDeg.Vals(v)
		out := val[resolve.Off[v]:resolve.Off[v+1]]
		i := 0
		for k, w := range resolve.Row(v) {
			for row[i] != w {
				i++
			}
			out[k] = degs[i]
		}
		return true
	})
	return mpc.Adjacency{Off: resolve.Off, Nbr: resolve.Nbr, Val: val}
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
// scored in units of 2^−u, and u: v's term deg_A(v)·(P[mark v] − Σ_u
// P[mark u ∧ mark v]) enters with heterogeneous exponents lubyJ(deg). maxJ
// bounds the exponents.
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
		cs := ms.chunk(s, start, width)
		for v := lo; v < hi; v++ {
			if !active.Contains(v) || deg[v] == 0 {
				continue
			}
			jv := lubyJ(int(deg[v]))
			if !ms.alive(v, jv) {
				continue
			}
			dv := int64(deg[v]) << u
			ms.addMark(out, cs, v, jv, dv)
			du := nbrDeg.Vals(v)
			for i, u := range nbrDeg.Row(v) {
				ms.addPair(out, cs, v, int(u), jv, lubyJ(int(du[i])), -dv)
			}
		}
	}, u, nil
}
