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

// schedule returns the sampling-exponent schedule for maximum degree delta:
// j₁ ≈ log₂Δ − 1 (probability ≈ 2/Δ), halving until 1. The probability
// therefore squares-up each phase, p_{i+1} ≈ √p_i — the geometric escalation
// that makes the number of phases Θ(log log Δ).
func schedule(delta int) []int {
	j := bits.Len(uint(delta)) - 1
	if j < 1 {
		j = 1
	}
	var js []int
	for {
		js = append(js, j)
		if j == 1 {
			return js
		}
		j = (j + 1) / 2
	}
}

// sparsifyState carries the sample-and-sparsify loop's evolving state from
// phase to phase and from level to level: the active and candidate sets,
// the view the last phase marked on (the graph's own rows before the first
// phase, when every vertex is active and every machine already holds its
// rows), the view before it (spare, dead storage the next refresh
// recycles; empty while it would be the graph's rows), the vertices the
// last phase knocked out without marking them, the only ones that left and
// may still be in an active vertex's row of that view, and the phases of
// every level, the current one from index first on.
type sparsifyState struct {
	active     *bitset.Set
	candidates *bitset.Set
	view       mpc.Adjacency
	spare      mpc.Adjacency
	departed   *bitset.Set
	phases     []PhaseStat
	first      int
}

func newSparsifyState(g *graph.Graph) *sparsifyState {
	s := &sparsifyState{
		active:     bitset.New(g.N()),
		candidates: bitset.New(g.N()),
		view:       mpc.GraphRows(g),
	}
	s.active.Fill()
	return s
}

// model is the seam between the drivers and the model they run in. The
// marking loops (sample-and-sparsify, Luby's iterations), their estimators
// and seed search, and the residual stage are shared; a model supplies only
// its collectives, each under its own step names, so traces stay
// model-specific. Exactly two implementations: mpcModel and cliqueModel.
type model interface {
	// Reduction sums a seed-search chunk and distributes the pick.
	derand.Reduction
	// view returns every active vertex's active neighbors in ascending
	// order (an empty row for inactive vertices), refreshed along last, the
	// view of a superset of active: only last's edges carry a word. before
	// and after are the active counts last was exchanged for and now (the
	// last phase's ActiveBefore and ActiveAfter), and departed holds every
	// vertex that left and is still in an active vertex's row of last.
	// reuse is a dead view the result may overwrite (mpc.RefreshWithin),
	// or the zero Adjacency.
	view(active, departed *bitset.Set, before, after int, last, reuse mpc.Adjacency) (mpc.Adjacency, error)
	// dominate notifies the neighbors of the marked vertices along view,
	// the active set's current view, and returns the vertices reached.
	dominate(marks *bitset.Set, view mpc.Adjacency) (*bitset.Set, error)
	// countActive counts the active vertices by communication, so the
	// loop condition is driven by what the machines report.
	countActive(active *bitset.Set) (int, error)
	// gatherResidual collects the subgraph induced by cand at one place and
	// returns it with the original id of each of its vertices. reuse is a
	// dead view the gather may overwrite (sparsifyState.deadView), or the
	// zero Adjacency.
	gatherResidual(cand *bitset.Set, reuse mpc.Adjacency) (*graph.Graph, []int32, error)
	// announceMembers tells the residual solution's members they joined.
	announceMembers(members []int32) error
}

// mpcModel runs a driver on a distributed graph in MPC. Its loop steps are
// named prefix/view, prefix/dominate, prefix/active and prefix/seed.
type mpcModel struct {
	derand.Reduction
	d      *mpc.DistGraph
	prefix string
}

func newMPCModel(d *mpc.DistGraph, prefix string) mpcModel {
	return mpcModel{Reduction: derand.MPC(d.Cluster()), d: d, prefix: prefix}
}

// view has the smaller side of the shrunk active set announce itself, once
// per machine that holds it in a row: the departures when more than half
// of last's set survives, the survivors otherwise. Every machine knows both
// counts from the prefix/active all-reduces, so the choice costs no word.
func (m mpcModel) view(active, departed *bitset.Set, before, after int, last, reuse mpc.Adjacency) (mpc.Adjacency, error) {
	if 2*after > before {
		return m.d.RefreshWithin(m.prefix+"/view", active, departed, mpc.DropHeard, last, reuse)
	}
	return m.d.RefreshWithin(m.prefix+"/view", active, active, mpc.KeepHeard, last, reuse)
}

func (m mpcModel) dominate(marks *bitset.Set, view mpc.Adjacency) (*bitset.Set, error) {
	return m.d.NotifyWithin(m.prefix+"/dominate", marks, view)
}

func (m mpcModel) countActive(active *bitset.Set) (int, error) {
	counts, err := m.d.Cluster().AllReduceSumUint(m.prefix+"/active", func(x *mpc.Ctx) []uint64 {
		return []uint64{uint64(active.CountRange(x.Lo, x.Hi))}
	})
	if err != nil {
		return 0, err
	}
	return int(counts[0]), nil
}

func (m mpcModel) gatherResidual(cand *bitset.Set, reuse mpc.Adjacency) (*graph.Graph, []int32, error) {
	return m.d.GatherSubgraph("residual", cand, reuse)
}

func (m mpcModel) announceMembers(members []int32) error {
	return m.d.Cluster().ScatterToOwners("residual/members", members)
}

// runPhases executes the sampling phases for the given exponents js in m,
// updating st. Deterministic phases derandomize the sampling with the method
// of conditional expectations; randomized phases draw marks from rng with
// the same power-of-two probabilities, so the two variants are directly
// comparable.
//
// A level's first phase marks on st.view as it stands (the graph's rows,
// with every vertex active, or the view nextLevel built); each later phase
// of the level refreshes it along the last phase's view, since the active
// set only shrinks, into the storage of the view before it (st.spare): the
// two views alternate, so a loop allocates its view arrays at most twice. Every active neighbour of a mark is
// knocked out, so no survivor's row holds a mark, and the
// vertices that left and may still be in a survivor's row are the
// knocked-out ones that were not marked (st.departed).
//
// Phase contract (verified by tests): after each phase, every vertex that
// left the active set is either in the candidate set or adjacent to it.
func runPhases(m model, o Options, st *sparsifyState, js []int, deterministic bool, rng *rand.Rand) error {
	n := st.active.Len()
	m.Span("sparsify")
	for _, j := range js {
		if st.active.Count() == 0 {
			return nil
		}
		done := len(st.phases) - st.first // phases this level has run
		if done >= o.MaxPhases {
			return fmt.Errorf("rulingset: phase cap %d exceeded", o.MaxPhases)
		}
		if done > 0 {
			last := st.phases[len(st.phases)-1]
			next, err := m.view(st.active, st.departed, last.ActiveBefore, last.ActiveAfter, st.view, st.spare)
			if err != nil {
				return err
			}
			if len(st.phases) > 1 { // the first phase's view is the graph's rows
				st.spare = st.view
			}
			st.view = next
		}
		view := st.view
		ps := PhaseStat{
			Phase:        done + 1,
			J:            j,
			ActiveBefore: st.active.Count(),
		}
		capSize := 1 << uint(j)
		st.active.ForEach(func(v int) bool {
			nb := view.Row(v)
			if len(nb) >= capSize {
				ps.HighDegBefore++
			}
			for _, u := range nb {
				if int(u) > v {
					ps.ActiveEdges++
				}
			}
			return true
		})

		marks := bitset.New(n)
		if deterministic {
			if err := detMarks(m, o, st.active, view, j, marks, &ps); err != nil {
				return err
			}
		} else {
			p := math.Ldexp(1, -j)
			st.active.ForEach(func(v int) bool {
				if rng.Float64() < p {
					marks.Add(v)
				}
				return true
			})
		}

		ps.Marked = marks.Count()
		marks.ForEach(func(v int) bool {
			for _, u := range view.Row(v) {
				if int(u) > v && marks.Contains(int(u)) {
					ps.CandidateEdges++
				}
			}
			return true
		})

		// Marked vertices join the candidate set and knock out their active
		// neighbors.
		st.candidates.Union(marks)
		touched, err := m.dominate(marks, view)
		if err != nil {
			return err
		}
		st.active.Subtract(marks)
		st.active.Subtract(touched)
		touched.Subtract(marks)
		st.departed = touched

		if ps.ActiveAfter, err = m.countActive(st.active); err != nil {
			return err
		}
		st.phases = append(st.phases, ps)
	}
	return nil
}

// absorbActive moves all still-active vertices into the candidate set (the
// loop's closing step: afterwards every vertex is in the candidate set or
// adjacent to it).
func (st *sparsifyState) absorbActive() {
	st.candidates.Union(st.active)
	st.active.Clear()
}

// nextLevel starts the next level of a multi-level run on the same
// cluster: the candidate set becomes the active set, the candidate set
// empties, and the new active set's view is built in one round named name,
// the candidates announcing themselves along the graph's rows (a one-shot
// RefreshWithin). Vertex ids never change, so the level hashes the same ids
// on the same DistGraph. The old view is dead storage for the next refresh
// unless it is the graph's rows.
func (st *sparsifyState) nextLevel(d *mpc.DistGraph, name string) error {
	st.active.Union(st.candidates) // absorbActive left active empty
	st.candidates.Clear()
	view, err := d.RefreshWithin(name, st.active, st.active, mpc.KeepHeard, mpc.GraphRows(d.Graph()), st.spare)
	if err != nil {
		return err
	}
	st.spare = mpc.Adjacency{}
	if len(st.phases) > 1 { // a single phase marked on the graph's rows
		st.spare = st.view
	}
	st.view = view
	st.first = len(st.phases)
	return nil
}

// deadView returns a view the loop no longer reads, for the residual gather
// to recycle: the spare view, else the last view once a refresh replaced
// the graph's rows (from the second phase on), else the zero Adjacency.
// The graph's rows are never offered: they are the graph itself.
func (st *sparsifyState) deadView() mpc.Adjacency {
	if st.spare.Off != nil {
		return st.spare
	}
	if len(st.phases) > 1 {
		return st.view
	}
	return mpc.Adjacency{}
}

// detMarks runs one derandomized sampling phase: it builds the
// pairwise-independent AND-family for probability 2^-j, selects its seed by
// the distributed method of conditional expectations against the
// sparsification potential
//
//	Φ(seed) = α·Σ_{active edges (u,w)} P[mark u ∧ mark w]
//	        − Σ_{active v, deg_A(v) ≥ 2^j} ( Σ_{u ∈ N'(v)} P[mark u]
//	                                        − Σ_{u<w ∈ N'(v)} P[mark u ∧ mark w] )
//
// (N'(v) = the first 2^j active neighbors of v; the inner Bonferroni
// difference lower-bounds P[some N'(v) vertex marked], i.e. v's
// deactivation), and fills marks with the realized marks. Minimizing Φ
// guarantees the fixed seed adds few candidate-internal edges while
// deactivating at least the expected share of high-degree vertices.
//
// The ablation knobs (Options.EstimatorAlpha, BenefitCap) vary the
// construction; their defaults are the paper's choices.
func detMarks(m model, o Options, active *bitset.Set, view mpc.Adjacency, j int, marks *bitset.Set, ps *PhaseStat) error {
	n := active.Len()
	fam, err := hash.NewBits(n, j)
	if err != nil {
		return err
	}
	seed := fam.NewSeed()
	ms := newMarkState(fam, n)
	capSize := 1 << uint(j)
	if o.BenefitCap > 0 && o.BenefitCap < capSize {
		capSize = o.BenefitCap
	}
	eval, u, err := sparsifyEstimator(ms, active, view, j, capSize, o.EstimatorAlpha)
	if err != nil {
		return err
	}
	if err := fixSeed(m, o, derand.Minimize, ms, seed, eval, u, ps); err != nil {
		return err
	}
	active.ForEach(func(v int) bool {
		if ms.marked(v, j) {
			marks.Add(v)
		}
		return true
	})
	return nil
}

// sparsifyEstimator returns detMarks' potential Φ as a ChunkEval on ms,
// scored in units of 2^−u, and u. highDeg = 2^j is the qualification
// threshold ⌊1/p⌋ for the benefit term; capSize truncates the Bonferroni
// neighborhood N'(v) (equal to highDeg in the paper's construction; smaller
// only under the A2 ablation). α must be a power of two, 2^k: the cost
// terms are then shifted by k, and one pass accumulates α·cost − benefit
// into the machine's spectrum, which the seed search's reduction sums
// across machines and transforms once.
//
// The pass sums the terms of the per-term reference (perTermSparsify, in
// the tests) without making them one by one. Every vertex has exponent j,
// so with f < j segments fixed, h = 2^−(j−f) and q = h², an alive vertex
// u adds h·(1 − s_u·χ_{m_u}) and an alive pair (u, w) adds q·(1 −
// s_u·χ_{m_u} − s_w·χ_{m_w} + s_u·s_w·χ_{m_u⊕m_w}) in a determined chunk;
// in an undetermined one only the constant and, when the keys match, the
// product term remain (chunkCodes has s, m and the key). So a pair's only
// term that needs both vertices is ±q at the XOR of their chunk slices,
// and the rest are per-vertex counts: A alive members of N'(v) add A·h −
// A(A−1)/2·q at w[0] and ((A−1)·q − h)·s_u at each member's m_u, and v's
// edge row adds its alive count times q at w[0] and times −s_v·q at m_v.
// Every regrouped value is an integer sum of the same terms, so the
// spectrum equals the per-term one, and each machine still sums exactly
// the terms of its own items.
func sparsifyEstimator(ms *markState, active *bitset.Set, view mpc.Adjacency, j, capSize int, alpha float64) (derand.ChunkEval, int, error) {
	k, err := alphaExp(alpha)
	if err != nil {
		return nil, 0, err
	}
	highDeg := 1 << uint(j)
	edges, benefit := 0, 0
	active.ForEach(func(v int) bool {
		nb := view.Row(v)
		for _, u := range nb {
			if int(u) > v {
				edges++
			}
		}
		if len(nb) >= highDeg {
			benefit += capSize * (capSize + 1) / 2
		}
		return true
	})
	if err := checkExact(j, k, edges+benefit, alpha*float64(edges)+float64(benefit)); err != nil {
		return nil, 0, err
	}
	// In units of 2^−u, with f segments fixed, q = 2^(2f+c) and h =
	// 2^(j+f+c) for c = u − 2j, and α·q is q shifted by k.
	u := units(j, k)
	c := u - 2*j
	return func(lo, hi int, s *hash.Seed, start, width int, out []int64) {
		// Up to 64 the codes of a benefit neighbourhood live on the stack,
		// so scoring a chunk allocates nothing per machine.
		var codeBuf [64]uint64
		codes := codeBuf[:]
		if capSize > len(codes) {
			codes = make([]uint64, capSize)
		}
		clear(out)

		// With every segment fixed (f = j), h = q = 2^u units (probability
		// 1) and the zero chunk state couples no pair, so every term lands
		// at w[0].
		f := min(ms.fixedSegs, j)
		cc := newChunkCodes(ms.fam, ms.chunk(s, start, width))
		fz, minAlive := ms.firstZero, int64(f)
		q, h := int64(1)<<(2*f+c), int64(1)<<(j+f+c)
		qc := int64(1) << (2*f + c + k)
		// Cost terms by parity | dead<<1, benefit pair terms by parity.
		// A dead vertex takes part with a zero term rather than a branch:
		// after the first segment about half of them are dead, at random.
		// The one branch per pair, on matching keys, is always taken in a
		// determined chunk and seldom in an undetermined one that ends
		// well before the constant coordinate.
		costPair := [4]int64{qc, -qc, 0, 0}
		costOne := [4]int64{-qc, qc, 0, 0}
		benefitPair := [2]int64{q, -q} // −benefit: out holds α·cost − benefit
		for v := lo; v < hi; v++ {
			if !active.Contains(v) {
				continue
			}
			nb := view.Row(v)
			if int64(fz[v]) >= minAlive {
				cv := cc.code(v)
				alive := 0
				// Rows are ascending: walk the upper neighbours from the end.
				for i := len(nb) - 1; i >= 0 && int(nb[i]) > v; i-- {
					u := nb[i]
					cu := cc.code(int(u))
					d := deadBit(fz[u], minAlive)
					alive += int(1 - d)
					if x := cv ^ cu; cc.coupled(x) {
						out[cc.slot(x)] += costPair[(x&1|d<<1)&3]
					}
					if cc.det {
						out[cc.slot(cu)] += costOne[(cu&1|d<<1)&3]
					}
				}
				out[0] += int64(alive) * qc
				if cc.det {
					out[cc.slot(cv)] += int64(alive) * costOne[cv&1]
				}
			}
			if len(nb) < highDeg {
				continue
			}
			a := 0
			for _, u := range nb[:capSize] {
				codes[a] = cc.code(int(u))
				a += int(1 - deadBit(fz[u], minAlive))
			}
			nn := codes[:a]
			out[0] += int64(a*(a-1)/2)*q - int64(a)*h
			if cc.det {
				one := h - int64(a-1)*q
				for _, cu := range nn {
					out[cc.slot(cu)] += signed(one, cu&1)
				}
			}
			for i, cu := range nn {
				for _, cw := range nn[i+1:] {
					if x := cu ^ cw; cc.coupled(x) {
						out[cc.slot(x)] += benefitPair[x&1]
					}
				}
			}
		}
	}, u, nil
}

// fixSeed fixes every free bit of seed by the conditional-expectation search
// on m's reduction, keeping ms synced chunk by chunk, and records the
// estimator trajectory, scored in units of 2^−u, in ps. On return ms is
// synced to the fully fixed seed.
func fixSeed(m model, o Options, obj derand.Objective, ms *markState, seed *hash.Seed, eval derand.ChunkEval, u int, ps *PhaseStat) error {
	trace, err := derand.SelectSeed(m, seed, derand.Config{
		ChunkBits: o.ChunkBits,
		Objective: obj,
		AlignTo:   ms.fam.SegWidth(),
		OnChunk:   func(s *hash.Seed, _, _ int) { ms.sync(s) },
	}, eval)
	if err != nil {
		return err
	}
	ms.sync(seed)
	ps.SeedSteps = trace.Steps
	// Exact: checkExact bounds every value to 53 significant bits.
	ps.EstimatorInitial = math.Ldexp(float64(trace.Initial), -u)
	ps.EstimatorFinal = math.Ldexp(float64(trace.Final()), -u)
	return nil
}
