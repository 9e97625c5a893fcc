package rulingset

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/hash"
)

// CliqueResult is the outcome of a congested-clique algorithm run.
type CliqueResult struct {
	// Members are the ruling-set vertices in ascending order.
	Members []int32
	// Beta is the guaranteed domination radius.
	Beta int
	// Stats are the congested-clique model measurements.
	Stats clique.Stats
	// Phases traces per-phase progress.
	Phases []PhaseStat
	// ResidualN and ResidualM describe the instance routed to node 0.
	ResidualN, ResidualM int
}

// CliqueRandRuling2 computes a 2-ruling set of g in the congested clique —
// the model in which the sample-and-sparsify algorithm was first developed
// (one node per vertex, one O(log n)-bit message per ordered pair per
// round). Θ(log log Δ) phases of O(1) rounds each, then a Lenzen-routed
// residual solve.
func CliqueRandRuling2(g *graph.Graph, o Options) (CliqueResult, error) {
	return cliqueRuling2(g, o, false)
}

// CliqueDetRuling2 is the deterministic congested-clique 2-ruling set. The
// conditional-expectation chunks that cost the MPC simulator a gather per
// 2^z payload words here cost O(1) rounds regardless of the chunk width (up
// to log₂ n): candidate extension e is summed at aggregator node e with
// every contribution on its own pair link (ScatterAggregate). This is the
// collective structure behind the paper's round bounds.
func CliqueDetRuling2(g *graph.Graph, o Options) (CliqueResult, error) {
	return cliqueRuling2(g, o, true)
}

func cliqueRuling2(g *graph.Graph, o Options, deterministic bool) (CliqueResult, error) {
	n := g.N()
	if n == 0 {
		return CliqueResult{Beta: 2}, nil
	}
	if n == 1 {
		// A single node is the whole clique; no communication exists.
		return CliqueResult{Members: []int32{0}, Beta: 2, ResidualN: 1}, nil
	}
	o = o.withDefaults(n)
	if err := o.durableUnsupported("CliqueRuling2"); err != nil {
		return CliqueResult{}, err
	}
	c, err := clique.NewCluster(clique.Config{Strict: o.Strict, Faults: o.Faults, Tracer: o.Tracer, Context: o.Context, Transport: o.Transport, Parallelism: o.Parallelism}, n)
	if err != nil {
		return CliqueResult{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Maximum degree, then the escalation schedule (two rounds).
	delta, err := c.MaxToZero("maxdeg", func(v int) uint64 { return uint64(g.Degree(v)) })
	if err != nil {
		return CliqueResult{}, err
	}
	if err := c.BroadcastWord("maxdeg/bcast", delta); err != nil {
		return CliqueResult{}, err
	}

	active := bitset.New(n)
	active.Fill()
	cand := bitset.New(n)
	var phases []PhaseStat

	c.Span("sparsify")
	for _, j := range schedule(int(delta)) {
		if active.Count() == 0 {
			break
		}
		view, err := cliqueActiveView(c, g, active)
		if err != nil {
			return CliqueResult{}, err
		}
		ps := PhaseStat{Phase: len(phases) + 1, J: j, ActiveBefore: active.Count()}
		highDeg := 1 << uint(j)
		active.ForEach(func(v int) bool {
			if len(view[v]) >= highDeg {
				ps.HighDegBefore++
			}
			for _, u := range view[v] {
				if int(u) > v {
					ps.ActiveEdges++
				}
			}
			return true
		})

		marks := bitset.New(n)
		if deterministic {
			if err := cliqueDetMarks(c, o, active, view, j, marks, &ps); err != nil {
				return CliqueResult{}, err
			}
		} else {
			p := math.Ldexp(1, -j)
			active.ForEach(func(v int) bool {
				if rng.Float64() < p {
					marks.Add(v)
				}
				return true
			})
		}
		ps.Marked = marks.Count()
		marks.ForEach(func(v int) bool {
			for _, u := range view[v] {
				if int(u) > v && marks.Contains(int(u)) {
					ps.CandidateEdges++
				}
			}
			return true
		})

		// Marked nodes join the candidate set and knock out their active
		// neighbors (one word per incident pair).
		cand.Union(marks)
		if err := c.Step("dominate", func(x *clique.Ctx) {
			if !marks.Contains(x.Machine) {
				return
			}
			for _, u := range g.Neighbors(x.Machine) {
				if active.Contains(int(u)) {
					x.Send(int(u), 1)
				}
			}
		}); err != nil {
			return CliqueResult{}, err
		}
		touched := bitset.New(n)
		for v := 0; v < n; v++ {
			if len(c.Drain(v)) > 0 {
				touched.Add(v)
			}
		}
		active.Subtract(marks)
		active.Subtract(touched)

		// Loop-control count at node 0 (one round).
		count, err := c.SumToZero("active", func(v int) uint64 {
			if active.Contains(v) {
				return 1
			}
			return 0
		})
		if err != nil {
			return CliqueResult{}, err
		}
		ps.ActiveAfter = int(count)
		phases = append(phases, ps)
	}

	// Residual stage: survivors join the candidates, candidates announce
	// themselves, the candidate-induced subgraph is Lenzen-routed to node 0,
	// solved greedily there, and members are notified individually.
	cand.Union(active)
	active.Clear()
	members, sub, err := cliqueSolveResidual(c, g, cand)
	if err != nil {
		return CliqueResult{}, err
	}
	return CliqueResult{
		Members:   members,
		Beta:      2,
		Stats:     c.Stats(),
		Phases:    phases,
		ResidualN: sub.N(),
		ResidualM: sub.M(),
	}, nil
}

// cliqueActiveView performs the one-round neighborhood exchange: active
// nodes announce themselves to neighbors; each active node collects the
// ascending list of its active neighbors.
func cliqueActiveView(c *clique.Cluster, g *graph.Graph, active *bitset.Set) ([][]int32, error) {
	n := g.N()
	if err := c.Step("view", func(x *clique.Ctx) {
		if !active.Contains(x.Machine) {
			return
		}
		for _, u := range g.Neighbors(x.Machine) {
			x.Send(int(u), 1)
		}
	}); err != nil {
		return nil, err
	}
	view := make([][]int32, n)
	for v := 0; v < n; v++ {
		msgs := c.Drain(v)
		if !active.Contains(v) {
			continue
		}
		for _, msg := range msgs {
			view[v] = append(view[v], int32(msg.Src))
		}
	}
	return view, nil
}

// cliqueDetMarks selects the phase's hash seed by conditional expectations
// using the clique's O(1)-round scatter-aggregate collective per chunk.
func cliqueDetMarks(c *clique.Cluster, o Options, active *bitset.Set, view [][]int32, j int, marks *bitset.Set, ps *PhaseStat) error {
	n := active.Len()
	fam, err := hash.NewBits(n, j)
	if err != nil {
		return err
	}
	seed := fam.NewSeed()
	ms := newMarkState(fam, n)
	highDeg := 1 << uint(j)
	capSize := highDeg
	if o.BenefitCap > 0 && o.BenefitCap < capSize {
		capSize = o.BenefitCap
	}
	alpha := o.EstimatorAlpha

	// Chunk width: up to the family's segment width, clamped so that 2^z
	// aggregator nodes exist.
	z := o.ChunkBits
	if maxZ := bits.Len(uint(n)) - 1; z > maxZ {
		z = maxZ
	}
	if z < 1 {
		z = 1
	}

	nodeTerm := func(v int, s *hash.Seed) float64 {
		if !active.Contains(v) {
			return 0
		}
		ec := ms.ctx(s)
		nb := view[v]
		var cost, benefit float64
		if int(ms.firstZero[v]) >= minInt(ms.fixedSegs, j) {
			for _, u := range nb {
				if int(u) > v {
					cost += ec.pairProb(v, int(u), j, j)
				}
			}
		}
		if len(nb) >= highDeg {
			nn := nb[:capSize]
			for i, u := range nn {
				pu := ec.markProb(int(u), j)
				if pu == 0 {
					continue
				}
				benefit += pu
				for _, w := range nn[i+1:] {
					benefit -= ec.pairProb(int(u), int(w), j, j)
				}
			}
		}
		return alpha*cost - benefit
	}

	ps.EstimatorInitial = 0
	for v := 0; v < n; v++ {
		ps.EstimatorInitial += nodeTerm(v, seed)
	}
	caller := c.CurrentSpan()
	c.Span("seed-search")
	defer c.Span(caller)
	segW := fam.SegWidth()
	for seed.Fixed() < seed.Total() {
		start := seed.Fixed()
		width := z
		if b := segW - start%segW; width > b {
			width = b
		}
		if rem := seed.Total() - start; width > rem {
			width = rem
		}
		nExt := 1 << uint(width)
		ms.sync(seed)
		sums, err := c.ScatterAggregateFloat("chunk", nExt, func(v, e int) float64 {
			local := seed.Clone()
			local.SetChunk(start, width, uint64(e))
			local.SetFixed(start + width)
			return nodeTerm(v, local)
		})
		if err != nil {
			return err
		}
		best := 0
		for e := 1; e < nExt; e++ {
			if sums[e] < sums[best] {
				best = e
			}
		}
		if err := c.BroadcastWord("chunk/pick", uint64(best)); err != nil {
			return err
		}
		seed.SetChunk(start, width, uint64(best))
		seed.Commit(width)
		ps.SeedSteps++
		ps.EstimatorFinal = sums[best]
	}
	ms.sync(seed)
	active.ForEach(func(v int) bool {
		if ms.marked(v, j) {
			marks.Add(v)
		}
		return true
	})
	return nil
}

// cliqueSolveResidual announces candidate membership, Lenzen-routes the
// candidate-induced subgraph to node 0, solves it greedily there, and
// notifies the members.
func cliqueSolveResidual(c *clique.Cluster, g *graph.Graph, cand *bitset.Set) ([]int32, *graph.Graph, error) {
	n := g.N()
	c.Span("gather")
	// Announce: candidates tell their neighbors (one word per pair).
	if err := c.Step("residual/announce", func(x *clique.Ctx) {
		if !cand.Contains(x.Machine) {
			return
		}
		for _, u := range g.Neighbors(x.Machine) {
			x.Send(int(u), 1)
		}
	}); err != nil {
		return nil, nil, err
	}
	candNbrs := make([][]int32, n)
	for v := 0; v < n; v++ {
		msgs := c.Drain(v)
		if !cand.Contains(v) {
			continue
		}
		for _, msg := range msgs {
			candNbrs[v] = append(candNbrs[v], int32(msg.Src))
		}
	}
	// Route: each candidate ships its candidate-incident edges (smaller
	// endpoint owns) to node 0 under Lenzen's per-node budgets.
	if err := c.RouteStep("residual/route", func(x *clique.Ctx) {
		if !cand.Contains(x.Machine) {
			return
		}
		for _, u := range candNbrs[x.Machine] {
			if int(u) > x.Machine {
				x.Send(0, uint64(uint32(x.Machine))<<32|uint64(uint32(u)))
			}
		}
	}); err != nil {
		return nil, nil, err
	}
	toSub := make([]int32, n)
	for i := range toSub {
		toSub[i] = -1
	}
	var toOrig []int32
	cand.ForEach(func(v int) bool {
		toSub[v] = int32(len(toOrig))
		toOrig = append(toOrig, int32(v))
		return true
	})
	var edges []graph.Edge
	for _, msg := range c.Drain(0) {
		for _, w := range msg.Payload {
			u := int32(w >> 32)
			v := int32(uint32(w))
			edges = append(edges, graph.Edge{U: toSub[u], V: toSub[v]})
		}
	}
	sub, err := graph.New(len(toOrig), edges)
	if err != nil {
		return nil, nil, err
	}
	mis := GreedyMIS(sub)
	members := make([]int32, len(mis))
	inMIS := bitset.New(n)
	for i, v := range mis {
		members[i] = toOrig[v]
		inMIS.Add(int(toOrig[v]))
	}
	// Notify members individually (one word per pair from node 0).
	c.Span("finish")
	if err := c.Step("residual/notify", func(x *clique.Ctx) {
		if x.Machine != 0 {
			return
		}
		inMIS.ForEach(func(v int) bool {
			if v != 0 {
				x.Send(v, 1)
			}
			return true
		})
	}); err != nil {
		return nil, nil, err
	}
	for v := 0; v < n; v++ {
		c.Drain(v)
	}
	slices.Sort(members)
	return members, sub, nil
}
