package rulingset

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/derand"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
)

// CliqueRandRuling2 computes a 2-ruling set of g in the congested clique —
// the model in which the sample-and-sparsify algorithm was first developed
// (one node per vertex, one O(log n)-bit message per ordered pair per
// round). Θ(log log Δ) phases of O(1) rounds each, then a Lenzen-routed
// residual solve.
func CliqueRandRuling2(g *graph.Graph, o Options) (Result, error) {
	return cliqueRuling2(g, o, false)
}

// CliqueDetRuling2 is the deterministic congested-clique 2-ruling set. The
// conditional-expectation chunks that cost the MPC simulator a gather per
// 2^z payload words here cost O(1) rounds regardless of the chunk width (up
// to log₂ n): candidate extension e is summed at aggregator node e with
// every nonzero contribution on its own pair link (ScatterAggregate).
// This is the collective structure behind the paper's round bounds.
func CliqueDetRuling2(g *graph.Graph, o Options) (Result, error) {
	return cliqueRuling2(g, o, true)
}

func cliqueRuling2(g *graph.Graph, o Options, deterministic bool) (Result, error) {
	n := g.N()
	o, err := o.withDefaults(n)
	if err != nil {
		return Result{}, err
	}
	if n == 0 {
		return Result{Beta: 2}, nil
	}
	if n == 1 {
		// A single node is the whole clique; no communication exists.
		return Result{Members: []int32{0}, Beta: 2, ResidualN: 1}, nil
	}
	if o.CheckpointSink != nil || o.Resume != nil {
		return Result{}, errors.New("rulingset: CliqueRuling2 does not support durable checkpointing/resume")
	}
	if o.Transport != nil {
		return Result{}, fmt.Errorf("rulingset: CliqueRuling2: %w", errCliqueTransport)
	}
	c, err := clique.NewCluster(clique.Config{Strict: o.Strict, Faults: o.Faults, Tracer: o.Tracer, Context: o.Context, Parallelism: o.Parallelism}, n)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(o.Seed))

	// Maximum degree, then the escalation schedule (two rounds).
	delta, err := c.MaxToZero("maxdeg", func(v int) uint64 { return uint64(g.Degree(v)) })
	if err != nil {
		return Result{}, err
	}
	if err := c.BroadcastWord("maxdeg/bcast", delta); err != nil {
		return Result{}, err
	}
	st := newSparsifyState(g)
	m := cliqueModel{Reduction: derand.Clique(c), c: c, g: g}
	if err := runPhases(m, o, st, schedule(int(delta)), deterministic, rng); err != nil {
		return Result{}, err
	}
	st.absorbActive()
	members, sub, err := solveResidual(m, st.candidates, st.deadView())
	if err != nil {
		return Result{}, err
	}
	return Result{
		Members:   members,
		Beta:      2,
		Stats:     c.Stats(),
		Phases:    st.phases,
		ResidualN: sub.N(),
		ResidualM: sub.M(),
	}, nil
}

// errCliqueTransport rejects Options.Transport for the clique drivers: the
// multi-process backend runs only the MPC algorithms.
var errCliqueTransport = errors.New("the congested clique has no multi-process transport")

// cliqueModel is the congested clique behind the model seam, one node per
// vertex: plain steps send at most one word per pair, and the residual
// instance reaches node 0 by Lenzen routing.
type cliqueModel struct {
	derand.Reduction
	c *clique.Cluster
	g *graph.Graph
}

// view has every active node announce itself along its row of last, one
// word per pair. Deduplicating per machine saves nothing when a node is
// its own machine, and only node 0 learns the active count, so the clique
// ignores departed and the counts.
func (m cliqueModel) view(active, _ *bitset.Set, _, _ int, last, reuse mpc.Adjacency) (mpc.Adjacency, error) {
	return m.neighborsIn("view", active, last, reuse)
}

// dominate has every marked node send one word to each neighbor in its view
// row.
func (m cliqueModel) dominate(marks *bitset.Set, view mpc.Adjacency) (*bitset.Set, error) {
	if err := m.c.Step("dominate", func(x clique.Ctx) {
		if !marks.Contains(x.Machine) {
			return
		}
		for _, u := range view.Row(x.Machine) {
			x.Send(int(u), 1)
		}
	}); err != nil {
		return nil, err
	}
	touched := bitset.New(m.g.N())
	for v := 0; v < m.g.N(); v++ {
		if len(m.c.Drain(v)) > 0 {
			touched.Add(v)
		}
	}
	return touched, nil
}

// countActive sums one word per node at node 0 (one round).
func (m cliqueModel) countActive(active *bitset.Set) (int, error) {
	count, err := m.c.SumToZero("active", func(v int) uint64 {
		if active.Contains(v) {
			return 1
		}
		return 0
	})
	return int(count), err
}

// neighborsIn is a one-round neighborhood exchange along rows (the graph's,
// or the view of a superset of set): the nodes in set announce themselves
// to the nodes in their rows (one word per pair), and each node in set
// collects the ascending list of its neighbors in set. Nodes drain in
// ascending order, so the rows are laid out in one pass, into reuse's
// storage when it is large enough (as mpc.RefreshWithin does).
func (m cliqueModel) neighborsIn(name string, set *bitset.Set, rows, reuse mpc.Adjacency) (mpc.Adjacency, error) {
	if err := mpc.CheckReuse(reuse, rows, m.g); err != nil {
		return mpc.Adjacency{}, fmt.Errorf("rulingset: %s: %w", name, err)
	}
	if err := m.c.Step(name, func(x clique.Ctx) {
		if !set.Contains(x.Machine) {
			return
		}
		for _, u := range rows.Row(x.Machine) {
			x.Send(int(u), 1)
		}
	}); err != nil {
		return mpc.Adjacency{}, err
	}
	n := m.g.N()
	total := 0 // bounds the rows: a node hears at most from its row
	set.ForEach(func(v int) bool {
		total += len(rows.Row(v))
		return true
	})
	nbrs := mpc.Adjacency{Off: slices.Grow(reuse.Off[:0], n+1)[:n+1], Nbr: slices.Grow(reuse.Nbr[:0], total)}
	nbrs.Off[0] = 0
	for v := 0; v < n; v++ {
		msgs := m.c.Drain(v)
		if set.Contains(v) {
			for _, msg := range msgs {
				nbrs.Nbr = append(nbrs.Nbr, int32(msg.Src))
			}
		}
		nbrs.Off[v+1] = int32(len(nbrs.Nbr))
	}
	return nbrs, nil
}

// gatherResidual has the candidates announce themselves to their
// neighbors, then Lenzen-routes the candidate-induced subgraph to node 0:
// each candidate ships its candidate-incident edges (smaller endpoint owns)
// under Lenzen's per-node budgets. It ignores the dead view it is offered.
func (m cliqueModel) gatherResidual(cand *bitset.Set, _ mpc.Adjacency) (*graph.Graph, []int32, error) {
	candNbrs, err := m.neighborsIn("residual/announce", cand, mpc.GraphRows(m.g), mpc.Adjacency{})
	if err != nil {
		return nil, nil, err
	}
	if err := m.c.RouteStep("residual/route", func(x clique.Ctx) {
		for _, u := range candNbrs.Row(x.Machine) {
			if int(u) > x.Machine {
				x.Send(0, uint64(uint32(x.Machine))<<32|uint64(uint32(u)))
			}
		}
	}); err != nil {
		return nil, nil, err
	}
	toSub := make([]int32, m.g.N())
	var toOrig []int32
	cand.ForEach(func(v int) bool {
		toSub[v] = int32(len(toOrig))
		toOrig = append(toOrig, int32(v))
		return true
	})
	var edges []graph.Edge
	for _, msg := range m.c.Drain(0) {
		for _, w := range msg.Payload {
			edges = append(edges, graph.Edge{U: toSub[w>>32], V: toSub[uint32(w)]})
		}
	}
	sub, err := graph.New(len(toOrig), edges)
	return sub, toOrig, err
}

// announceMembers notifies the members individually (one word per pair
// from node 0).
func (m cliqueModel) announceMembers(members []int32) error {
	if err := m.c.StepFirst("residual/notify", 1, func(x clique.Ctx) {
		for _, v := range members {
			if v != 0 {
				x.Send(int(v), 1)
			}
		}
	}); err != nil {
		return err
	}
	for v := 0; v < m.g.N(); v++ {
		m.c.Drain(v)
	}
	return nil
}
