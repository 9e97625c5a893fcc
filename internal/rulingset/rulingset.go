// Package rulingset implements the paper's primary contribution:
// deterministic massively parallel (MPC) algorithms for ruling sets,
// alongside the randomized algorithms they derandomize and the classical
// baselines they are measured against.
//
// A β-ruling set of G is an independent set R such that every vertex of G is
// within β hops of R; an MIS is exactly a 1-ruling set. The algorithms:
//
//   - GreedyMIS: sequential maximal independent set (local residual solver
//     and quality oracle).
//   - LubyMIS / DetLubyMIS: Luby's randomized MIS in MPC, and its
//     derandomization via pairwise-independent marks chosen by the method of
//     conditional expectations. Θ(log n) phases — the baseline whose phase
//     count the 2-ruling relaxation beats exponentially.
//   - RandRuling2 / DetRuling2: the sample-and-sparsify 2-ruling set
//     (geometrically growing sampling probabilities, O(log log Δ) phases,
//     residual instance solved on one machine) and the paper's deterministic
//     counterpart, which replaces each random sampling step by a
//     pairwise-independent hash whose seed is fixed deterministically.
//   - RandRulingBeta / DetRulingBeta: β-ruling sets by recursive
//     sparsification — each extra unit of domination radius shrinks the
//     problem before the next level runs, on the same cluster.
//
// All algorithms execute on the internal/mpc simulator, so every result
// carries the model measurements (rounds, bandwidth, memory residency) that
// the paper's theorems are about. Algorithms names the drivers: it is the one
// table the CLI, the multi-process backend and the bench registry dispatch
// through.
package rulingset

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// Options configures an algorithm run. The zero value selects sensible
// defaults (8 machines, near-linear memory, chunk width 8).
type Options struct {
	// Machines is the simulated machine count M; default 8.
	Machines int
	// Regime is the MPC memory regime; default mpc.RegimeLinear.
	Regime mpc.Regime
	// Epsilon is the sublinear-memory exponent for mpc.RegimeSublinear.
	Epsilon float64
	// MemoryWords is the explicit budget for mpc.RegimeExplicit.
	MemoryWords int
	// LinearSlack scales the linear-regime budget; see mpc.Config.
	LinearSlack int
	// Strict aborts on budget violations instead of recording them.
	Strict bool
	// ChunkBits is the derandomizer's z: seed bits fixed per collective step.
	// Default 8. The model clamps it: to ⌊log₂(S/M)⌋ in MPC, so a chunk's
	// M·2^z words fit one machine, and to ⌊log₂ n⌋ on the clique.
	ChunkBits int
	// Seed drives the randomized algorithms (and is ignored by the
	// deterministic ones). Runs with equal seeds are reproducible.
	Seed int64
	// MaxPhases caps sparsification phases as a safety net; default 64.
	MaxPhases int
	// MaxIterations caps Luby iterations; default 16·log₂(n)+32.
	MaxIterations int

	// The next two fields are ablation knobs for the sparsification
	// potential (experiments A2 and A3); the zero values select the paper's
	// construction.

	// EstimatorAlpha weighs the candidate-edge cost term of the
	// sparsification potential Φ = α·cost − benefit; default 2. It must be
	// a power of two: every driver returns an error for any other value,
	// before any round runs.
	EstimatorAlpha float64
	// BenefitCap, when positive, caps the Bonferroni neighborhood N'(v) at
	// this size instead of the analysis-dictated ⌊1/p⌋.
	BenefitCap int
	// ResidualBudget is the adaptive algorithms' target size (in words) for
	// the instance shipped to one machine; 0 means the cluster's budget S.
	ResidualBudget int

	// Faults, when non-nil and enabled, injects the deterministic fault
	// schedule (crashes, drops, duplicates, stalls) into the simulated
	// cluster; see mpc.FaultPlan. Every fault is recovered, so the returned
	// members are bit-identical to the fault-free run's, with the recovery
	// cost metered in the fault fields of Result.Stats.
	Faults *mpc.FaultPlan
	// CheckpointEvery snapshots driver state every k supersteps for crash
	// recovery; 0 recovers from the barrier-committed state instead. See
	// mpc.Config.CheckpointEvery.
	CheckpointEvery int

	// Tracer, when non-nil, receives one trace.Event per committed superstep
	// of the simulated cluster, annotated with the algorithm's phase spans
	// (sparsify / seed-search / gather / finish). Deterministic; free when
	// nil. See the internal/trace package for the built-in sinks.
	Tracer trace.Tracer

	// Context, when non-nil, is checked at every superstep barrier: once it
	// is done, the run stops with a *mpc.CancelError (wrapping
	// mpc.ErrCanceled or mpc.ErrDeadline) carrying the committed round and
	// Stats. See mpc.Config.Context.
	Context context.Context
	// CheckpointSink, when non-nil (with CheckpointEvery > 0), persists
	// every driver checkpoint durably; see mpc.Config.Sink. Every MPC driver
	// runs on one cluster, so its rounds are one replayable log; the
	// congested-clique drivers reject a sink.
	CheckpointSink mpc.CheckpointSink
	// Resume, when non-nil, resumes from a durable checkpoint (MPC drivers
	// only, as for CheckpointSink); see mpc.Config.Resume.
	Resume *mpc.ResumeState
	// Transport, when non-nil, checks every committed superstep's message
	// exchange (see mpc.Transport); nil is the in-memory router. The
	// congested-clique drivers reject a non-nil Transport.
	Transport mpc.Transport
	// Parallelism bounds the worker pool that executes machine (or clique
	// node) step closures within one superstep: 0 means GOMAXPROCS, 1 forces
	// the serial reference path. Results, Stats, traces and checkpoint bytes
	// are bit-identical at every level (see mpc.Config.Parallelism), which is
	// why it is not part of any run fingerprint: checkpoints and traces are
	// portable across parallelism levels.
	Parallelism int
}

// withDefaults fills in the defaults for a graph of order n and rejects
// an EstimatorAlpha that is not a power of two.
func (o Options) withDefaults(n int) (Options, error) {
	if o.Machines == 0 {
		o.Machines = 8
	}
	if o.Regime == 0 {
		o.Regime = mpc.RegimeLinear
	}
	if o.ChunkBits == 0 {
		o.ChunkBits = 8
	}
	if o.MaxPhases == 0 {
		o.MaxPhases = 64
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 16*bits.Len(uint(n)) + 32
	}
	if o.EstimatorAlpha == 0 {
		o.EstimatorAlpha = 2
	}
	if _, err := alphaExp(o.EstimatorAlpha); err != nil {
		return o, err
	}
	return o, nil
}

// alphaExp returns k for an estimator weight α = 2^k, and an error naming
// α when it is not a power of two.
func alphaExp(alpha float64) (int, error) {
	frac, exp := math.Frexp(alpha)
	if frac != 0.5 {
		return 0, fmt.Errorf("rulingset: estimator α = %v is not a power of two", alpha)
	}
	return exp - 1, nil
}

// cluster builds the simulated cluster for a graph of order n.
func (o Options) cluster(n int) (*mpc.Cluster, error) {
	return mpc.NewCluster(mpc.Config{
		Machines:        o.Machines,
		Regime:          o.Regime,
		Epsilon:         o.Epsilon,
		MemoryWords:     o.MemoryWords,
		LinearSlack:     o.LinearSlack,
		Strict:          o.Strict,
		Faults:          o.Faults,
		CheckpointEvery: o.CheckpointEvery,
		Tracer:          o.Tracer,
		Context:         o.Context,
		Sink:            o.CheckpointSink,
		Resume:          o.Resume,
		Transport:       o.Transport,
		Parallelism:     o.Parallelism,
	}, n)
}

// PhaseStat records one sparsification phase (or Luby iteration) for the
// trace experiments: what probability was used, how the active set and the
// candidate set evolved, and what the derandomizer did.
type PhaseStat struct {
	// Phase is the 1-based phase index.
	Phase int
	// J is the sampling exponent: marking probability 2^-J.
	J int
	// ActiveBefore and ActiveAfter count active vertices around the phase.
	ActiveBefore, ActiveAfter int
	// ActiveEdges counts edges of the active subgraph before the phase.
	ActiveEdges int
	// HighDegBefore counts active vertices with active degree >= 2^J before
	// the phase (the vertices the phase is meant to deactivate).
	HighDegBefore int
	// Marked counts vertices sampled/marked this phase.
	Marked int
	// CandidateEdges counts edges added to the candidate graph this phase
	// (edges with both endpoints marked).
	CandidateEdges int
	// SeedSteps is the number of conditional-expectation chunks fixed
	// (deterministic algorithms only).
	SeedSteps int
	// EstimatorInitial and EstimatorFinal bracket the derandomizer's
	// conditional-expectation trajectory (deterministic algorithms only).
	EstimatorInitial, EstimatorFinal float64
}

// Result is the outcome of an algorithm run.
type Result struct {
	// Members are the ruling-set vertices in ascending order.
	Members []int32
	// Beta is the guaranteed domination radius of the output (1 for MIS).
	Beta int
	// Stats are the model measurements of the run, taken by the one
	// superstep engine: on the MPC cluster, or on the congested clique's
	// one machine per vertex.
	Stats mpc.Stats
	// Phases traces per-phase progress where the algorithm is phase-based.
	Phases []PhaseStat
	// ResidualN and ResidualM describe the instance shipped to one machine
	// for the final local solve (sample-and-sparsify algorithms only).
	ResidualN, ResidualM int
}

func distribute(g *graph.Graph, o Options) (*mpc.DistGraph, Options, error) {
	o, err := o.withDefaults(g.N())
	if err != nil {
		return nil, o, err
	}
	c, err := o.cluster(g.N())
	if err != nil {
		return nil, o, err
	}
	d, err := mpc.Distribute(c, g)
	if err != nil {
		return nil, o, err
	}
	return d, o, nil
}
