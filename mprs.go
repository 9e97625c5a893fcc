// Package mprs is the public API of the library: deterministic massively
// parallel (MPC) algorithms for ruling sets — a from-scratch reproduction of
// "Brief Announcement: Deterministic Massively Parallel Algorithms for
// Ruling Sets" (Pai & Pemmaraju, PODC 2022) — together with the randomized
// algorithms they derandomize, the MPC simulation substrate they run on, and
// graph generators for experimentation.
//
// # Quick start
//
//	g, err := mprs.BuildGraph("gnp:n=4096,p=0.004", 1)
//	if err != nil { ... }
//	res, err := mprs.DetRulingSet2(g, mprs.Options{Machines: 8})
//	if err != nil { ... }
//	fmt.Println(len(res.Members), res.Stats.Rounds)
//	err = mprs.Check(g, res) // independence + domination radius
//
// A β-ruling set is an independent set R such that every vertex is within β
// hops of R; an MIS is a 1-ruling set. The deterministic algorithms replace
// each random sampling step with a pairwise-independent hash family whose
// seed is selected by a distributed method of conditional expectations, so
// they always produce the same output for the same input — while matching
// the randomized algorithms' round complexity shape (Θ(log log Δ)
// sparsification phases for 2-ruling sets versus Θ(log n) Luby iterations
// for MIS).
//
// Every Result, in either model, carries the measurements (rounds, message
// words, peak per-machine memory, budget violations) taken by the one
// superstep engine in internal/mpc, so the quantities the paper's theorems
// bound are observable for every run.
package mprs

import (
	"io"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/trace"
)

// Graph is a simple undirected graph in CSR form; see NewGraph and
// BuildGraph for construction.
type Graph = graph.Graph

// Edge is an undirected edge between two vertex ids.
type Edge = graph.Edge

// Options configures algorithm runs: simulated machine count, MPC memory
// regime, derandomization chunk width, and the seed for randomized variants.
type Options = rulingset.Options

// Result is an algorithm outcome: the ruling set, its guaranteed domination
// radius, per-phase traces, and the model measurements of the run — MPC or
// congested clique.
type Result = rulingset.Result

// PhaseStat traces one sparsification phase or Luby iteration.
type PhaseStat = rulingset.PhaseStat

// Stats aggregates the model measurements of a run (rounds, words, peaks,
// violations), in both models.
type Stats = mpc.Stats

// Regime selects how the per-machine memory budget is derived.
type Regime = mpc.Regime

// FaultPlan is a seeded deterministic schedule of machine crashes for
// Options.Faults. Every injected crash is recovered at the superstep
// barrier, so algorithm outputs stay bit-identical to the fault-free run
// while the recovery cost is metered in the fault fields of Stats.
type FaultPlan = mpc.FaultPlan

// FaultEvent pins one explicit crash to a (round, machine) pair in a
// FaultPlan.
type FaultEvent = mpc.FaultEvent

// MachineError is a panic recovered from one machine's step function; runs
// surface it as a structured error instead of crashing the process.
type MachineError = mpc.MachineError

// Tracer receives one TraceEvent per committed superstep when set on
// Options.Tracer. Tracing is bit-deterministic (identical runs produce
// identical event streams) and costs nothing when no tracer is registered.
type Tracer = trace.Tracer

// TraceEvent is one superstep observation: round index, phase span,
// per-machine words sent/received, resident memory, skew metrics, and any
// recovery activity charged to the superstep. It is a run's one per-round
// record: `traceview` reduces a trace's events to the per-span table.
type TraceEvent = trace.Event

// JSONLTracer streams events as JSON Lines; see NewJSONLTrace.
type JSONLTracer = trace.JSONL

// TraceRing is a bounded in-memory sink retaining the most recent events;
// see NewTraceRing.
type TraceRing = trace.Ring

// NewJSONLTrace returns a Tracer streaming one JSON object per superstep to
// w. Close flushes and surfaces any write error.
func NewJSONLTrace(w io.Writer) *JSONLTracer { return trace.NewJSONL(w) }

// NewTraceRing returns an in-memory Tracer retaining the last n events.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// ParseFaultPlan builds a FaultPlan from the machine: parts of a fault spec
// such as "machine:crash=0.02,machine:crash@3:1" (the
// -chaos grammar); any other layer is rejected, and an empty spec returns a
// disabled (nil) plan.
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	return chaos.ParseMachine(spec, seed)
}

// Cooperative cancellation. Setting Options.Context makes a run check the
// context at every superstep barrier: once it is canceled or its deadline
// passes, the run stops cleanly (no goroutine leaks, no partial writes) and
// returns a CancelError wrapping the matching sentinel.
var (
	// ErrCanceled is wrapped by runs stopped through Options.Context
	// cancellation.
	ErrCanceled = mpc.ErrCanceled
	// ErrDeadline is wrapped by runs stopped by an Options.Context deadline.
	ErrDeadline = mpc.ErrDeadline
)

// CancelError is the structured error for a canceled or deadline-exceeded
// run: it carries the number of committed supersteps and the Stats up to the
// stopping barrier, and unwraps to both the sentinel (ErrCanceled or
// ErrDeadline) and the context's cause.
type CancelError = mpc.CancelError

// CheckpointSink receives the driver state at checkpoint barriers when set
// as Options.CheckpointSink (with Options.CheckpointEvery > 0). Persist
// returns the bytes durably written, accumulated into Stats.CheckpointBytes.
// DurableCheckpointer is the production implementation.
type CheckpointSink = mpc.CheckpointSink

// ResumeState restarts a run from a durable checkpoint when set as
// Options.Resume: the run deterministically replays to Round, verifies the
// replayed state word-for-word against State, and continues from there —
// producing output and deterministic Stats bit-identical to an uninterrupted
// run. Every MPC algorithm supports durable checkpointing and resume, the
// β and adaptive ones included; the congested-clique ones do not.
type ResumeState = mpc.ResumeState

// DurableCheckpointer is a CheckpointSink writing schema-versioned,
// CRC-guarded checkpoint files with atomic renames and bounded retention;
// see OpenCheckpointDir.
type DurableCheckpointer = durable.Store

// CheckpointMeta is the self-description record of one durable checkpoint
// file, returned by DurableCheckpointer.LoadLatest.
type CheckpointMeta = durable.Meta

// OpenCheckpointDir opens (creating if needed) a durable checkpoint
// directory bound to a canonical run-configuration fingerprint. Use the
// returned store as Options.CheckpointSink; after a crash, LoadLatest yields
// the newest valid checkpoint (scanning past torn or corrupt files) to build
// the ResumeState for the restarted run. retain bounds the files kept on
// disk (0 = default 3). Opening a directory whose checkpoints carry a
// different fingerprint fails rather than mixing incompatible runs.
func OpenCheckpointDir(dir, fingerprint string, retain int) (*DurableCheckpointer, error) {
	return durable.Open(dir, fingerprint, retain)
}

// Memory regimes for Options.Regime.
const (
	// RegimeLinear is near-linear memory per machine (S = Θ(n)); the regime
	// of the paper's headline result. Default.
	RegimeLinear = mpc.RegimeLinear
	// RegimeSublinear is strictly sublinear memory (S = n^ε).
	RegimeSublinear = mpc.RegimeSublinear
	// RegimeExplicit uses Options.MemoryWords verbatim.
	RegimeExplicit = mpc.RegimeExplicit
)

// NewGraph builds a graph on n vertices from an edge list, rejecting
// self-loops and merging duplicate edges.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.New(n, edges)
}

// BuildGraph instantiates a workload from a textual spec such as
// "gnp:n=4096,p=0.004", "powerlaw:n=10000,gamma=2.5,avg=8",
// "grid:rows=64,cols=64,wrap=true", "regular:n=1000,d=8", "tree:n=5000",
// "star:n=100", "complete:n=50", etc. Randomized families consume the seed.
func BuildGraph(spec string, seed int64) (*Graph, error) {
	s, err := gen.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build(seed)
}

// MIS computes a maximal independent set with Luby's randomized algorithm on
// the MPC simulator (Θ(log n) iterations).
func MIS(g *Graph, o Options) (Result, error) { return rulingset.LubyMIS(g, o) }

// DetMIS computes a maximal independent set with derandomized Luby
// (pairwise-independent marks, seeds fixed by conditional expectations).
func DetMIS(g *Graph, o Options) (Result, error) { return rulingset.DetLubyMIS(g, o) }

// RulingSet2 computes a 2-ruling set with the randomized sample-and-sparsify
// algorithm (Θ(log log Δ) phases).
func RulingSet2(g *Graph, o Options) (Result, error) { return rulingset.RandRuling2(g, o) }

// DetRulingSet2 computes a 2-ruling set with the paper's deterministic
// algorithm — the library's headline entry point.
func DetRulingSet2(g *Graph, o Options) (Result, error) { return rulingset.DetRuling2(g, o) }

// RulingSet computes a β-ruling set (β >= 1) with randomized recursive
// sparsification.
func RulingSet(g *Graph, beta int, o Options) (Result, error) {
	return rulingset.RandRulingBeta(g, beta, o)
}

// DetRulingSet computes a β-ruling set (β >= 1) deterministically by
// recursive derandomized sparsification.
func DetRulingSet(g *Graph, beta int, o Options) (Result, error) {
	return rulingset.DetRulingBeta(g, beta, o)
}

// RulingSetAdaptive computes a ruling set whose radius is chosen at runtime:
// the smallest β such that the final residual instance fits the per-machine
// memory budget (Options.ResidualBudget; the cluster's S by default).
// Randomized variant.
func RulingSetAdaptive(g *Graph, o Options) (Result, error) {
	return rulingset.RandRulingAdaptive(g, o)
}

// DetRulingSetAdaptive is the deterministic adaptive-radius ruling set: it
// answers "what domination radius do my machines force?" — β = 1 (an exact
// MIS) when the budget admits the whole input, growing one sparsification
// level at a time as the budget shrinks.
func DetRulingSetAdaptive(g *Graph, o Options) (Result, error) {
	return rulingset.DetRulingAdaptive(g, o)
}

// CliqueRulingSet2 computes a 2-ruling set in the congested clique model
// (one node per vertex, one O(log n)-bit message per ordered node pair per
// round) — the model this algorithm family was first developed in. The
// clique runs on the same superstep engine as the MPC algorithms, so the
// Result and its Stats are theirs: Stats counts one machine per node, its
// Violations are the clique's "pair", "received" and "routed" breaches, and
// a canceled run returns a *CancelError.
func CliqueRulingSet2(g *Graph, o Options) (Result, error) {
	return rulingset.CliqueRandRuling2(g, o)
}

// CliqueDetRulingSet2 is the deterministic congested-clique 2-ruling set;
// its conditional-expectation chunks cost O(1) rounds regardless of width
// via the clique's scatter-aggregate collective. Its Result is as
// CliqueRulingSet2's.
func CliqueDetRulingSet2(g *Graph, o Options) (Result, error) {
	return rulingset.CliqueDetRuling2(g, o)
}

// GreedyMIS computes a sequential greedy MIS — the single-machine baseline
// and quality oracle.
func GreedyMIS(g *Graph) []int32 { return rulingset.GreedyMIS(g) }

// IsRulingSet reports whether members form a β-ruling set of g.
func IsRulingSet(g *Graph, members []int32, beta int) bool {
	return rulingset.IsRulingSet(g, members, beta)
}

// IsIndependent reports whether members form an independent set in g.
func IsIndependent(g *Graph, members []int32) bool {
	return rulingset.IsIndependent(g, members)
}

// RulingRadius returns the smallest β such that members β-dominate g, or -1
// if they do not dominate it at all.
func RulingRadius(g *Graph, members []int32) int {
	return rulingset.RulingRadius(g, members)
}

// Check validates a Result against its graph: independence and the
// advertised domination radius.
func Check(g *Graph, r Result) error { return rulingset.Check(g, r) }

// CheckDistributed verifies a β-ruling set through the MPC simulator's
// communication primitives rather than centrally — the way a deployment
// would check an output in place. It costs Θ(β) rounds (returned) and uses
// o only for the cluster shape.
func CheckDistributed(g *Graph, members []int32, beta int, o Options) (rounds int, err error) {
	c, err := mpc.NewCluster(mpc.Config{
		Machines: max(o.Machines, 1),
		Regime:   o.Regime,
		Epsilon:  o.Epsilon,
	}, g.N())
	if err != nil {
		return 0, err
	}
	d, err := mpc.Distribute(c, g)
	if err != nil {
		return 0, err
	}
	return rulingset.VerifyDistributed(d, members, beta)
}
