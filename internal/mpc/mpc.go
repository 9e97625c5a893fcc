// Package mpc simulates the Massively Parallel Computation (MPC) model: M
// machines with S words of local memory each, communicating in synchronous
// rounds in which every machine sends and receives at most S words.
//
// The simulator is the substrate the reproduced paper assumes but that has no
// open-source implementation: it executes machine-local computation on a
// worker pool (sized by Config.Parallelism, default GOMAXPROCS), routes
// messages between rounds, and — crucially for a theory reproduction — meters
// the quantities the theorems bound: rounds, words sent/received per machine
// per round, and peak resident memory per machine, checking them against the
// regime's budget S.
//
// Cluster is the one superstep engine of the repository. The congested
// clique (package clique) is the same engine configured with one machine per
// vertex and its own budget policy (NewClusterBudget): only the budget check
// differs between the two models, everything else — the worker pool, fault
// recovery, spans, tracing, cancellation and transport — is shared.
//
// Execution is bit-for-bit deterministic regardless of goroutine scheduling
// and of the parallelism level: each worker buffers the sends of its
// contiguous machine block locally, the buffers are merged in fixed machine
// order at the superstep barrier, and every stat/violation reduction runs
// single-threaded at the barrier in machine order (see DESIGN.md §8,
// "Parallel commit discipline").
package mpc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/rulingset/mprs/internal/trace"
)

// Regime selects how the per-machine memory budget S is derived from the
// input size.
type Regime int

const (
	// RegimeLinear models near-linear memory: S = Θ(n) words (strongest
	// machines; equivalent in power to the congested clique). This is the
	// regime of the paper's headline deterministic 2-ruling set result.
	RegimeLinear Regime = iota + 1
	// RegimeSublinear models strictly sublinear memory: S = ⌈n^ε⌉ words.
	RegimeSublinear
	// RegimeExplicit uses Config.MemoryWords verbatim.
	RegimeExplicit
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeLinear:
		return "linear"
	case RegimeSublinear:
		return "sublinear"
	case RegimeExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("regime(%d)", int(r))
	}
}

// Config describes a simulated cluster.
type Config struct {
	// Machines is the number of machines M (>= 1).
	Machines int
	// Regime selects the memory budget rule; default RegimeLinear.
	Regime Regime
	// Epsilon is the sublinear-memory exponent (0 < ε < 1); only used by
	// RegimeSublinear. Default 0.5.
	Epsilon float64
	// MemoryWords is the explicit budget S for RegimeExplicit.
	MemoryWords int
	// LinearSlack multiplies the linear-regime budget (S = slack·n); default 4,
	// standing in for the Θ̃(n) constants/log factors.
	LinearSlack int
	// Strict makes budget violations errors instead of recorded statistics.
	// A strict violation aborts the offending step cleanly: nothing is
	// delivered, every inbox is left empty and the step's contexts are
	// invalidated.
	Strict bool
	// Faults, when non-nil and enabled, injects the deterministic crash
	// schedule described in fault.go, every crash recovered at the
	// superstep barrier so outputs stay bit-identical to the fault-free run.
	Faults *FaultPlan
	// CheckpointEvery, together with a registered Checkpointer, snapshots
	// driver state every k supersteps; crash recovery then replays from the
	// last checkpoint and is charged accordingly. 0 disables checkpointing
	// (crashes recover from the barrier-committed state at replay cost 1).
	CheckpointEvery int
	// Tracer, when non-nil, receives one trace.Event per committed superstep
	// (per-machine words sent/received, resident memory, recovery activity).
	// Tracing is deterministic and costs nothing when nil.
	Tracer trace.Tracer
	// Context, when non-nil, is checked at every superstep barrier (Step,
	// RouteStep and ChargeRounds): once it is done, the call returns a
	// *CancelError wrapping ErrCanceled or ErrDeadline with the committed
	// round and full Stats. The CLIs wire deadlines and SIGINT through it.
	Context context.Context
	// Sink, when non-nil (together with CheckpointEvery > 0 and a registered
	// Checkpointer), persists every in-memory checkpoint durably; written
	// bytes accumulate in Stats.CheckpointBytes. *durable.Store is the
	// canonical implementation.
	Sink CheckpointSink
	// Resume, when non-nil, resumes the run from a durable checkpoint: the
	// run replays deterministically to Resume.Round, verifies the replayed
	// state against the checkpoint word-for-word (ErrResumeDiverged on
	// mismatch), restores through the Checkpointer, and records the replay
	// in Stats.ResumeReplayRounds.
	Resume *ResumeState
	// Transport, when non-nil, is handed every committed superstep's sorted
	// per-destination message boxes before delivery (see the Transport
	// interface); nil is the in-memory router. A failed exchange aborts the
	// step cleanly with a *TransportError.
	Transport Transport
	// Parallelism bounds the worker pool executing machine step closures
	// within one superstep: 0 (the default) means GOMAXPROCS, 1 forces the
	// serial reference path (every machine runs on the calling goroutine, in
	// machine order). Outputs, Stats, traces and checkpoint bytes are
	// bit-identical at every level — parallelism is a throughput knob, never
	// a semantic one.
	Parallelism int
}

// Violation records a budget breach observed during the simulation.
type Violation struct {
	Round   int
	Machine int
	Kind    string // "send", "recv", "resident"
	Words   int
	Budget  int
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("round %d machine %d: %s %d words > budget %d",
		v.Round, v.Machine, v.Kind, v.Words, v.Budget)
}

// RoundInfo summarizes one communication round.
type RoundInfo struct {
	Name     string
	Span     string // algorithm phase annotation active during the round
	MaxSent  int    // max words sent by any machine this round
	MaxRecv  int    // max words received by any machine this round
	Messages int
	Words    int
	// GiniSent and GiniRecv are the round's communication-imbalance
	// coefficients across machines (0 balanced, →1 one machine carries all).
	GiniSent float64
	GiniRecv float64
}

// SpanStat aggregates the rounds of one named trace span (algorithm phase):
// how many rounds it spent, how much traffic it moved, and how skewed that
// traffic was across machines. The skew quantities are what the
// sparsification theorems shape: concentration phases should show high
// imbalance (gather-like traffic), local phases should stay near-balanced.
type SpanStat struct {
	Span     string
	Rounds   int
	Messages int64
	Words    int64
	// MaxSent and MaxRecv are the largest per-machine per-round word counts
	// observed inside the span.
	MaxSent int
	MaxRecv int
	// GiniSent and GiniRecv are the worst per-round imbalance coefficients
	// observed inside the span.
	GiniSent float64
	GiniRecv float64
}

// Stats aggregates the model-relevant measurements of a simulation.
//
// The fault/recovery fields meter robustness cost separately from the
// algorithm's own complexity: Rounds and Words count only committed
// supersteps and delivered traffic (bit-identical to the fault-free run),
// while recovery overhead accumulates in RecoveryRounds, ReplayedWords and
// CheckpointWords. Total cost under faults is the sum of the two groups.
type Stats struct {
	Rounds       int
	Messages     int64
	Words        int64
	PeakSent     int // max words sent by one machine in one round
	PeakRecv     int
	PeakResident int
	Violations   []Violation
	Log          []RoundInfo

	// Spans aggregates rounds/traffic/skew per named trace span, in order of
	// first appearance (see Cluster.Span).
	Spans []SpanStat
	// SkewSent is the worst per-round send imbalance observed: max over
	// rounds with traffic of MaxSent / (Words/M), i.e. the straggler ratio
	// of the most loaded machine against the mean.
	SkewSent float64
	// SkewRecv is the receive-side counterpart of SkewSent.
	SkewRecv float64
	// GiniSent and GiniRecv are the worst per-round Gini imbalance
	// coefficients observed (see trace.Gini).
	GiniSent float64
	GiniRecv float64

	// RecoveredCrashes counts injected machine crashes recovered at the
	// superstep barrier.
	RecoveredCrashes int
	// RecoveryRounds counts extra rounds spent recovering: restart/replay
	// rounds after crashes.
	RecoveryRounds int
	// ReplayedWords counts words re-sent or restored during recovery:
	// discarded superstep traffic and restored checkpoint state.
	ReplayedWords int64
	// CheckpointWords counts words written by periodic state checkpoints.
	CheckpointWords int64

	// CheckpointBytes counts bytes persisted to durable checkpoint storage
	// (Config.Sink); 0 without a sink. It is run-dependent rather than part
	// of the bit-identity contract: a resumed run skips re-persisting
	// checkpoints its directory already holds, so its CheckpointBytes is
	// lower than an uninterrupted run's.
	CheckpointBytes int64
	// ResumeReplayRounds counts supersteps deterministically replayed to
	// reach the durable checkpoint a resumed run restored from
	// (Config.Resume); 0 for a run started from scratch. Like
	// CheckpointBytes it is resume overhead, not algorithm cost.
	ResumeReplayRounds int
}

// ErrBudget is wrapped by errors returned in Strict mode when a budget is
// breached.
var ErrBudget = errors.New("mpc: memory/bandwidth budget exceeded")

// Message is a payload of machine words received from Src.
type Message struct {
	Src     int
	Payload []uint64
}

// BudgetPolicy meters one committed superstep against a model's budgets:
// round is the committed round count the violations are stamped with,
// routed marks a RouteStep exchange, sent[m] and recv[m] are machine m's
// words this superstep, and boxes are the delivered per-destination boxes
// (sorted by sender). It records violations in its own model's Stats and
// returns the first strict-mode error, which aborts the superstep before
// delivery. It runs single-threaded at the barrier.
type BudgetPolicy func(round int, routed bool, sent, recv []int, boxes [][]Message) error

// Cluster is a simulated MPC cluster over a ground set of n items
// (vertices), block-partitioned across machines.
type Cluster struct {
	cfg     Config
	n       int
	per     int    // block size ⌈n/M⌉ of the partition (Range)
	blocks  blocks // per's reciprocal: the block of an item (Owner, scatter)
	budget  int
	meter   BudgetPolicy
	stats   Stats
	inboxes [][]Message

	// mu guards resident-memory accounting and the late-send error during a
	// step (both reachable from concurrent machine code). Message sends do
	// not touch it: each worker buffers sends in its own stepOutbox.
	mu       sync.Mutex
	resident []int
	lateErr  error
	// stepRound is the round a step attempt in progress commits as (the
	// round its send/recv violations and trace event carry), 0 outside a
	// step. Resident-budget violations observed during a step are stamped
	// with it, buffered per machine in pendingViol and flushed into
	// stats.Violations in machine order at the barrier, so their order is
	// independent of goroutine scheduling.
	stepRound   int
	pendingViol [][]Violation

	// Superstep recovery state (see fault.go and checkpoint.go). fired
	// records the (round, machine) crashes already injected, so the
	// re-executed superstep does not crash again.
	ckpt          Checkpointer
	snapshots     [][]uint64
	ckptRound     int
	fired         map[[2]int]struct{}
	resumeApplied bool

	// Observability state: the registered tracer, the active span label
	// (atomic: drivers may switch spans while a step's workers still run —
	// each barrier pins the label once, see Step), and reusable per-machine
	// scratch buffers so the skew accounting adds no allocations to the
	// superstep path.
	tracer  trace.Tracer
	span    atomic.Pointer[string]
	sentW   []int
	recvW   []int
	sortBuf []int

	// Message-plane scratch reused across supersteps: one send-log header
	// slice per worker slot (handed to that slot's next attempt emptied and
	// cleared, see stepOutbox), the merge's M+1 destination counters, and
	// the delivery arena every round's boxes (inboxes) are carved from.
	logs     [][]sentMsg
	mergeCnt []int
	arena    []Message
}

// NewCluster creates a cluster for a ground set of n items. The memory
// budget S is derived from cfg.Regime and n, and every superstep is metered
// by the MPC budget policy: each machine's sent and received words against
// S, plus the resident memory reported through SetResident/AddResident.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	c, err := NewClusterBudget(cfg, n, nil)
	if err != nil {
		return nil, err
	}
	c.resident = make([]int, c.cfg.Machines)
	c.meter = c.meterSendRecv
	return c, nil
}

// NewClusterBudget creates a cluster whose supersteps are metered by meter
// instead of the MPC send/receive budgets; it is how package clique runs the
// congested clique on this engine. Such a cluster has no resident-memory
// model: SetResident/AddResident must not be called, and trace events carry
// no Resident vector.
func NewClusterBudget(cfg Config, n int, meter BudgetPolicy) (*Cluster, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("mpc: machines %d < 1", cfg.Machines)
	}
	if n < 0 {
		return nil, fmt.Errorf("mpc: negative ground set %d", n)
	}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("mpc: ground set %d exceeds 32-bit item ids", n)
	}
	if cfg.Regime == 0 {
		cfg.Regime = RegimeLinear
	}
	if cfg.LinearSlack <= 0 {
		cfg.LinearSlack = 4
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.5
	}
	var budget int
	switch cfg.Regime {
	case RegimeLinear:
		budget = cfg.LinearSlack * maxInt(n, 1)
	case RegimeSublinear:
		if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
			return nil, fmt.Errorf("mpc: sublinear exponent %v out of (0,1)", cfg.Epsilon)
		}
		budget = int(math.Ceil(math.Pow(float64(maxInt(n, 2)), cfg.Epsilon)))
	case RegimeExplicit:
		if cfg.MemoryWords < 1 {
			return nil, fmt.Errorf("mpc: explicit budget %d < 1", cfg.MemoryWords)
		}
		budget = cfg.MemoryWords
	default:
		return nil, fmt.Errorf("mpc: unknown regime %v", cfg.Regime)
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("mpc: parallelism %d < 0", cfg.Parallelism)
	}
	if r := cfg.Resume; r != nil {
		if cfg.CheckpointEvery <= 0 {
			return nil, fmt.Errorf("mpc: Resume requires CheckpointEvery > 0 (checkpoint barriers must recur at the cadence the checkpoint was taken at)")
		}
		if r.Round < 0 {
			return nil, fmt.Errorf("mpc: Resume.Round %d < 0", r.Round)
		}
		if len(r.State) != cfg.Machines {
			return nil, fmt.Errorf("mpc: Resume state has %d machines, cluster has %d", len(r.State), cfg.Machines)
		}
	}
	per := (n + cfg.Machines - 1) / cfg.Machines
	c := &Cluster{
		cfg:     cfg,
		n:       n,
		per:     per,
		blocks:  newBlocks(per),
		budget:  budget,
		meter:   meter,
		inboxes: make([][]Message, cfg.Machines),
		tracer:  cfg.Tracer,
		sentW:   make([]int, cfg.Machines),
		recvW:   make([]int, cfg.Machines),
		sortBuf: make([]int, cfg.Machines),

		mergeCnt: make([]int, cfg.Machines+1),
	}
	setup := "setup"
	c.span.Store(&setup)
	return c, nil
}

// parallelism resolves the configured worker-pool size: 0 means GOMAXPROCS.
func (c *Cluster) parallelism() int {
	if p := c.cfg.Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// SetTracer registers (or, with nil, removes) the superstep tracer.
func (c *Cluster) SetTracer(t trace.Tracer) { c.tracer = t }

// Span sets the active trace-span label; subsequent rounds are attributed to
// it in Stats.Spans, the round log, and emitted trace events. Algorithms
// annotate their phases with the canonical labels "sparsify", "seed-search",
// "gather" and "finish"; rounds before the first Span call land in "setup".
// A tracer implementing trace.SpanObserver is notified immediately, so live
// introspection sees the phase change before its first round commits.
//
// Safe to call concurrently with a running step: the label is stored
// atomically, and every barrier pins it exactly once before executing, so a
// mid-step switch attributes the in-flight round entirely to the old label
// and takes effect from the next round.
func (c *Cluster) Span(name string) {
	c.span.Store(&name)
	if o, ok := c.tracer.(trace.SpanObserver); ok {
		o.SpanChange(name)
	}
}

// CurrentSpan returns the active trace-span label (so helpers like the
// derandomizer can set a span and restore the caller's afterwards).
func (c *Cluster) CurrentSpan() string { return *c.span.Load() }

// Machines returns the machine count M.
func (c *Cluster) Machines() int { return c.cfg.Machines }

// N returns the ground-set size the cluster was built for.
func (c *Cluster) N() int { return c.n }

// Budget returns the per-machine memory/bandwidth budget S in words.
func (c *Cluster) Budget() int { return c.budget }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Owner returns the machine owning item v under the block partition.
func (c *Cluster) Owner(v int) int {
	return min(c.blocks.of(uint64(v)), c.cfg.Machines-1)
}

// blocks divides an item id by the block size per with one 64-bit multiply
// instead of a division: of(v) = ⌊v·r / 2^64⌋ for the reciprocal
// r = ⌊(2^64−1)/per⌋ + 1 = ⌈2^64/per⌉. r·per exceeds 2^64 by e < per, so
// v·r / 2^64 exceeds v/per by v·e / (per·2^64) < 1/per whenever v·per < 2^64,
// too little to carry v/per, whose fraction is at most (per−1)/per, to the
// next integer. So of(v) = ⌊v/per⌋ exactly for every v < 2^32, since
// NewClusterBudget keeps n, and with it per, below 2^32. per = 1 would need
// r = 2^64, one bit too wide, so it multiplies v<<1 by 2^63 instead; per = 0
// (an empty ground set) gives r = 0, and every v lands in block 0.
type blocks struct {
	recip uint64
	shift uint8
}

// newBlocks returns per's reciprocal.
func newBlocks(per int) blocks {
	switch per {
	case 0:
		return blocks{}
	case 1:
		return blocks{recip: 1 << 63, shift: 1}
	}
	return blocks{recip: math.MaxUint64/uint64(per) + 1}
}

// of returns ⌊v/per⌋, the block holding item v < 2^32.
func (b blocks) of(v uint64) int {
	hi, _ := bits.Mul64(v<<b.shift, b.recip)
	return int(hi)
}

// Range returns the half-open item range [lo, hi) owned by machine m.
func (c *Cluster) Range(m int) (lo, hi int) {
	return min(m*c.per, c.n), min((m+1)*c.per, c.n)
}

// SetResident records machine m's current resident memory in words; the
// per-machine peak is tracked and checked against the budget. Safe to call
// from concurrent machine code inside a step.
func (c *Cluster) SetResident(m, words int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setResidentLocked(m, words)
}

func (c *Cluster) setResidentLocked(m, words int) error {
	c.resident[m] = words
	if words > c.stats.PeakResident {
		c.stats.PeakResident = words
	}
	if words > c.budget {
		v := Violation{
			Round:   c.stats.Rounds,
			Machine: m,
			Kind:    "resident",
			Words:   words,
			Budget:  c.budget,
		}
		if c.stepRound > 0 {
			// Concurrent machine code: buffer the violation per machine and
			// flush in machine order at the barrier, so stats.Violations is
			// independent of goroutine scheduling. The strict error still
			// surfaces to the caller immediately.
			v.Round = c.stepRound
			if c.pendingViol == nil {
				c.pendingViol = make([][]Violation, len(c.resident))
			}
			c.pendingViol[m] = append(c.pendingViol[m], v)
			if c.cfg.Strict {
				return fmt.Errorf("%w: %s", ErrBudget, v)
			}
			return nil
		}
		return c.violate(v)
	}
	return nil
}

// setStepRound enters step-attempt mode for the step that commits as round
// r, or leaves it with r = 0: resident violations observed in the mode are
// stamped with r and buffered instead of appended directly (see
// setResidentLocked).
func (c *Cluster) setStepRound(r int) {
	c.mu.Lock()
	c.stepRound = r
	c.mu.Unlock()
}

// flushResidentViolations moves violations buffered during a step attempt
// into stats.Violations in machine order. Runs single-threaded at the
// barrier; flushed on commit, abort and crash recovery alike, so every
// attempt's observations are recorded exactly as the serial path would.
func (c *Cluster) flushResidentViolations() {
	c.mu.Lock()
	pending := c.pendingViol
	c.pendingViol = nil
	c.mu.Unlock()
	for m := range pending {
		for _, v := range pending[m] {
			c.stats.Violations = append(c.stats.Violations, v)
		}
	}
}

// AddResident adjusts machine m's resident memory by delta words. Safe to
// call from concurrent machine code inside a step.
func (c *Cluster) AddResident(m, delta int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setResidentLocked(m, c.resident[m]+delta)
}

// Resident returns machine m's currently recorded resident memory.
func (c *Cluster) Resident(m int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident[m]
}

func (c *Cluster) violate(v Violation) error {
	c.stats.Violations = append(c.stats.Violations, v)
	if c.cfg.Strict {
		return fmt.Errorf("%w: %s", ErrBudget, v)
	}
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (c *Cluster) Stats() Stats {
	out := c.stats
	out.Violations = append([]Violation(nil), c.stats.Violations...)
	out.Log = append([]RoundInfo(nil), c.stats.Log...)
	out.Spans = append([]SpanStat(nil), c.stats.Spans...)
	return out
}

// ChargeRounds accounts for k rounds of a step that is modeled analytically
// rather than simulated message-by-message (e.g. relabeling the candidates of
// a β-ruling level onto the next level's cluster). It adds k rounds to the
// statistics under the given name with no bandwidth attributed.
//
// A negative k is a caller bug (it would silently under-count the model's
// central quantity): it is recorded as a "rounds" violation and, consistent
// with budget handling, returned as an error in Strict mode.
func (c *Cluster) ChargeRounds(name string, k int) error {
	if err := c.barrierErr(); err != nil {
		return err
	}
	if k < 0 {
		return c.violate(Violation{
			Round:   c.stats.Rounds,
			Machine: -1,
			Kind:    "rounds",
			Words:   k,
			Budget:  0,
		})
	}
	span := c.CurrentSpan()
	for i := 0; i < k; i++ {
		c.stats.Rounds++
		info := RoundInfo{Name: name, Span: span}
		c.stats.Log = append(c.stats.Log, info)
		c.bumpSpan(info, 1)
		if c.tracer != nil {
			c.tracer.Superstep(trace.Event{
				Round:   c.stats.Rounds,
				Step:    name,
				Span:    span,
				Charged: true,
			})
		}
	}
	return nil
}

// findSpan returns the (possibly new) aggregate for the named span. The last
// entry is checked first so the common case — consecutive rounds in the same
// phase — is O(1).
func (c *Cluster) findSpan(name string) *SpanStat {
	if n := len(c.stats.Spans); n > 0 && c.stats.Spans[n-1].Span == name {
		return &c.stats.Spans[n-1]
	}
	for i := range c.stats.Spans {
		if c.stats.Spans[i].Span == name {
			return &c.stats.Spans[i]
		}
	}
	c.stats.Spans = append(c.stats.Spans, SpanStat{Span: name})
	return &c.stats.Spans[len(c.stats.Spans)-1]
}

// bumpSpan folds one committed superstep, charged as rounds model rounds,
// into its span aggregate.
func (c *Cluster) bumpSpan(info RoundInfo, rounds int) {
	sp := c.findSpan(info.Span)
	sp.Rounds += rounds
	sp.Messages += int64(info.Messages)
	sp.Words += int64(info.Words)
	sp.MaxSent = maxInt(sp.MaxSent, info.MaxSent)
	sp.MaxRecv = maxInt(sp.MaxRecv, info.MaxRecv)
	sp.GiniSent = maxFloat(sp.GiniSent, info.GiniSent)
	sp.GiniRecv = maxFloat(sp.GiniRecv, info.GiniRecv)
}

// recoverySnapshot captures the fault-layer counters so Step can report the
// recovery activity of one superstep as deltas in its trace event.
type recoverySnapshot struct {
	crashes, recoveryRounds int
	replayed                int64
}

func (c *Cluster) snapshotRecovery() recoverySnapshot {
	return recoverySnapshot{
		crashes:        c.stats.RecoveredCrashes,
		recoveryRounds: c.stats.RecoveryRounds,
		replayed:       c.stats.ReplayedWords,
	}
}

// MergeStats accumulates b into a: rounds, traffic and violations add up,
// peaks and skew coefficients take the maximum, span aggregates merge by
// name, and b's per-round indices (violations, like the appended log) are
// offset by a's round count so merged stats read as one continuous run. Used
// when an algorithm chains sub-instances on fresh clusters (e.g. recursive
// β-ruling levels).
func MergeStats(a, b Stats) Stats {
	offset := a.Rounds
	a.Rounds += b.Rounds
	a.Messages += b.Messages
	a.Words += b.Words
	a.PeakSent = maxInt(a.PeakSent, b.PeakSent)
	a.PeakRecv = maxInt(a.PeakRecv, b.PeakRecv)
	a.PeakResident = maxInt(a.PeakResident, b.PeakResident)
	for _, v := range b.Violations {
		v.Round += offset
		a.Violations = append(a.Violations, v)
	}
	a.Log = append(a.Log, b.Log...)
	a.Spans = mergeSpans(a.Spans, b.Spans)
	a.SkewSent = maxFloat(a.SkewSent, b.SkewSent)
	a.SkewRecv = maxFloat(a.SkewRecv, b.SkewRecv)
	a.GiniSent = maxFloat(a.GiniSent, b.GiniSent)
	a.GiniRecv = maxFloat(a.GiniRecv, b.GiniRecv)
	a.RecoveredCrashes += b.RecoveredCrashes
	a.RecoveryRounds += b.RecoveryRounds
	a.ReplayedWords += b.ReplayedWords
	a.CheckpointWords += b.CheckpointWords
	a.CheckpointBytes += b.CheckpointBytes
	a.ResumeReplayRounds += b.ResumeReplayRounds
	return a
}

// mergeSpans folds b's span aggregates into a's, matching by name and
// preserving first-appearance order. The result never aliases b.
func mergeSpans(a, b []SpanStat) []SpanStat {
	for _, sp := range b {
		merged := false
		for i := range a {
			if a[i].Span == sp.Span {
				a[i].Rounds += sp.Rounds
				a[i].Messages += sp.Messages
				a[i].Words += sp.Words
				a[i].MaxSent = maxInt(a[i].MaxSent, sp.MaxSent)
				a[i].MaxRecv = maxInt(a[i].MaxRecv, sp.MaxRecv)
				a[i].GiniSent = maxFloat(a[i].GiniSent, sp.GiniSent)
				a[i].GiniRecv = maxFloat(a[i].GiniRecv, sp.GiniRecv)
				merged = true
				break
			}
		}
		if !merged {
			a = append(a, sp)
		}
	}
	return a
}

// Ctx is the per-machine view inside one Step: the machine id, its item
// range, the messages delivered at the end of the previous step, and a Send
// primitive for the current step. In the congested clique the machine is
// the vertex's node (one machine per vertex, Lo = Machine, Hi = Machine+1).
//
// A Ctx is valid only for the duration of its step: once the step commits
// (or aborts), the context is invalidated and late Send calls are dropped
// and surfaced as an error from the next Step, instead of corrupting the
// next round's traffic.
type Ctx struct {
	Machine int
	Lo, Hi  int

	inbox   []Message
	sent    int
	ob      *stepOutbox
	crashed bool
	merr    *MachineError
}

// stepOutbox buffers the sends of one worker's contiguous machine block
// during one step attempt, as an append-only send log in send order. Workers
// never share a buffer, so appends are uncontended in the common case; the
// mutex exists for step closures that spawn their own sender goroutines
// (documented as legal as long as they are joined before the closure
// returns) and for the seal at the barrier, which turns late sends into
// ErrStaleCtx instead of next-round corruption.
//
// The log holds only headers: the merge copies them into the delivered
// boxes and nothing else retains them, so the Cluster hands a worker slot's
// log to the slot's next attempt emptied and cleared (it pins no payload).
// Its capacity is bounded by the largest superstep the slot has buffered.
// Payload words copied by Send live in words, this attempt's own chunks;
// they are never reused. SendOwned payloads are the sender's: only
// DistGraph (one send slab per machine) and the clique's
// ScatterAggregateFloat reuse them, under the ownership rule of DESIGN.md
// §8.
type stepOutbox struct {
	mu     sync.Mutex
	sealed bool
	log    []sentMsg
	words  []uint64 // the current Send copy chunk: filled prefix, free tail
	c      *Cluster
	round  int
}

// sentMsg is one send-log entry: 32 bytes, in send order.
type sentMsg struct {
	dst, src int32
	payload  []uint64
}

// Send copy chunks grow geometrically from minSendChunk to maxSendChunk
// words per attempt; a payload longer than maxSendChunk gets its own
// exact-size chunk. A filled chunk is never reallocated, so sub-slices
// already sent stay valid.
const (
	minSendChunk = 8
	maxSendChunk = 1024
)

// Inbox returns the messages delivered to this machine at the end of the
// previous step, ordered by sender id (and send order within a sender).
// The slice is a window of the cluster's delivery arena, which the next
// superstep's merge overwrites: it is valid only until this step's closures
// return, and must not be kept past them (DESIGN.md §8, "Inbox lifetime").
func (x *Ctx) Inbox() []Message { return x.inbox }

// Send queues a message of machine words to machine dst, delivered at the
// end of the step. The payload is copied into a word chunk of the sending
// worker's attempt, and the message carries a capacity-clipped sub-slice of
// it (see SendOwned for the read-only rule that makes sharing safe). A dst
// outside [0, M) panics in the sender's closure, which the step returns as
// the sender's *MachineError.
func (x *Ctx) Send(dst int, payload ...uint64) {
	if ob := x.lockOutbox(dst, len(payload)); ob != nil {
		x.logSend(ob, dst, ob.copyWords(payload))
	}
}

// SendOwned queues payload without copying. payload may be a
// capacity-clipped sub-slice (slab[a:b:b]) of one slab the sender shares
// across destinations: the engine, the Transport, checkpointing and every
// receiver only read delivered payloads, and never append to or write into
// them (DESIGN.md §8). The caller must not write
// the payload again while anything can still reference it. In practice
// that means never, except for DistGraph's exchanges and the clique's
// ScatterAggregateFloat: they decode and clear their inboxes before
// returning, so their next call may overwrite the slab. Sending on an
// invalidated context (after its step completed) drops the payload and
// records ErrStaleCtx, returned by the cluster's next Step. A dst outside
// [0, M) panics as in Send.
func (x *Ctx) SendOwned(dst int, payload []uint64) {
	if ob := x.lockOutbox(dst, len(payload)); ob != nil {
		x.logSend(ob, dst, payload)
	}
}

// SendOwnedRanges queues one message per destination from one slab under a
// single outbox lock: machine d receives slab[end[d-1]:end[d]:end[d]] (with
// end[-1] = 0) for every d < len(end) whose range is non-empty, in
// ascending d. It is the SendOwned loop over those ranges, delivered,
// counted and traced identically, and follows SendOwned's read-only rule.
// A len(end) > M, or an end that decreases or runs past the slab, panics in
// the sender's closure as in Send; a call on an invalidated context drops
// every range and records ErrStaleCtx with their total word count.
func (x *Ctx) SendOwnedRanges(slab []uint64, end []int) {
	if len(end) == 0 {
		return
	}
	total := end[len(end)-1]
	ob := x.lockOutbox(len(end)-1, total)
	if ob == nil {
		return
	}
	lo := 0
	for d, hi := range end {
		if hi < lo || hi > len(slab) {
			ob.mu.Unlock()
			panic(fmt.Sprintf("mpc: machine %d sent range [%d, %d) to machine %d of a %d-word slab", x.Machine, lo, hi, d, len(slab)))
		}
		if hi > lo {
			ob.log = append(ob.log, sentMsg{dst: int32(d), src: int32(x.Machine), payload: slab[lo:hi:hi]})
		}
		lo = hi
	}
	x.sent += total
	ob.mu.Unlock()
}

// lockOutbox takes the sender's outbox mutex for one send and returns the
// outbox, or returns nil with the mutex released after recording a late
// send on a sealed outbox. An out-of-range dst panics here, inside the
// sender's closure. The senders share it but append separately, so
// Send's variadic payload never escapes and costs its caller no allocation.
func (x *Ctx) lockOutbox(dst, words int) *stepOutbox {
	ob := x.ob
	ob.mu.Lock()
	if ob.sealed {
		ob.mu.Unlock()
		ob.c.noteLateSend(x.Machine, ob.round, words)
		return nil
	}
	if M := ob.c.cfg.Machines; dst < 0 || dst >= M {
		ob.mu.Unlock()
		panic(fmt.Sprintf("mpc: machine %d sent to machine %d outside [0, %d)", x.Machine, dst, M))
	}
	return ob
}

// logSend appends one send to the locked outbox's log and unlocks it.
func (x *Ctx) logSend(ob *stepOutbox, dst int, payload []uint64) {
	x.sent += len(payload)
	ob.log = append(ob.log, sentMsg{dst: int32(dst), src: int32(x.Machine), payload: payload})
	ob.mu.Unlock()
}

// copyWords returns a capacity-clipped copy of p carved from the attempt's
// current word chunk, starting a new chunk when p does not fit.
func (ob *stepOutbox) copyWords(p []uint64) []uint64 {
	n := len(p)
	if n == 0 {
		return []uint64{}
	}
	if n > maxSendChunk {
		return slices.Clone(p)
	}
	if len(ob.words)+n > cap(ob.words) {
		size := min(max(2*cap(ob.words), minSendChunk), maxSendChunk)
		ob.words = make([]uint64, 0, max(size, n))
	}
	a := len(ob.words)
	ob.words = append(ob.words, p...)
	return ob.words[a : a+n : a+n]
}

// noteLateSend records the sticky ErrStaleCtx surfaced by the next Step.
func (c *Cluster) noteLateSend(machine, round, words int) {
	c.mu.Lock()
	if c.lateErr == nil {
		c.lateErr = fmt.Errorf("mpc: machine %d sent %d words after its step (round %d) completed: %w",
			machine, words, round, ErrStaleCtx)
	}
	c.mu.Unlock()
}

// ErrStaleCtx is wrapped by the error recorded when a machine sends on a Ctx
// whose step has already completed (e.g. from a goroutine leaked past the
// superstep barrier).
var ErrStaleCtx = errors.New("mpc: send on invalidated step context")

// takeLateErr returns and clears the sticky late-send error.
func (c *Cluster) takeLateErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.lateErr
	c.lateErr = nil
	return err
}

// attempt is the transient state of one superstep execution attempt: the
// per-machine contexts (one allocation for all M) and the per-worker outbox
// buffers they fed. The outboxes and their Send word chunks live and die
// with the attempt; only the header logs return to the Cluster once the
// attempt is merged or discarded (release), emptied, so a crash retry or the
// next superstep starts from empty logs and can never deliver stale traffic.
type attempt struct {
	ctxs    []Ctx
	outs    []*stepOutbox // one per worker, in ascending machine-block order
	crashed []int
	merr    *MachineError
}

// seal closes every outbox of a finished (or aborted) attempt so late sends
// error (ErrStaleCtx) instead of leaking into the next round. Sealing takes
// each buffer's mutex, which also publishes all pre-seal sends (and the
// per-context sent counters they bumped) to the committing goroutine.
func (at *attempt) seal() {
	for _, ob := range at.outs {
		ob.mu.Lock()
		ob.sealed = true
		ob.mu.Unlock()
	}
}

// release hands each sealed outbox's log back to its worker slot, cleared so
// it pins no payload and emptied so the next attempt appends from zero.
func (at *attempt) release(c *Cluster) {
	for w, ob := range at.outs {
		clear(ob.log)
		c.logs[w] = ob.log[:0]
	}
}

// mergeOutboxes turns the per-worker send logs into the per-destination
// boxes, written into c.inboxes: a count pass sizes every destination
// (c.mergeCnt, prefix-summed into box offsets), then a fill pass copies the
// headers into the cluster's delivery arena, workers in ascending
// machine-block order, and box d is arena[a:b:b]. The arena grows only when
// a round needs more headers than it holds and is otherwise overwritten, so
// every box of the previous round is dead from here on (the inbox-lifetime
// rule of DESIGN.md §8); its surplus tail is cleared so it pins no payload.
// Each worker runs its block sequentially and blocks ascend with worker
// index, so every box is already in the canonical total order — by sender
// id, then per-sender send order — for every parallelism level, with no
// sort and no comparison against a shared structure. The order is verified
// (and, for the pathological-but-legal case of a step closure whose joined
// goroutines interleaved sends across machines of one block, restored)
// before the boxes are handed to the transport, which assumes it.
func (at *attempt) mergeOutboxes(c *Cluster) [][]Message {
	M := c.cfg.Machines
	off := c.mergeCnt
	clear(off)
	for _, ob := range at.outs {
		for _, s := range ob.log {
			off[s.dst+1]++
		}
	}
	for d := 1; d <= M; d++ {
		off[d] += off[d-1]
	}
	if n := off[M]; n > cap(c.arena) {
		c.arena = make([]Message, n)
	} else {
		if n < len(c.arena) {
			clear(c.arena[n:])
		}
		c.arena = c.arena[:n]
	}
	flat, boxes := c.arena, c.inboxes
	for d := 0; d < M; d++ {
		boxes[d] = nil
		if a, b := off[d], off[d+1]; a < b {
			boxes[d] = flat[a:b:b]
		}
	}
	for _, ob := range at.outs {
		for _, s := range ob.log {
			flat[off[s.dst]] = Message{Src: int(s.src), Payload: s.payload}
			off[s.dst]++
		}
	}
	for _, box := range boxes {
		for i := 1; i < len(box); i++ {
			if box[i].Src < box[i-1].Src {
				stableSortBySrc(box)
				break
			}
		}
	}
	return boxes
}

// chargeDiscarded charges the aborted attempt's buffered traffic to
// ReplayedWords (it is re-sent by the retry). The log itself is released
// with the attempt.
func (at *attempt) chargeDiscarded(c *Cluster) {
	for _, ob := range at.outs {
		for _, s := range ob.log {
			c.stats.ReplayedWords += int64(len(s.payload))
		}
	}
}

// crashNow consumes one injected crash for (round, m); a fault fires only
// once, so the superstep retry after recovery does not crash again.
func (c *Cluster) crashNow(round, m int) bool {
	if !c.cfg.Faults.CrashesAt(round, m) {
		return false
	}
	key := [2]int{round, m}
	if _, ok := c.fired[key]; ok {
		return false
	}
	if c.fired == nil {
		c.fired = make(map[[2]int]struct{})
	}
	c.fired[key] = struct{}{}
	return true
}

// poolBlocks returns the worker pool's split of the M machines into
// contiguous blocks: per machines per block (the last may be shorter), one
// block per worker, Config.Parallelism workers at most.
func (c *Cluster) poolBlocks() (workers, per int) {
	M := c.cfg.Machines
	P := min(c.parallelism(), M)
	per = (M + P - 1) / P
	return (M + per - 1) / per, per
}

// runBlocks runs f(lo, hi) for every worker block of machines [lo, hi) on
// the cluster's worker pool: one goroutine per block, joined before it
// returns, or inline on the calling goroutine in block order when the pool
// has one worker (Parallelism 1). Blocks run concurrently, so f must write
// only state owned by the machines of its block (detlint's sharedwrite
// checks these closures like step closures).
func (c *Cluster) runBlocks(f func(lo, hi int)) {
	M := c.cfg.Machines
	workers, per := c.poolBlocks()
	if workers == 1 {
		f(0, M)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w*per, min((w+1)*per, M))
		}()
	}
	wg.Wait()
}

// runAttempt executes one attempt of a superstep: f runs on every non-crashed
// machine on the worker pool (runBlocks; one outbox per worker block, with
// Parallelism 1 every machine runs inline in machine order), with panics
// recovered per machine. Crash decisions (which consume once-only fault
// events) are taken sequentially before any worker starts. The returned
// attempt carries the contexts, the per-worker outboxes, the machines crashed
// by the fault plan, and the lowest-machine MachineError if any step function
// panicked.
func (c *Cluster) runAttempt(round int, f func(x *Ctx)) *attempt {
	M := c.cfg.Machines
	at := &attempt{ctxs: make([]Ctx, M)}
	for m := range at.ctxs {
		x := &at.ctxs[m]
		x.Machine, x.inbox = m, c.inboxes[m]
		x.Lo, x.Hi = c.Range(m)
		if c.crashNow(round, m) {
			x.crashed = true
			at.crashed = append(at.crashed, m)
		}
	}
	run := func(x *Ctx) {
		defer func() {
			if r := recover(); r != nil {
				x.merr = &MachineError{Machine: x.Machine, Round: round, Panic: r, Stack: debug.Stack()}
			}
		}()
		f(x)
	}
	workers, per := c.poolBlocks()
	for len(c.logs) < workers {
		c.logs = append(c.logs, nil)
	}
	at.outs = make([]*stepOutbox, workers)
	for w := range at.outs {
		ob := &stepOutbox{log: c.logs[w], c: c, round: round}
		at.outs[w] = ob
		for m := w * per; m < min((w+1)*per, M); m++ {
			at.ctxs[m].ob = ob
		}
	}
	c.runBlocks(func(lo, hi int) {
		for m := lo; m < hi; m++ {
			if !at.ctxs[m].crashed {
				run(&at.ctxs[m])
			}
		}
	})
	for m := range at.ctxs {
		if at.merr = at.ctxs[m].merr; at.merr != nil {
			break
		}
	}
	return at
}

// Step executes one synchronous round: f runs concurrently on every machine
// (reading its inbox from the previous step and sending messages), then all
// messages are delivered. name labels the round in the trace log.
//
// Robustness semantics:
//   - A panic in one machine's f is recovered at the barrier and returned as
//     a *MachineError; the step delivers nothing and the process survives.
//   - Crashes injected by Config.Faults abort the attempt at the barrier;
//     crashed machines are restored (see Checkpointer) and the superstep
//     re-executes, with the recovery charged to the fault fields of Stats.
//     f must therefore be effect-free on driver state (the established
//     discipline: drivers mutate state only after Step returns).
//   - In Strict mode a budget violation aborts the step cleanly: the error
//     is returned, nothing is delivered, every inbox is left empty (the
//     merge already overwrote the previous round's), and the contexts are
//     invalidated. A transport veto leaves the inboxes empty the same way.
func (c *Cluster) Step(name string, f func(x *Ctx)) error {
	return c.step(name, 1, false, f)
}

// RouteStep is Step for an exchange scheduled by a routing protocol that
// costs rounds model rounds (the congested clique's Lenzen routing): the
// superstep is charged rounds rounds, and the budget policy meters it as
// routed. The MPC policy meters a routed exchange exactly like a Step.
func (c *Cluster) RouteStep(name string, rounds int, f func(x *Ctx)) error {
	if rounds < 1 {
		return fmt.Errorf("mpc: routed step %q charged %d rounds < 1", name, rounds)
	}
	return c.step(name, rounds, true, f)
}

func (c *Cluster) step(name string, rounds int, routed bool, f func(x *Ctx)) error {
	if err := c.takeLateErr(); err != nil {
		return err
	}
	if err := c.barrierErr(); err != nil {
		return err
	}
	M := c.cfg.Machines
	round := c.stats.Rounds + 1
	// Pin the span label once per barrier: a driver switching spans while
	// workers still run attributes this round entirely to the old label.
	span := c.CurrentSpan()
	pre := c.snapshotRecovery()
	if err := c.maybeCheckpoint(round); err != nil {
		return err
	}

	c.setStepRound(round + rounds - 1)
	var at *attempt
	for {
		at = c.runAttempt(round, f)
		at.seal()
		if at.merr != nil {
			at.release(c)
			c.flushResidentViolations()
			c.setStepRound(0)
			return at.merr
		}
		if len(at.crashed) == 0 {
			break
		}
		c.flushResidentViolations()
		c.recoverCrashes(round, at)
		at.release(c)
	}
	c.flushResidentViolations()
	c.setStepRound(0)

	// Merge the per-worker send logs in fixed machine order — the canonical
	// (sender id, send order) sequence at every parallelism level, identical
	// to what the serial path produces. The merge overwrites the
	// previous round's inboxes, so an abort from here on leaves every inbox
	// empty.
	boxes := at.mergeOutboxes(c)
	at.release(c)
	// The merged boxes are the canonical exchange: hand them to the
	// configured transport (the multi-process backend checks them against
	// its peers' replicas here). A failed exchange aborts before the round
	// commits — nothing below has run, so the carried Stats are exactly the
	// committed prefix.
	if c.cfg.Transport != nil {
		if err := c.cfg.Transport.Exchange(round, boxes); err != nil {
			clear(c.inboxes)
			return &TransportError{Round: c.stats.Rounds, Stats: c.Stats(), Err: err}
		}
	}

	c.stats.Rounds += rounds
	info := RoundInfo{Name: name, Span: span}
	for m := 0; m < M; m++ {
		sent := at.ctxs[m].sent
		c.sentW[m] = sent
		info.MaxSent = maxInt(info.MaxSent, sent)
		c.stats.PeakSent = maxInt(c.stats.PeakSent, sent)
		box := boxes[m]
		recv := 0
		for _, msg := range box {
			recv += len(msg.Payload)
		}
		info.Messages += len(box)
		info.Words += recv
		c.recvW[m] = recv
		info.MaxRecv = maxInt(info.MaxRecv, recv)
		c.stats.PeakRecv = maxInt(c.stats.PeakRecv, recv)
	}
	firstErr := c.meter(c.stats.Rounds, routed, c.sentW, c.recvW, boxes)
	// Skew accounting: per-round Gini coefficients (computed on the reusable
	// scratch buffer — no allocation) and the straggler ratio max/mean.
	copy(c.sortBuf, c.sentW)
	info.GiniSent = trace.Gini(c.sortBuf)
	copy(c.sortBuf, c.recvW)
	info.GiniRecv = trace.Gini(c.sortBuf)
	if info.Words > 0 {
		mean := float64(info.Words) / float64(M)
		c.stats.SkewSent = maxFloat(c.stats.SkewSent, float64(info.MaxSent)/mean)
		c.stats.SkewRecv = maxFloat(c.stats.SkewRecv, float64(info.MaxRecv)/mean)
	}
	c.stats.GiniSent = maxFloat(c.stats.GiniSent, info.GiniSent)
	c.stats.GiniRecv = maxFloat(c.stats.GiniRecv, info.GiniRecv)
	c.stats.Messages += int64(info.Messages)
	c.stats.Words += int64(info.Words)
	c.stats.Log = append(c.stats.Log, info)
	c.bumpSpan(info, rounds)
	if c.tracer != nil {
		// Event slices are freshly allocated: sinks may retain them. Machine
		// goroutines are quiesced at this point, so c.resident is stable (nil
		// without a resident-memory model).
		c.tracer.Superstep(trace.Event{
			Round:          c.stats.Rounds,
			Step:           name,
			Span:           span,
			Sent:           slices.Clone(c.sentW),
			Recv:           slices.Clone(c.recvW),
			Resident:       slices.Clone(c.resident),
			Messages:       info.Messages,
			Words:          info.Words,
			MaxSent:        info.MaxSent,
			MaxRecv:        info.MaxRecv,
			GiniSent:       info.GiniSent,
			GiniRecv:       info.GiniRecv,
			Crashes:        c.stats.RecoveredCrashes - pre.crashes,
			RecoveryRounds: c.stats.RecoveryRounds - pre.recoveryRounds,
			ReplayedWords:  c.stats.ReplayedWords - pre.replayed,
		})
	}
	if firstErr != nil {
		// Strict mode: abort cleanly — the violation is recorded and
		// returned, nothing reaches the next round's inboxes.
		clear(c.inboxes)
		return firstErr
	}
	return nil
}

// meterSendRecv is the MPC budget policy: every machine's sent words, then
// every machine's received words, against S. (Resident-memory violations
// are recorded as they are reported, see SetResident.)
func (c *Cluster) meterSendRecv(round int, _ bool, sent, recv []int, _ [][]Message) error {
	var firstErr error
	check := func(kind string, words []int) {
		for m, w := range words {
			if w > c.budget {
				if err := c.violate(Violation{Round: round, Machine: m, Kind: kind, Words: w, Budget: c.budget}); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	check("send", sent)
	check("recv", recv)
	return firstErr
}

// Drain empties and returns machine m's inbox — the coordinator-side
// consumption of delivered messages between steps. The returned slice is a
// window of the delivery arena: it is valid only until the next superstep's
// merge, so it must be consumed before the next Step or RouteStep.
func (c *Cluster) Drain(m int) []Message {
	box := c.inboxes[m]
	c.inboxes[m] = nil
	return box
}

// stableSortBySrc restores one destination box to the canonical total order:
// ascending sender id, ties broken by per-sender send sequence. The
// comparator keys on Src alone, so totality rests on two guarantees that
// must both hold: sort.SliceStable never reorders equal elements, and every
// producer appends one sender's messages in that sender's send order (a
// worker runs its machines sequentially; in-closure sender goroutines must
// be joined before the closure returns). TestDuplicateSrcFanIn pins the
// combination — it would flake under a non-stable sort or an unordered
// producer.
func stableSortBySrc(box []Message) {
	sort.SliceStable(box, func(i, j int) bool { return box[i].Src < box[j].Src })
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
