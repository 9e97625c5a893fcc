// Package clique simulates the congested clique model — the distributed
// model in which the sample-and-sparsify ruling-set algorithms (and their
// derandomizations) were originally developed, and to which near-linear-
// memory MPC is equivalent up to constants.
//
// There are n nodes, one per graph vertex; every node initially knows its
// own incident edges. Computation proceeds in synchronous rounds: in each
// round every ORDERED PAIR of nodes may exchange at most PairWords machine
// words (one word models the O(log n)-bit messages of the model). So a node
// may receive up to n−1 words per round — the all-to-all "congested" power
// that makes O(1)-round collectives possible — but may not shove a large
// payload down a single pair link.
//
// The collectives send only what is nonzero: ScatterAggregate carries
// every nonzero contribution on its own pair link, and SumToZero and
// MaxToZero skip a zero word. Rounds are synchronous, so a receiver that
// hears nothing from a node knows that node's word is 0.
//
// Lenzen's routing theorem (any communication pattern where every node sends
// and receives at most n messages can be scheduled in O(1) rounds) is
// exposed as RouteStep: per-node budgets of n·PairWords words instead of
// per-pair budgets, charged as LenzenRounds rounds.
//
// A Cluster is the mpc superstep engine configured with one machine per
// vertex: the worker pool, fault recovery, spans, tracing, cancellation and
// transport are the mpc package's, and step closures receive an mpc.Ctx
// whose Machine is the node. Only the budget policy is the clique's own
// (see meter), so accounting is metered and execution is deterministic
// exactly as in the MPC simulator.
package clique

import (
	"context"
	"fmt"

	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// LenzenRounds is the constant number of rounds charged for one Lenzen
// routing step (the theorem's constant; 2 matches the standard statement's
// small constant without claiming tightness).
const LenzenRounds = 2

// Config describes a simulated congested clique.
type Config struct {
	// PairWords is the per-ordered-pair per-round bandwidth in words;
	// default 1 (one O(log n)-bit message).
	PairWords int
	// Strict makes violations errors wrapping mpc.ErrBudget instead of
	// recorded statistics. A strict violation aborts the offending round
	// cleanly: nothing is delivered.
	Strict bool
	// Faults, when non-nil and enabled, injects the same deterministic
	// crash schedule as the MPC simulator (see mpc.FaultPlan): node crashes
	// abort and re-execute the round from the barrier-committed state, so
	// delivered inboxes (and the algorithm's output) stay bit-identical to
	// the fault-free run, with the robustness cost metered in the fault
	// fields of Stats.
	Faults *mpc.FaultPlan
	// Tracer, when non-nil, receives one trace.Event per committed round
	// (per-node words sent/received, recovery activity). Deterministic; costs
	// nothing when nil.
	Tracer trace.Tracer
	// Context, when non-nil, is checked at every round barrier: once it is
	// done, Step/RouteStep return the engine's *mpc.CancelError wrapping
	// mpc.ErrCanceled or mpc.ErrDeadline with the committed round and full
	// Stats.
	Context context.Context
	// Parallelism bounds the worker pool executing node step closures within
	// one round: 0 (the default) means GOMAXPROCS, 1 forces the serial
	// reference path (every node runs on the calling goroutine, in node
	// order). Outputs, Stats and traces are bit-identical at every level.
	Parallelism int
}

// Message is a payload received from node Src. It is an alias of
// mpc.Message so both simulators share one message shape.
type Message = mpc.Message

// Ctx is one node's view within a step: the mpc engine's per-machine
// context, with Machine the node id.
type Ctx = mpc.Ctx

// Cluster is a simulated congested clique on n nodes.
type Cluster struct {
	cfg Config
	n   int
	eng *mpc.Cluster

	// scatter is ScatterAggregate's storage, one entry per worker block
	// (mpc.Ctx.Block), kept across calls.
	scatter []scatterBlock
	// reduceWords is SumToZero's and MaxToZero's payload slab, made on
	// first use: node v sends reduceWords[v:v+1] unless it is 0.
	reduceWords []uint64
}

// scatterBlock is one worker block's ScatterAggregate storage: the vals
// and range-ends scratch its nodes reuse one after another, and the payload
// buffer they append their nonzero values to, emptied at each call.
type scatterBlock struct {
	vals  []int64
	ends  []int
	words []uint64
}

// NewCluster creates an n-node congested clique.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("clique: n %d < 1", n)
	}
	if cfg.PairWords == 0 {
		cfg.PairWords = 1
	}
	if cfg.PairWords < 0 {
		return nil, fmt.Errorf("clique: pair bandwidth %d < 0", cfg.PairWords)
	}
	c := &Cluster{cfg: cfg, n: n}
	eng, err := mpc.NewClusterBudget(mpc.Config{
		Machines:    n,
		Regime:      mpc.RegimeExplicit,
		MemoryWords: n * cfg.PairWords,
		Strict:      cfg.Strict,
		Faults:      cfg.Faults,
		Tracer:      cfg.Tracer,
		Context:     cfg.Context,
		Parallelism: cfg.Parallelism,
	}, n, c.meter)
	if err != nil {
		return nil, err
	}
	c.eng = eng
	return c, nil
}

// meter is the congested clique's budget policy. Destination by
// destination, it flags each ordered pair carrying more than PairWords words
// (once per pair per round; not for Lenzen-routed exchanges) and the node's
// receive against n·PairWords; a routed exchange then checks every node's
// send against n·PairWords.
func (c *Cluster) meter(dst []mpc.Violation, round int, routed bool, sent, recv []int, boxes [][]Message) []mpc.Violation {
	nodeLimit := c.n * c.cfg.PairWords
	for to, box := range boxes {
		if !routed {
			pairWords, prevSrc := 0, -1
			for _, msg := range box {
				if msg.Src != prevSrc {
					pairWords, prevSrc = 0, msg.Src
				}
				pairWords += len(msg.Payload)
				if pairWords > c.cfg.PairWords {
					dst = append(dst, mpc.Violation{Round: round, Machine: msg.Src, Dst: to, Kind: "pair", Words: pairWords, Budget: c.cfg.PairWords})
					pairWords = -1 << 30 // flag once per pair per round
				}
			}
		}
		if recv[to] > nodeLimit {
			dst = append(dst, mpc.Violation{Round: round, Machine: to, Kind: "received", Words: recv[to], Budget: nodeLimit})
		}
	}
	if routed {
		for v, words := range sent {
			if words > nodeLimit {
				dst = append(dst, mpc.Violation{Round: round, Machine: v, Kind: "routed", Words: words, Budget: nodeLimit})
			}
		}
	}
	return dst
}

// SetTracer registers (or, with nil, removes) the round tracer.
func (c *Cluster) SetTracer(t trace.Tracer) { c.eng.SetTracer(t) }

// Span sets the active trace-span label that subsequent rounds' trace events
// carry (same labels and semantics as mpc.Cluster.Span; default "setup").
func (c *Cluster) Span(name string) { c.eng.Span(name) }

// CurrentSpan returns the active trace-span label.
func (c *Cluster) CurrentSpan() string { return c.eng.CurrentSpan() }

// N returns the node count.
func (c *Cluster) N() int { return c.n }

// Config returns the configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Stats returns a copy of the engine's accumulated statistics. As in the
// MPC simulator, Rounds/Messages/Words count only committed rounds and
// delivered traffic (bit-identical to the fault-free run); recovery overhead
// is metered separately in the fault fields. The clique has no
// resident-memory model, so PeakResident stays 0.
func (c *Cluster) Stats() mpc.Stats { return c.eng.Stats() }

// Step executes one synchronous round under the per-pair bandwidth budget.
func (c *Cluster) Step(name string, f func(x Ctx)) error { return c.eng.Step(name, f) }

// StepFirst is Step with f run only on nodes [0, k), for a round in which
// only a coordinator or a few aggregators send (mpc.Cluster.StepFirst).
func (c *Cluster) StepFirst(name string, k int, f func(x Ctx)) error {
	return c.eng.StepFirst(name, k, f)
}

// RouteStep executes one Lenzen-routed exchange: per-node send/receive
// budgets of n·PairWords words, charged as LenzenRounds rounds.
func (c *Cluster) RouteStep(name string, f func(x Ctx)) error {
	return c.eng.RouteStep(name, LenzenRounds, f)
}

// Drain empties and returns node v's inbox — the node-local consumption of
// delivered messages between steps. The returned slice is valid only until
// the next round's merge (mpc.Cluster.Drain): consume it before the next
// Step or RouteStep.
func (c *Cluster) Drain(v int) []Message { return c.eng.Drain(v) }

// SumToZero has every node contribute one word, summed at node 0 in one
// round (each nonzero contribution travels a distinct pair link; a node
// whose word is 0 stays silent). Returns the sum.
func (c *Cluster) SumToZero(name string, local func(v int) uint64) (uint64, error) {
	return c.reduceToZero(name, local, func(a, b uint64) uint64 { return a + b })
}

// MaxToZero is SumToZero with max instead of sum.
func (c *Cluster) MaxToZero(name string, local func(v int) uint64) (uint64, error) {
	return c.reduceToZero(name, local, func(a, b uint64) uint64 { return max(a, b) })
}

// reduceToZero gathers one word per node at node 0 in one round, node 0's
// own word included, and folds them with op, starting from 0. A node whose
// word is 0 sends nothing: op is sum or max, so folding a 0 into the
// accumulator never changes it. Every other node sends its word from its
// own slot of the kept reduceWords slab, which is safe to overwrite by the
// next call as ScatterAggregate's payload buffers are: node 0's inbox is
// drained before this call returns, and a crash retry rewrites each slot
// with the same word.
func (c *Cluster) reduceToZero(name string, local func(v int) uint64, op func(a, b uint64) uint64) (uint64, error) {
	if c.reduceWords == nil {
		c.reduceWords = make([]uint64, c.n)
	}
	words := c.reduceWords
	if err := c.Step(name, func(x Ctx) {
		v := x.Machine
		if words[v] = local(v); words[v] != 0 {
			x.SendOwned(0, words[v:v+1:v+1])
		}
	}); err != nil {
		return 0, err
	}
	var acc uint64
	for _, msg := range c.Drain(0) {
		for _, w := range msg.Payload {
			acc = op(acc, w)
		}
	}
	return acc, nil
}

// BroadcastWord has node 0 send one word to every node in one round.
func (c *Cluster) BroadcastWord(name string, word uint64) error {
	_, err := c.eng.Broadcast(name, []uint64{word})
	return err
}

// ScatterAggregate is the congested clique's O(1)-round vector reduction:
// every node v holds nExt int64 values (nExt <= n), which local(v, vals)
// writes into vals; coordinate e is summed at aggregator node e — every
// nonzero contribution on its own pair link as a single two's-complement
// word — and the aggregated vector is collected at node 0, each nonzero
// aggregator sum again one word on its own link. Two rounds total,
// independent of nExt. The sums wrap on overflow, so they are the same in
// any order.
//
// A zero is never sent: a node with nothing to add is silent, and an
// aggregator with a zero sum forwards nothing, so a missing word reads as
// the 0 it would have carried.
//
// This primitive is what makes a conditional-expectation chunk O(1) rounds
// in the clique for any chunk width up to log₂ n, where an MPC all-gather
// costs M·2^z words per machine and so caps z at ⌊log₂(S/M)⌋.
//
// local must not keep vals past its call: the scratch behind it is its
// worker block's and is reused by the block's next node. Each block packs
// its nodes' nonzero values into one payload buffer, kept across calls, so
// the storage a scatter keeps follows the nonzero values that travel, not
// n·nExt. That is safe because the aggregators drain their inboxes before
// this call returns, so no delivered payload outlives it.
func (c *Cluster) ScatterAggregate(name string, nExt int, local func(v int, vals []int64)) ([]int64, error) {
	if nExt > c.n {
		return nil, fmt.Errorf("clique: %d extensions exceed scatter capacity n=%d", nExt, c.n)
	}
	// Node v appends its nonzero values to its block's payload buffer and
	// sends them in one SendOwnedRanges call, each zero coordinate an empty
	// range. An append that moves the buffer leaves the payloads already
	// sent in the old array, which nothing writes again, and a crash retry
	// only appends more, so the buffer need not be per attempt.
	if blocks := c.eng.Blocks(); len(c.scatter) < blocks {
		c.scatter = append(c.scatter, make([]scatterBlock, blocks-len(c.scatter))...)
	}
	for b := range c.scatter {
		sb := &c.scatter[b]
		if len(sb.vals) < nExt {
			sb.vals, sb.ends = make([]int64, nExt), make([]int, nExt)
		}
		sb.words = sb.words[:0]
	}
	scatter := c.scatter
	if err := c.Step(name+"/scatter", func(x Ctx) {
		sb := &scatter[x.Block()]
		mine, end := sb.vals[:nExt:nExt], sb.ends[:nExt:nExt]
		clear(mine)
		local(x.Machine, mine)
		first := len(sb.words)
		for e, val := range mine {
			if val != 0 {
				sb.words = append(sb.words, uint64(val))
			}
			end[e] = len(sb.words) - first
		}
		if last := len(sb.words); last > first {
			x.SendOwnedRanges(sb.words[first:last:last], end)
		}
	}); err != nil {
		return nil, err
	}
	// Aggregators sum their coordinate locally, then forward a nonzero sum
	// to node 0; the sender id identifies the coordinate.
	partial := make([]int64, nExt)
	for agg := 0; agg < nExt; agg++ {
		for _, msg := range c.Drain(agg) {
			for _, w := range msg.Payload {
				partial[agg] += int64(w)
			}
		}
	}
	if err := c.StepFirst(name+"/collect", nExt, func(x Ctx) {
		if partial[x.Machine] != 0 {
			x.Send(0, uint64(partial[x.Machine]))
		}
	}); err != nil {
		return nil, err
	}
	sums := make([]int64, nExt)
	for _, msg := range c.Drain(0) {
		if msg.Src < nExt && len(msg.Payload) == 1 {
			sums[msg.Src] = int64(msg.Payload[0])
		}
	}
	return sums, nil
}
