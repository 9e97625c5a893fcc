package mpc

import "fmt"

// Fault injection: a seeded, deterministic schedule of machine crashes,
// message drops/duplications and straggler stalls, applied by Step at the
// superstep barrier. The model follows the Pregel/MapReduce failure story the
// MPC abstraction stands in for:
//
//   - A CRASH kills a machine for the duration of one superstep. The
//     superstep aborts at the barrier (its partial send logs are discarded),
//     the machine is restarted — restoring its state from the last checkpoint
//     when a Checkpointer is registered, or from the barrier-committed state
//     otherwise — and the superstep re-executes. Because machine-local
//     computation is deterministic, the re-executed superstep reproduces the
//     fault-free messages exactly; the cost of the recovery (restart and
//     replay rounds, re-sent and restored words) is charged to Stats
//     (RecoveredCrashes, RecoveryRounds, ReplayedWords) instead of perturbing
//     the algorithm's own round/word counts.
//
//   - A DROP loses a message in transit. The transport layer is reliable
//     (ack/retransmit): the message is retransmitted and delivered, one extra
//     recovery round is charged per superstep with at least one drop, and the
//     re-sent words are charged to ReplayedWords.
//
//   - A DUPLICATE delivers a message twice; the receiver's dedup filter
//     drops the copy. Counted in DupMessages, no inbox effect.
//
//   - A STALL models a straggler: the barrier waits an extra round for the
//     slow machine, charged to StallRounds.
//
// Every decision is a deterministic function of (plan seed, event identity),
// never of goroutine scheduling, so a faulty run is exactly reproducible from
// (input, seed, plan) — and, because every fault is recovered, the delivered
// inboxes (and therefore the algorithm's output) are bit-identical to the
// fault-free run's. That invariance is the point: the paper's determinism
// claim survives adverse execution, with the robustness cost metered the same
// way round complexity is.
//
// Step functions must be effect-free on driver state (all driver mutation
// happens after Step returns) so that a superstep can be re-executed; every
// driver in this repository already follows that discipline.

// faultKind tags the event classes of a FaultPlan.
type faultKind uint64

const (
	faultCrash faultKind = iota + 1
	faultDrop
	faultDup
	faultStall
)

// FaultEvent pins one explicit fault to a superstep: Round is the 1-based
// round number at which the fault fires, Machine the victim machine (node, in
// the congested clique).
type FaultEvent struct {
	Round   int
	Machine int
}

// DropEvent pins one explicit in-transit message loss: the first message
// (send-order sequence 0) from Src to Dst at Round is dropped and
// retransmitted by the reliable layer. Targeted drops let incident
// reproductions pin a loss to an exact edge and round, the way a
// FaultEvent pins a crash.
type DropEvent struct {
	Round int
	Src   int
	Dst   int
}

// FaultPlan is a deterministic fault schedule. The zero value (and a nil
// plan) injects nothing. Rates are per-event probabilities realized by a
// pairwise-independent multiply-shift hash of the event identity under Seed:
// the same (plan, event) always makes the same decision, independent of
// goroutine scheduling, machine count or wall clock.
//
// A plan is stateless and may be shared across runs and clusters; the
// once-only semantics of each fault (a crash fires once per (round, machine),
// even across superstep retries) is tracked by the cluster.
type FaultPlan struct {
	// Seed keys the pairwise-independent schedule hash.
	Seed int64
	// CrashRate is the probability that a given (round, machine) pair
	// crashes at that superstep.
	CrashRate float64
	// DropRate is the probability that a given message is lost in transit
	// (and retransmitted by the reliable layer).
	DropRate float64
	// DupRate is the probability that a given message is duplicated in
	// transit (and deduplicated by the receiver).
	DupRate float64
	// StallRate is the probability that a given (round, machine) pair
	// straggles, stalling the barrier one extra round.
	StallRate float64
	// Crashes lists explicit crash injections on top of CrashRate.
	Crashes []FaultEvent
	// Stalls lists explicit straggler injections on top of StallRate.
	Stalls []FaultEvent
	// Drops lists explicit message losses on top of DropRate.
	Drops []DropEvent
}

// Enabled reports whether the plan can inject any fault at all.
func (p *FaultPlan) Enabled() bool {
	return p != nil && (p.CrashRate > 0 || p.DropRate > 0 || p.DupRate > 0 ||
		p.StallRate > 0 || len(p.Crashes) > 0 || len(p.Stalls) > 0 || len(p.Drops) > 0)
}

// String implements fmt.Stringer.
func (p *FaultPlan) String() string {
	if !p.Enabled() {
		return "faults(off)"
	}
	return fmt.Sprintf("faults(seed=%d crash=%g drop=%g dup=%g stall=%g explicit=%d)",
		p.Seed, p.CrashRate, p.DropRate, p.DupRate, p.StallRate,
		len(p.Crashes)+len(p.Stalls)+len(p.Drops))
}

// eventID packs a fault event into one 64-bit identity. Fields beyond the
// packed widths wrap, which only folds distinct events together (never breaks
// determinism); the widths cover every scale the simulator is used at.
func eventID(kind faultKind, round, a, b, seq int) uint64 {
	return uint64(kind)<<60 |
		(uint64(round)&0x3FFFF)<<42 |
		(uint64(a)&0x3FFF)<<28 |
		(uint64(b)&0x3FFF)<<14 |
		uint64(seq)&0x3FFF
}

// SplitMix64 is the SplitMix64 finalizer — a full-avalanche 64-bit mixer,
// shared with internal/chaos's seeded choices.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll makes the deterministic fault decision for one event: it hashes the
// event identity with the pairwise-independent family h_{A,B}(x) = A·x + B
// over Z/2^64 (A odd, A and B derived from Seed), and fires iff the top 53
// bits fall below rate. Distinct events get pairwise-independent decisions;
// identical events always decide the same way.
func (p *FaultPlan) roll(kind faultKind, round, a, b, seq int, rate float64) bool {
	if p == nil || rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	s := SplitMix64(uint64(p.Seed))
	mulA := SplitMix64(s) | 1
	addB := SplitMix64(s + 1)
	h := mulA*SplitMix64(eventID(kind, round, a, b, seq)) + addB
	return float64(h>>11)/float64(1<<53) < rate
}

// CrashesAt reports whether the plan crashes machine m at round r (explicit
// injections first, then the seeded schedule).
func (p *FaultPlan) CrashesAt(round, machine int) bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Crashes {
		if ev.Round == round && ev.Machine == machine {
			return true
		}
	}
	return p.roll(faultCrash, round, machine, 0, 0, p.CrashRate)
}

// StallsAt reports whether machine m straggles at round r (explicit
// injections first, then the seeded schedule).
func (p *FaultPlan) StallsAt(round, machine int) bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Stalls {
		if ev.Round == round && ev.Machine == machine {
			return true
		}
	}
	return p.roll(faultStall, round, machine, 0, 0, p.StallRate)
}

// DropsMessage reports whether the seq-th message from src to dst at round r
// is lost in transit. An explicit DropEvent targets the first message of its
// (round, src, dst) edge (seq 0); the seeded schedule covers the rest.
func (p *FaultPlan) DropsMessage(round, src, dst, seq int) bool {
	if p == nil {
		return false
	}
	if seq == 0 {
		for _, ev := range p.Drops {
			if ev.Round == round && ev.Src == src && ev.Dst == dst {
				return true
			}
		}
	}
	return p.roll(faultDrop, round, src, dst, seq, p.DropRate)
}

// DupsMessage reports whether that message is duplicated in transit.
func (p *FaultPlan) DupsMessage(round, src, dst, seq int) bool {
	return p.roll(faultDup, round, src, dst, seq, p.DupRate)
}

// MachineError is a panic from one machine's step function, recovered at the
// superstep barrier so a single machine's bug surfaces as a structured error
// instead of taking down the whole simulated cluster. The failed superstep
// delivers nothing.
type MachineError struct {
	// Machine is the panicking machine (the lowest id when several panic in
	// the same superstep).
	Machine int
	// Round is the 1-based superstep at which the panic occurred.
	Round int
	// Panic is the recovered panic value.
	Panic any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *MachineError) Error() string {
	return fmt.Sprintf("mpc: machine %d panicked in round %d: %v", e.Machine, e.Round, e.Panic)
}
