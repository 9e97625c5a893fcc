package mpc

import "fmt"

// Fault injection: a seeded, deterministic schedule of machine crashes,
// applied by Step at the superstep barrier. The model follows the
// Pregel/MapReduce failure story the MPC abstraction stands in for: a CRASH
// kills a machine for the duration of one superstep. The superstep aborts at
// the barrier (its partial send logs are discarded), the machine is
// restarted — restoring its state from the last checkpoint when a
// Checkpointer is registered, or from the barrier-committed state otherwise
// — and the superstep re-executes. Because machine-local computation is
// deterministic, the re-executed superstep reproduces the fault-free
// messages exactly; the cost of the recovery (restart and replay rounds,
// re-sent and restored words) is charged to Stats (RecoveredCrashes,
// RecoveryRounds, ReplayedWords) instead of perturbing the algorithm's own
// round/word counts.
//
// The crash is the only simulated fault: it is the one that changes what an
// attempt delivers, so it is the one the determinism claim has to survive.
// Message loss, duplication, reordering and stragglers are exercised on the
// real multi-process transport instead (internal/chaos's wire: layer).
//
// Every decision is a deterministic function of (plan seed, round, machine),
// never of goroutine scheduling, so a faulty run is exactly reproducible from
// (input, seed, plan) — and, because every crash is recovered, the delivered
// inboxes (and therefore the algorithm's output) are bit-identical to the
// fault-free run's. That invariance is the point: the paper's determinism
// claim survives adverse execution, with the robustness cost metered the same
// way round complexity is.
//
// Step functions must be effect-free on driver state (all driver mutation
// happens after Step returns) so that a superstep can be re-executed; every
// driver in this repository already follows that discipline.

// FaultEvent pins one explicit crash to a superstep: Round is the 1-based
// round number at which the machine crashes, Machine the victim machine
// (node, in the congested clique).
type FaultEvent struct {
	Round   int
	Machine int
}

// FaultPlan is a deterministic crash schedule. The zero value (and a nil
// plan) injects nothing. CrashRate is a per-(round, machine) probability
// realized by a pairwise-independent multiply-shift hash of the event
// identity under Seed: the same (plan, event) always makes the same
// decision, independent of goroutine scheduling, machine count or wall
// clock.
//
// A plan is stateless and may be shared across runs and clusters; the
// once-only semantics of each crash (it fires once per (round, machine),
// even across superstep retries) is tracked by the cluster.
type FaultPlan struct {
	// Seed keys the pairwise-independent schedule hash.
	Seed int64
	// CrashRate is the probability that a given (round, machine) pair
	// crashes at that superstep.
	CrashRate float64
	// Crashes lists explicit crash injections on top of CrashRate.
	Crashes []FaultEvent
}

// Enabled reports whether the plan can inject any fault at all.
func (p *FaultPlan) Enabled() bool {
	return p != nil && (p.CrashRate > 0 || len(p.Crashes) > 0)
}

// String implements fmt.Stringer.
func (p *FaultPlan) String() string {
	if !p.Enabled() {
		return "faults(off)"
	}
	return fmt.Sprintf("faults(seed=%d crash=%g explicit=%d)", p.Seed, p.CrashRate, len(p.Crashes))
}

// crashID packs a (round, machine) crash event into one 64-bit identity:
// a tag of 1 in the top nibble, 18 round bits, 14 machine bits, zero below.
// The layout is fixed: changing it moves every seeded crash schedule, and
// with it the faulted oracle digests and checkpoint fingerprints
// (TestCrashSchedulePinned). Fields beyond the packed widths wrap, which
// only folds distinct events together (never breaks determinism); the
// widths cover every scale the simulator is used at.
func crashID(round, machine int) uint64 {
	return 1<<60 | (uint64(round)&0x3FFFF)<<42 | (uint64(machine)&0x3FFF)<<28
}

// SplitMix64 is the SplitMix64 finalizer — a full-avalanche 64-bit mixer,
// shared with internal/chaos's seeded choices.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rollCrash makes the seeded crash decision for one (round, machine): it
// hashes the event identity with the pairwise-independent family
// h_{A,B}(x) = A·x + B over Z/2^64 (A odd, A and B derived from Seed), and
// fires iff the top 53 bits fall below CrashRate. Distinct events get
// pairwise-independent decisions; identical events always decide the same
// way.
func (p *FaultPlan) rollCrash(round, machine int) bool {
	rate := p.CrashRate
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	s := SplitMix64(uint64(p.Seed))
	mulA := SplitMix64(s) | 1
	addB := SplitMix64(s + 1)
	h := mulA*SplitMix64(crashID(round, machine)) + addB
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
	return p.rollCrash(round, machine)
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
