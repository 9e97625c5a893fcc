package mpc

import (
	"errors"
	"fmt"
	"slices"
)

// Checkpointer exposes a driver's per-machine mutable state to the cluster's
// Pregel-style superstep recovery. Snapshot(m) serializes machine m's state
// into machine words; Restore(m, data) overwrites it from a snapshot. The
// cluster snapshots every Config.CheckpointEvery supersteps (charging the
// written words to Stats.CheckpointWords) and, when an injected crash aborts
// a superstep, restores the crashed machine and charges the replay distance
// back to the last checkpoint.
//
// Because machine-local computation is deterministic, replaying the
// superstep log from the last checkpoint reconstructs exactly the state the
// simulator still holds; recovery therefore drives the machine's state
// through a Snapshot/Restore round-trip (exercising both hooks — a lossy
// Snapshot or a buggy Restore corrupts the run and fails the bit-identity
// tests) while the replay's rounds and words are charged to
// Stats.RecoveryRounds and Stats.ReplayedWords.
type Checkpointer interface {
	// Snapshot returns machine m's state as machine words. The returned
	// slice must not alias live driver state.
	Snapshot(m int) []uint64
	// Restore overwrites machine m's state from a Snapshot payload.
	Restore(m int, data []uint64)
}

// FuncCheckpointer adapts two closures to the Checkpointer interface. Both
// closures are required; SetCheckpointer rejects a FuncCheckpointer with a
// nil SnapshotFn or RestoreFn up front, instead of letting the nil surface
// as a panic deep inside crash recovery.
type FuncCheckpointer struct {
	SnapshotFn func(m int) []uint64
	RestoreFn  func(m int, data []uint64)
}

// Snapshot implements Checkpointer.
func (f FuncCheckpointer) Snapshot(m int) []uint64 { return f.SnapshotFn(m) }

// Restore implements Checkpointer.
func (f FuncCheckpointer) Restore(m int, data []uint64) { f.RestoreFn(m, data) }

// incomplete returns a descriptive error when one of the closures is nil.
func (f FuncCheckpointer) incomplete() error {
	switch {
	case f.SnapshotFn == nil && f.RestoreFn == nil:
		return errors.New("mpc: FuncCheckpointer has nil SnapshotFn and RestoreFn")
	case f.SnapshotFn == nil:
		return errors.New("mpc: FuncCheckpointer has nil SnapshotFn (Snapshot would panic during recovery)")
	case f.RestoreFn == nil:
		return errors.New("mpc: FuncCheckpointer has nil RestoreFn (Restore would panic during recovery)")
	}
	return nil
}

// SetCheckpointer registers the driver state hooks used by superstep
// recovery (nil unregisters them). Checkpoints are taken only when
// Config.CheckpointEvery > 0; with no checkpointer (or CheckpointEvery == 0)
// crashes are still recovered, but from the barrier-committed state of the
// previous superstep (replay distance 1), with no state words to restore.
//
// A FuncCheckpointer (or *FuncCheckpointer) with a nil SnapshotFn or
// RestoreFn is rejected here with a descriptive error — the hooks are first
// exercised deep inside crash recovery, where a nil-function panic would be
// maximally confusing.
func (c *Cluster) SetCheckpointer(cp Checkpointer) error {
	switch f := cp.(type) {
	case FuncCheckpointer:
		if err := f.incomplete(); err != nil {
			return err
		}
	case *FuncCheckpointer:
		if f != nil {
			if err := f.incomplete(); err != nil {
				return err
			}
		}
	}
	c.ckpt = cp
	return nil
}

// CheckpointSink persists barrier snapshots durably (beyond the process
// heap, which is all the in-memory recovery path needs). Persist is called
// with the barrier round the state was captured at — the state after round
// committed supersteps — and the per-machine state words, and returns the
// bytes written. *durable.Store is the canonical implementation.
type CheckpointSink interface {
	Persist(round int, state [][]uint64) (int64, error)
}

// ResumeState is a durable checkpoint loaded before a run starts (see
// Config.Resume): the per-machine state words captured at barrier Round.
// The resuming run replays rounds 1..Round deterministically, verifies the
// replayed state against State word-for-word at the matching barrier, and
// then restores State through the Checkpointer — so a lossy durable codec or
// a diverging replay fails loudly (ErrResumeDiverged) instead of silently
// producing a different output.
type ResumeState struct {
	Round int
	State [][]uint64
}

// ErrResumeDiverged is wrapped by the error returned when a resumed run's
// deterministically replayed state does not match the durable checkpoint it
// is resuming from — the checkpoint belongs to a different input, binary or
// configuration than the fingerprint check could detect.
var ErrResumeDiverged = errors.New("mpc: replayed state diverges from durable checkpoint")

// maybeCheckpoint snapshots every machine's state at the superstep barrier
// before round executes: at round 1 (the baseline) and then every
// CheckpointEvery rounds. Written words are charged to CheckpointWords.
//
// With a Config.Sink the snapshot is also persisted durably (bytes charged
// to CheckpointBytes) — except while a resumed run is still replaying rounds
// its checkpoint directory already covers. With a Config.Resume, the barrier
// matching Resume.Round verifies and restores the durable state.
func (c *Cluster) maybeCheckpoint(round int) error {
	if c.ckpt == nil || c.cfg.CheckpointEvery <= 0 {
		return nil
	}
	if c.snapshots != nil && (round-1)%c.cfg.CheckpointEvery != 0 {
		return nil
	}
	if c.snapshots == nil {
		c.snapshots = make([][]uint64, c.cfg.Machines)
	}
	for m := range c.snapshots {
		snap := c.ckpt.Snapshot(m)
		c.snapshots[m] = snap
		c.stats.CheckpointWords += int64(len(snap))
	}
	c.ckptRound = round - 1
	if r := c.cfg.Resume; r != nil && !c.resumeApplied && c.ckptRound == r.Round {
		if err := c.applyResume(r); err != nil {
			return err
		}
	}
	if c.cfg.Sink != nil && !c.inResumeReplay() {
		n, err := c.cfg.Sink.Persist(c.ckptRound, c.snapshots)
		if err != nil {
			return fmt.Errorf("mpc: durable checkpoint at round %d: %w", c.ckptRound, err)
		}
		c.stats.CheckpointBytes += n
	}
	return nil
}

// inResumeReplay reports whether the current checkpoint barrier is still
// inside the replayed prefix of a resumed run: those checkpoints already
// exist durably, so persisting them again would double-write (and
// double-charge CheckpointBytes).
func (c *Cluster) inResumeReplay() bool {
	return c.cfg.Resume != nil && c.ckptRound <= c.cfg.Resume.Round
}

// applyResume runs at the barrier whose round matches the durable
// checkpoint: the deterministic replay of rounds 1..r.Round has just been
// snapshotted into c.snapshots, which must equal the durable state
// word-for-word. The machine state is then driven through Restore with the
// durable payload — exercising the full durable decode path, so a lossy
// codec breaks bit-identity loudly here instead of silently downstream —
// and the replay distance is recorded in Stats.ResumeReplayRounds.
func (c *Cluster) applyResume(r *ResumeState) error {
	if len(r.State) != c.cfg.Machines {
		return fmt.Errorf("%w: checkpoint has %d machines, cluster has %d",
			ErrResumeDiverged, len(r.State), c.cfg.Machines)
	}
	for m := range c.snapshots {
		if !slices.Equal(c.snapshots[m], r.State[m]) {
			return fmt.Errorf("%w: machine %d at round %d (replayed %d words, durable %d words)",
				ErrResumeDiverged, m, r.Round, len(c.snapshots[m]), len(r.State[m]))
		}
	}
	for m := range r.State {
		c.ckpt.Restore(m, slices.Clone(r.State[m]))
		c.snapshots[m] = slices.Clone(r.State[m])
	}
	c.stats.ResumeReplayRounds = r.Round
	c.resumeApplied = true
	return nil
}

// recoverCrashes restarts the machines that crashed during an aborted
// attempt of the given round: their state is restored through the
// Snapshot/Restore hooks (see Checkpointer), the replay distance back to the
// last checkpoint is charged to RecoveryRounds, and the restored state plus
// the aborted attempt's discarded traffic are charged to ReplayedWords. The
// attempt's buffered sends are never delivered; only their word count
// survives, as the replay charge.
func (c *Cluster) recoverCrashes(round int, at *attempt) {
	c.stats.RecoveredCrashes += len(at.crashed)
	replay := 1
	if c.ckpt != nil && c.cfg.CheckpointEvery > 0 {
		if d := round - c.ckptRound; d > replay {
			replay = d
		}
		for _, m := range at.crashed {
			if c.snapshots != nil && c.snapshots[m] != nil {
				c.stats.ReplayedWords += int64(len(c.snapshots[m]))
			}
			c.ckpt.Restore(m, c.ckpt.Snapshot(m))
		}
	}
	c.stats.RecoveryRounds += replay
	at.chargeDiscarded(c)
}
