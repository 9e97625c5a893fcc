package mpc

import (
	"slices"
	"testing"
)

// Coverage for compound crashes — several machines crashing in the same
// round, and crashes landing on the checkpoint-write round. In every case
// the delivered inboxes (and so the algorithm's output) must be
// bit-identical to the fault-free run; only the recovery meters may move.

// TestCompoundCrashesSameRound crashes two machines in the same round: both
// are restored in one recovery and the superstep is replayed once — and the
// delivery is still bit-identical to fault-free.
func TestCompoundCrashesSameRound(t *testing.T) {
	run := func(plan *FaultPlan) ([]uint64, Stats) {
		c, err := NewCluster(Config{Machines: 4, Faults: plan, CheckpointEvery: 2}, 16)
		if err != nil {
			t.Fatal(err)
		}
		state := make([]uint64, 4)
		if err := c.SetCheckpointer(FuncCheckpointer{
			SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
			RestoreFn:  func(m int, data []uint64) { state[m] = data[0] },
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 5; r++ {
			if err := c.Step("echo", echoStep); err != nil {
				t.Fatal(err)
			}
			for m := range state {
				state[m]++
			}
		}
		for m, v := range state {
			if v != 5 {
				t.Fatalf("machine %d state = %d after recovery, want 5", m, v)
			}
		}
		return inboxWords(c.inboxes[0]), c.Stats()
	}

	base, baseStats := run(nil)
	plan := &FaultPlan{
		Seed:    13,
		Crashes: []FaultEvent{{Round: 3, Machine: 1}, {Round: 3, Machine: 2}},
	}
	faulty, st := run(plan)

	if !slices.Equal(base, faulty) {
		t.Fatalf("delivery differs under compound fault: %v vs %v", base, faulty)
	}
	// Both crashes abort the same attempt: one replay recovers them.
	if st.RecoveredCrashes != 2 || st.RecoveryRounds != 1 {
		t.Fatalf("compound accounting = %+v", st)
	}
	// Committed work is bit-identical; only the recovery meters moved.
	if st.Rounds != baseStats.Rounds || st.Words != baseStats.Words || st.Messages != baseStats.Messages {
		t.Fatalf("core stats diverged: %+v vs %+v", st, baseStats)
	}
}

// TestCrashDuringCheckpointRound crashes a machine at exactly a round whose
// barrier writes a checkpoint ((r-1)%CheckpointEvery == 0): the snapshot is
// taken before the superstep executes, so the crash restores the state that
// was just checkpointed and replays one round.
func TestCrashDuringCheckpointRound(t *testing.T) {
	run := func(plan *FaultPlan) ([]uint64, []uint64, Stats) {
		c, err := NewCluster(Config{Machines: 3, Faults: plan, CheckpointEvery: 2}, 9)
		if err != nil {
			t.Fatal(err)
		}
		state := []uint64{10, 20, 30}
		if err := c.SetCheckpointer(FuncCheckpointer{
			SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
			RestoreFn:  func(m int, data []uint64) { state[m] = data[0] },
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 6; r++ {
			if err := c.Step("echo", echoStep); err != nil {
				t.Fatal(err)
			}
			for m := range state {
				state[m]++
			}
		}
		return slices.Clone(state), inboxWords(c.inboxes[0]), c.Stats()
	}

	baseState, baseDelivery, baseStats := run(nil)
	// Round 5 is a checkpoint round: (5-1)%2 == 0. Crash machine 2 there.
	plan := &FaultPlan{Seed: 17, Crashes: []FaultEvent{{Round: 5, Machine: 2}}}
	state, delivery, st := run(plan)

	if !slices.Equal(baseState, state) {
		t.Fatalf("driver state diverged: %v vs %v", baseState, state)
	}
	if !slices.Equal(baseDelivery, delivery) {
		t.Fatalf("delivery diverged: %v vs %v", baseDelivery, delivery)
	}
	if st.RecoveredCrashes != 1 {
		t.Fatalf("crash not recovered: %+v", st)
	}
	// The checkpoint written at the crash round makes the replay distance 0
	// extra rounds beyond the restart itself.
	if st.Rounds != baseStats.Rounds || st.Words != baseStats.Words ||
		st.Messages != baseStats.Messages || st.CheckpointWords != baseStats.CheckpointWords {
		t.Fatalf("committed stats diverged: %+v vs %+v", st, baseStats)
	}
}

// TestCompoundCrashesCheckpointRound crashes two machines on a checkpoint
// round and one of them again in the next round, and still demands
// bit-identical delivery and driver state.
func TestCompoundCrashesCheckpointRound(t *testing.T) {
	run := func(plan *FaultPlan) ([]uint64, []uint64, Stats) {
		c, err := NewCluster(Config{Machines: 3, Faults: plan, CheckpointEvery: 2}, 9)
		if err != nil {
			t.Fatal(err)
		}
		state := []uint64{1, 2, 3}
		if err := c.SetCheckpointer(FuncCheckpointer{
			SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
			RestoreFn:  func(m int, data []uint64) { state[m] = data[0] },
		}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			if err := c.Step("echo", echoStep); err != nil {
				t.Fatal(err)
			}
			for m := range state {
				state[m]++
			}
		}
		return slices.Clone(state), inboxWords(c.inboxes[0]), c.Stats()
	}

	baseState, base, baseStats := run(nil)
	// Round 3 is a checkpoint round: (3-1)%2 == 0.
	plan := &FaultPlan{
		Seed:    23,
		Crashes: []FaultEvent{{Round: 3, Machine: 0}, {Round: 3, Machine: 1}, {Round: 4, Machine: 1}},
	}
	state, faulty, st := run(plan)
	if !slices.Equal(baseState, state) {
		t.Fatalf("driver state diverged: %v vs %v", baseState, state)
	}
	if !slices.Equal(base, faulty) {
		t.Fatalf("delivery differs: %v vs %v", base, faulty)
	}
	if st.RecoveredCrashes != 3 {
		t.Fatalf("crashes not recovered: %+v", st)
	}
	if st.Rounds != baseStats.Rounds || st.Words != baseStats.Words ||
		st.Messages != baseStats.Messages || st.CheckpointWords != baseStats.CheckpointWords {
		t.Fatalf("committed stats diverged: %+v vs %+v", st, baseStats)
	}
}
