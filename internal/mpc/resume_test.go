package mpc

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// recordingSink captures every durable persist in memory.
type recordingSink struct {
	rounds []int
	states map[int][][]uint64
	fail   bool
}

func (s *recordingSink) Persist(round int, state [][]uint64) (int64, error) {
	if s.fail {
		return 0, errors.New("disk full")
	}
	if s.states == nil {
		s.states = make(map[int][][]uint64)
	}
	cp := make([][]uint64, len(state))
	var bytes int64
	for m, words := range state {
		cp[m] = slices.Clone(words)
		bytes += int64(8 * len(words))
	}
	s.rounds = append(s.rounds, round)
	s.states[round] = cp
	return bytes, nil
}

// counterDriver runs `rounds` supersteps over per-machine counters, bumping
// each counter after its step commits (the repo's driver discipline), and
// registers the counters as checkpoint state.
func counterDriver(t *testing.T, c *Cluster, rounds int) []uint64 {
	t.Helper()
	state := make([]uint64, c.Machines())
	for m := range state {
		state[m] = uint64(100 * (m + 1))
	}
	err := c.SetCheckpointer(FuncCheckpointer{
		SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
		RestoreFn:  func(m int, data []uint64) { state[m] = data[0] },
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := c.Step("tick", echoStep); err != nil {
			t.Fatal(err)
		}
		for m := range state {
			state[m] += uint64(m + 1)
		}
	}
	return state
}

func TestSinkPersistsEveryCheckpoint(t *testing.T) {
	sink := &recordingSink{}
	c, err := NewCluster(Config{Machines: 3, CheckpointEvery: 2, Sink: sink}, 9)
	if err != nil {
		t.Fatal(err)
	}
	final := counterDriver(t, c, 5)
	// Checkpoints fire at the barriers before rounds 1, 3 and 5 — i.e. the
	// state after rounds 0, 2 and 4.
	if want := []int{0, 2, 4}; !slices.Equal(sink.rounds, want) {
		t.Fatalf("persisted rounds %v, want %v", sink.rounds, want)
	}
	st := c.Stats()
	if st.CheckpointBytes != 3*3*8 {
		t.Fatalf("CheckpointBytes = %d, want %d", st.CheckpointBytes, 3*3*8)
	}
	if st.ResumeReplayRounds != 0 {
		t.Fatalf("fresh run has ResumeReplayRounds = %d", st.ResumeReplayRounds)
	}
	// The round-4 checkpoint holds the state after 4 bumps.
	for m, words := range sink.states[4] {
		want := uint64(100*(m+1)) + uint64(4*(m+1))
		if len(words) != 1 || words[0] != want {
			t.Fatalf("checkpoint state machine %d = %v, want [%d]", m, words, want)
		}
	}
	_ = final
}

func TestSinkErrorSurfacesFromStep(t *testing.T) {
	sink := &recordingSink{fail: true}
	c, err := NewCluster(Config{Machines: 2, CheckpointEvery: 2, Sink: sink}, 4)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{1, 2}
	if err := c.SetCheckpointer(FuncCheckpointer{
		SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
		RestoreFn:  func(m int, data []uint64) { state[m] = data[0] },
	}); err != nil {
		t.Fatal(err)
	}
	err = c.Step("tick", echoStep)
	if err == nil || !contains(err.Error(), "durable checkpoint") {
		t.Fatalf("sink failure err = %v", err)
	}
}

// TestResumeReproducesRun is the in-process kill-then-resume drill: a full
// run persists durable checkpoints; a second run resumes from one of them
// and must produce byte-identical final state and identical deterministic
// stats, with only the resume-overhead counters differing.
func TestResumeReproducesRun(t *testing.T) {
	for _, faults := range []*FaultPlan{nil, {Seed: 5, Crashes: []FaultEvent{{Round: 3, Machine: 1}, {Round: 2, Machine: 0}}}} {
		name := "fault-free"
		if faults != nil {
			name = "under-faults"
		}
		t.Run(name, func(t *testing.T) {
			sink := &recordingSink{}
			c1, err := NewCluster(Config{Machines: 3, CheckpointEvery: 2, Sink: sink, Faults: faults}, 9)
			if err != nil {
				t.Fatal(err)
			}
			fullState := counterDriver(t, c1, 7)
			fullStats := c1.Stats()

			// "Restart the process" from the round-4 checkpoint: a fresh
			// cluster replays from scratch, verifies at the matching barrier,
			// and restores the durable state.
			resume := &ResumeState{Round: 4, State: sink.states[4]}
			sink2 := &recordingSink{}
			c2, err := NewCluster(Config{Machines: 3, CheckpointEvery: 2, Sink: sink2, Resume: resume, Faults: faults}, 9)
			if err != nil {
				t.Fatal(err)
			}
			resumedState := counterDriver(t, c2, 7)
			resumedStats := c2.Stats()

			if !slices.Equal(fullState, resumedState) {
				t.Fatalf("final state diverged: full %v, resumed %v", fullState, resumedState)
			}
			if resumedStats.ResumeReplayRounds != 4 {
				t.Fatalf("ResumeReplayRounds = %d, want 4", resumedStats.ResumeReplayRounds)
			}
			// The resumed run persists only checkpoints past the resume point.
			if want := []int{6}; !slices.Equal(sink2.rounds, want) {
				t.Fatalf("resumed run persisted rounds %v, want %v", sink2.rounds, want)
			}
			// Deterministic stats are identical; only the resume-overhead
			// counters (CheckpointBytes, ResumeReplayRounds) may differ.
			a, b := fullStats, resumedStats
			a.CheckpointBytes, b.CheckpointBytes = 0, 0
			a.ResumeReplayRounds, b.ResumeReplayRounds = 0, 0
			if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
				t.Fatalf("deterministic stats diverged:\nfull    %+v\nresumed %+v", a, b)
			}
		})
	}
}

func TestResumeDivergenceDetected(t *testing.T) {
	sink := &recordingSink{}
	c1, err := NewCluster(Config{Machines: 2, CheckpointEvery: 2, Sink: sink}, 4)
	if err != nil {
		t.Fatal(err)
	}
	counterDriver(t, c1, 5)

	tampered := sink.states[2]
	tampered[1][0] ^= 1 // flip one bit of machine 1's durable state
	c2, err := NewCluster(Config{Machines: 2, CheckpointEvery: 2, Resume: &ResumeState{Round: 2, State: tampered}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	state := []uint64{100, 200}
	if err := c2.SetCheckpointer(FuncCheckpointer{
		SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
		RestoreFn:  func(m int, data []uint64) { state[m] = data[0] },
	}); err != nil {
		t.Fatal(err)
	}
	var stepErr error
	for r := 0; r < 5 && stepErr == nil; r++ {
		stepErr = c2.Step("tick", echoStep)
		for m := range state {
			state[m] += uint64(m + 1)
		}
	}
	if !errors.Is(stepErr, ErrResumeDiverged) {
		t.Fatalf("err = %v, want ErrResumeDiverged", stepErr)
	}
}

func TestResumeConfigValidation(t *testing.T) {
	state := [][]uint64{{1}, {2}}
	if _, err := NewCluster(Config{Machines: 2, Resume: &ResumeState{Round: 2, State: state}}, 4); err == nil {
		t.Fatal("Resume without CheckpointEvery accepted")
	}
	if _, err := NewCluster(Config{Machines: 3, CheckpointEvery: 2, Resume: &ResumeState{Round: 2, State: state}}, 4); err == nil {
		t.Fatal("Resume with wrong machine count accepted")
	}
	if _, err := NewCluster(Config{Machines: 2, CheckpointEvery: 2, Resume: &ResumeState{Round: -1, State: state}}, 4); err == nil {
		t.Fatal("Resume with negative round accepted")
	}
	if _, err := NewCluster(Config{Machines: 2, CheckpointEvery: 2, Resume: &ResumeState{Round: 2, State: state}}, 4); err != nil {
		t.Fatalf("valid resume config rejected: %v", err)
	}
}

func TestSetCheckpointerValidation(t *testing.T) {
	c, err := NewCluster(Config{Machines: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	snap := func(m int) []uint64 { return nil }
	rest := func(m int, data []uint64) {}
	cases := []struct {
		name string
		cp   Checkpointer
		want string
	}{
		{"nil snapshot", FuncCheckpointer{RestoreFn: rest}, "nil SnapshotFn"},
		{"nil restore", FuncCheckpointer{SnapshotFn: snap}, "nil RestoreFn"},
		{"both nil", FuncCheckpointer{}, "nil SnapshotFn and RestoreFn"},
		{"pointer nil snapshot", &FuncCheckpointer{RestoreFn: rest}, "nil SnapshotFn"},
	}
	for _, tc := range cases {
		err := c.SetCheckpointer(tc.cp)
		if err == nil || !contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := c.SetCheckpointer(FuncCheckpointer{SnapshotFn: snap, RestoreFn: rest}); err != nil {
		t.Fatalf("complete FuncCheckpointer rejected: %v", err)
	}
	if err := c.SetCheckpointer(nil); err != nil {
		t.Fatalf("unregistering rejected: %v", err)
	}
}
