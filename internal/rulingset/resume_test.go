package rulingset

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// memSink is an in-memory CheckpointSink for tests that don't need the disk.
type memSink struct {
	rounds []int
	states map[int][][]uint64
}

func (s *memSink) Persist(round int, state [][]uint64) (int64, error) {
	if s.states == nil {
		s.states = make(map[int][][]uint64)
	}
	cp := make([][]uint64, len(state))
	var n int64
	for m, words := range state {
		cp[m] = slices.Clone(words)
		n += int64(8 * len(words))
	}
	s.rounds = append(s.rounds, round)
	s.states[round] = cp
	return n, nil
}

// cancelAfterSink cancels a context once it has persisted k checkpoints —
// a deterministic stand-in for "the process was killed mid-run": the cancel
// lands at a checkpoint barrier, the run stops with a structured error, and
// the durable directory holds everything written so far.
type cancelAfterSink struct {
	mpc.CheckpointSink
	cancel context.CancelFunc
	left   int
}

func (s *cancelAfterSink) Persist(round int, state [][]uint64) (int64, error) {
	n, err := s.CheckpointSink.Persist(round, state)
	if err == nil {
		if s.left--; s.left <= 0 {
			s.cancel()
		}
	}
	return n, err
}

// singleClusterAlgos are the drivers that support durable checkpointing:
// every MPC driver, the multi-level ones included, since all their levels
// run on one cluster.
func singleClusterAlgos() []algo {
	return []algo{
		{name: "LubyMIS", beta: 1, run: LubyMIS},
		{name: "DetLubyMIS", beta: 1, run: DetLubyMIS},
		{name: "RandRuling2", beta: 2, run: RandRuling2},
		{name: "DetRuling2", beta: 2, run: DetRuling2},
		{name: "RandRulingBeta3", beta: 3, run: func(g *graph.Graph, o Options) (Result, error) { return RandRulingBeta(g, 3, o) }},
		{name: "DetRulingBeta3", beta: 3, run: func(g *graph.Graph, o Options) (Result, error) { return DetRulingBeta(g, 3, o) }},
		{name: "DetRulingBeta4", beta: 4, run: func(g *graph.Graph, o Options) (Result, error) { return DetRulingBeta(g, 4, o) }},
		{name: "DetRulingAdaptive", run: DetRulingAdaptive},
	}
}

// levelView returns the round of a trace's first level view (beta/view or
// adaptive/view), or 0 when the run has one level.
func levelView(log trace.Log) int {
	for _, ev := range log {
		if ev.Step == "beta/view" || ev.Step == "adaptive/view" {
			return ev.Round
		}
	}
	return 0
}

// TestDurableResumeReproducesRun is the tentpole acceptance test at the
// algorithm level: a run is durably checkpointed, "killed" at a checkpoint
// barrier via cooperative cancellation, resumed from the newest valid
// checkpoint on disk — and the resumed run's ruling set and deterministic
// Stats are identical to an uninterrupted run's, with and without an active
// FaultPlan. A multi-level run is killed after its first level view, so
// the resume replays a level change.
func TestDurableResumeReproducesRun(t *testing.T) {
	g := gen.MustBuild("gnp:n=200,p=0.03", 29)
	for _, a := range singleClusterAlgos() {
		for _, faults := range []*mpc.FaultPlan{nil, faultTestPlan()} {
			a, faults := a, faults
			name := a.name
			if faults != nil {
				name += "/under-faults"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := filepath.Join(t.TempDir(), "ckpt")

				// Uninterrupted reference run. It checkpoints on the same
				// cadence (CheckpointWords is part of the deterministic
				// stats), just never into the directory under test.
				var log trace.Log
				ref := &memSink{}
				want, err := a.run(g, Options{Seed: 5, Faults: faults, CheckpointEvery: 2, CheckpointSink: ref, Tracer: &log})
				if err != nil {
					t.Fatal(err)
				}
				view := levelView(log)
				if multiLevel := a.beta == 0 || a.beta > 2; multiLevel && view == 0 { // beta 0: adaptive
					t.Fatal("multi-level run has no level view round")
				}
				left := 2
				for left <= len(ref.rounds) && ref.rounds[left-1] <= view {
					left++
				}

				// Interrupted run: durable checkpoints, canceled after left
				// persists, the last of them after the first level view.
				store, err := durable.Open(dir, "fp-"+a.name, 0)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err = a.run(g, Options{
					Seed:            5,
					Faults:          faults,
					CheckpointEvery: 2,
					Context:         ctx,
					CheckpointSink:  &cancelAfterSink{CheckpointSink: store, cancel: cancel, left: left},
				})
				if !errors.Is(err, mpc.ErrCanceled) {
					t.Fatalf("interrupted run err = %v, want ErrCanceled", err)
				}
				var ce *mpc.CancelError
				if !errors.As(err, &ce) || ce.Round <= view {
					t.Fatalf("interrupted run err = %v, want CancelError after round %d", err, view)
				}

				// Resume from the newest durable checkpoint.
				store2, err := durable.Open(dir, "fp-"+a.name, 0)
				if err != nil {
					t.Fatal(err)
				}
				meta, state, err := store2.LoadLatest()
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.run(g, Options{
					Seed:            5,
					Faults:          faults,
					CheckpointEvery: 2,
					CheckpointSink:  store2,
					Resume:          &mpc.ResumeState{Round: meta.Round, State: state},
				})
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}

				if !reflect.DeepEqual(want.Members, got.Members) {
					t.Fatalf("resumed members diverged:\nwant %v\ngot  %v", want.Members, got.Members)
				}
				if !reflect.DeepEqual(want.Stats.Canonical(), got.Stats.Canonical()) {
					t.Fatalf("resumed deterministic stats diverged:\nwant %+v\ngot  %+v", want.Stats, got.Stats)
				}
				if got.Stats.ResumeReplayRounds != meta.Round {
					t.Fatalf("ResumeReplayRounds = %d, want %d", got.Stats.ResumeReplayRounds, meta.Round)
				}
			})
		}
	}
}

// TestResumeSurvivesTornNewestCheckpoint tears the newest checkpoint file
// after the interruption: LoadLatest must fall back to the previous valid
// one, and the resume must still reproduce the uninterrupted run.
func TestResumeSurvivesTornNewestCheckpoint(t *testing.T) {
	g := gen.MustBuild("gnp:n=150,p=0.04", 31)
	dir := filepath.Join(t.TempDir(), "ckpt")

	want, err := DetRuling2(g, Options{Seed: 7, CheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}

	store, err := durable.Open(dir, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = DetRuling2(g, Options{
		Seed: 7, CheckpointEvery: 2, Context: ctx,
		CheckpointSink: &cancelAfterSink{CheckpointSink: store, cancel: cancel, left: 3},
	})
	if !errors.Is(err, mpc.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	// Tear the newest checkpoint mid-record (simulating a crash during the
	// write that rename-atomicity normally prevents, or post-crash bit rot).
	store2, err := durable.Open(dir, "fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	metaBefore, _, err := store2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if err := tearNewest(t, dir); err != nil {
		t.Fatal(err)
	}
	meta, state, err := store2.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Round >= metaBefore.Round {
		t.Fatalf("fallback did not move back: %d -> %d", metaBefore.Round, meta.Round)
	}

	got, err := DetRuling2(g, Options{
		Seed: 7, CheckpointEvery: 2, CheckpointSink: store2,
		Resume: &mpc.ResumeState{Round: meta.Round, State: state},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Members, got.Members) {
		t.Fatalf("members diverged after torn-checkpoint fallback:\nwant %v\ngot  %v", want.Members, got.Members)
	}
}

// TestDurableRejectedByCliqueDrivers pins the gate: the congested-clique
// drivers cannot honor a durable checkpoint or resume and must say so
// instead of silently ignoring the options.
func TestDurableRejectedByCliqueDrivers(t *testing.T) {
	g := gen.MustBuild("gnp:n=60,p=0.1", 3)
	for _, o := range []Options{
		{Seed: 1, CheckpointEvery: 2, CheckpointSink: &memSink{}},
		{Seed: 1, CheckpointEvery: 2, Resume: &mpc.ResumeState{Round: 2, State: [][]uint64{{1}}}},
	} {
		for _, a := range []algo{
			{name: "CliqueRandRuling2", run: CliqueRandRuling2},
			{name: "CliqueDetRuling2", run: CliqueDetRuling2},
		} {
			_, err := a.run(g, o)
			if err == nil || !containsStr(err.Error(), "does not support durable") {
				t.Errorf("%s: err = %v, want the durable gate", a.name, err)
			}
		}
	}
}

// TestCancellationIsStructured pins the structured-degradation contract at
// the algorithm level: a canceled run returns a *mpc.CancelError whose Stats
// describe the committed prefix, and never a partial Result.
func TestCancellationIsStructured(t *testing.T) {
	g := gen.MustBuild("gnp:n=150,p=0.04", 13)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &memSink{}
	_, err := DetLubyMIS(g, Options{
		Seed: 2, CheckpointEvery: 1, Context: ctx,
		CheckpointSink: &cancelAfterSink{CheckpointSink: sink, cancel: cancel, left: 3},
	})
	var ce *mpc.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *mpc.CancelError", err)
	}
	if ce.Round < 3 || ce.Stats.Rounds != ce.Round {
		t.Fatalf("CancelError = round %d stats %+v", ce.Round, ce.Stats)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
}

// FuzzResumeDeterminism is the tentpole fuzzer: for arbitrary (seed, size,
// algorithm, checkpoint cadence, interruption point, crash rate), resuming
// from any persisted checkpoint reproduces the uninterrupted run's members
// and deterministic stats exactly.
func FuzzResumeDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), uint8(2), uint8(0), float64(0))
	f.Add(int64(9), uint8(70), uint8(1), uint8(1), uint8(1), float64(0.1))
	f.Add(int64(-4), uint8(25), uint8(2), uint8(3), uint8(2), float64(0.05))
	f.Add(int64(33), uint8(55), uint8(3), uint8(2), uint8(5), float64(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, algoPick, ckptRaw, resumePick uint8, crashRate float64) {
		if crashRate < 0 || crashRate > 1 {
			t.Skip()
		}
		n := int(nRaw)%60 + 2
		g := gen.MustBuild("gnp:n="+strconv.Itoa(n)+",p=0.1", seed)
		algos := singleClusterAlgos()
		a := algos[int(algoPick)%len(algos)]
		var plan *mpc.FaultPlan
		if crashRate > 0 {
			// Scaled down to keep retry loops short.
			plan = &mpc.FaultPlan{Seed: seed, CrashRate: crashRate / 4, Crashes: []mpc.FaultEvent{{Round: 2, Machine: 0}}}
		}
		opts := Options{Seed: seed, Machines: 4, CheckpointEvery: int(ckptRaw)%3 + 1, Faults: plan}

		sink := &memSink{}
		full := opts
		full.CheckpointSink = sink
		want, err := a.run(g, full)
		if err != nil {
			t.Skip() // invalid configs are FuzzFaultDeterminism's business
		}
		if len(sink.rounds) == 0 {
			t.Skip()
		}
		round := sink.rounds[int(resumePick)%len(sink.rounds)]

		resumed := opts
		resumed.Resume = &mpc.ResumeState{Round: round, State: sink.states[round]}
		got, err := a.run(g, resumed)
		if err != nil {
			t.Fatalf("resume from round %d: %v", round, err)
		}
		if !reflect.DeepEqual(want.Members, got.Members) {
			t.Fatalf("resume from round %d changed members: %v vs %v", round, want.Members, got.Members)
		}
		if !reflect.DeepEqual(want.Stats.Canonical(), got.Stats.Canonical()) {
			t.Fatalf("resume from round %d changed stats:\nwant %+v\ngot  %+v", round, want.Stats, got.Stats)
		}
		if got.Stats.ResumeReplayRounds != round {
			t.Fatalf("ResumeReplayRounds = %d, want %d", got.Stats.ResumeReplayRounds, round)
		}
	})
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// tearNewest truncates the newest checkpoint file in dir to half its size.
func tearNewest(t *testing.T, dir string) error {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return errors.New("no checkpoint files to tear")
	}
	slices.Sort(names)
	newest := names[len(names)-1]
	info, err := os.Stat(newest)
	if err != nil {
		return err
	}
	return os.Truncate(newest, info.Size()/2)
}
