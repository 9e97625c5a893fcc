package rulingset

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// equivAlgorithms is the full algorithm surface for the serial-vs-parallel
// equivalence matrix: every MPC driver (including the recursive β levels
// and the adaptive escalation, which chain fresh clusters) plus both
// congested-clique ports.
func equivAlgorithms() []algo {
	algos := allAlgorithms()
	algos = append(algos,
		algo{name: "DetRulingAdaptive", beta: 2, run: DetRulingAdaptive},
		algo{name: "CliqueRandRuling2", beta: 2, run: CliqueRandRuling2},
		algo{name: "CliqueDetRuling2", beta: 2, run: CliqueDetRuling2},
	)
	return algos
}

// equivRun executes one configuration and returns everything the bit-identity
// contract covers: members, canonical stats, trace bytes.
func equivRun(t *testing.T, a algo, g *graph.Graph, o Options) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.NewJSONL(&buf)
	o.Tracer = tr
	res, err := a.run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSerialParallelEquivalence is the tentpole acceptance matrix: for every
// algorithm on both simulators, with and without an active fault plan, runs
// at parallelism 2, 4 and GOMAXPROCS return bit-identical members, Stats,
// phase logs and JSONL trace bytes to the serial reference run (parallelism
// 1). Any scheduling dependence in the worker-pool commit path shows up here
// as a diff (and as a flake across repetitions).
func TestSerialParallelEquivalence(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	levels := []int{2, 4}
	if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
		levels = append(levels, p)
	}
	for _, a := range equivAlgorithms() {
		for _, faulty := range []bool{false, true} {
			a, faulty := a, faulty
			name := a.name
			if faulty {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts := Options{Seed: 5}
				if faulty {
					opts.Faults = faultTestPlan()
				}
				serialOpts := opts
				serialOpts.Parallelism = 1
				wantRes, wantTrace := equivRun(t, a, g, serialOpts)
				if len(wantTrace) == 0 {
					t.Fatal("serial run produced an empty trace")
				}
				for _, p := range levels {
					parOpts := opts
					parOpts.Parallelism = p
					gotRes, gotTrace := equivRun(t, a, g, parOpts)
					if !reflect.DeepEqual(gotRes.Members, wantRes.Members) {
						t.Errorf("parallelism %d: members diverge from serial run", p)
					}
					if !reflect.DeepEqual(gotRes.Stats, wantRes.Stats) {
						t.Errorf("parallelism %d: stats diverge from serial run:\n got %+v\nwant %+v", p, gotRes.Stats, wantRes.Stats)
					}
					if !reflect.DeepEqual(gotRes.Phases, wantRes.Phases) {
						t.Errorf("parallelism %d: phase log diverges from serial run", p)
					}
					if !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("parallelism %d: trace bytes diverge from serial run", p)
					}
				}
			})
		}
	}
}

// TestParallelCheckpointAndResumeEquivalence extends the matrix to the
// durable layer: the checkpoint states a parallel run persists are
// word-identical to the serial run's, and a run resumed from a serial
// checkpoint at high parallelism (and vice versa) reproduces the serial
// end-to-end result — checkpoints are portable across parallelism levels,
// which is why Parallelism is in no fingerprint.
func TestParallelCheckpointAndResumeEquivalence(t *testing.T) {
	g := gen.MustBuild("gnp:n=200,p=0.03", 23)
	for _, a := range singleClusterAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			base := Options{Seed: 5, Faults: faultTestPlan(), CheckpointEvery: 2}

			serialSink := &memSink{}
			serialOpts := base
			serialOpts.Parallelism = 1
			serialOpts.CheckpointSink = serialSink
			want, err := a.run(g, serialOpts)
			if err != nil {
				t.Fatal(err)
			}

			parSink := &memSink{}
			parOpts := base
			parOpts.Parallelism = 4
			parOpts.CheckpointSink = parSink
			got, err := a.run(g, parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Members, want.Members) || !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatal("parallel run diverges from serial before the durable comparison")
			}
			if !reflect.DeepEqual(parSink.rounds, serialSink.rounds) {
				t.Fatalf("checkpoint rounds diverge: %v vs %v", parSink.rounds, serialSink.rounds)
			}
			if !reflect.DeepEqual(parSink.states, serialSink.states) {
				t.Fatal("persisted checkpoint states diverge between serial and parallel runs")
			}

			// Cross-parallelism resume: serial checkpoint, parallel replay —
			// and the transpose.
			for _, dir := range []struct {
				name string
				from *memSink
				par  int
			}{
				{"serial-checkpoint/parallel-resume", serialSink, 4},
				{"parallel-checkpoint/serial-resume", parSink, 1},
			} {
				round := dir.from.rounds[len(dir.from.rounds)-1]
				resumeOpts := base
				resumeOpts.Parallelism = dir.par
				resumeOpts.Resume = &mpc.ResumeState{Round: round, State: dir.from.states[round]}
				resumed, err := a.run(g, resumeOpts)
				if err != nil {
					t.Fatalf("%s: %v", dir.name, err)
				}
				if !reflect.DeepEqual(resumed.Members, want.Members) {
					t.Errorf("%s: members diverge", dir.name)
				}
				if !reflect.DeepEqual(resumed.Stats.Canonical(), want.Stats.Canonical()) {
					t.Errorf("%s: stats diverge:\n got %+v\nwant %+v", dir.name, resumed.Stats, want.Stats)
				}
			}
		})
	}
}

// FuzzParallelDeterminism drives the equivalence contract through randomized
// configurations: arbitrary G(n,p) graphs, optional fault plans and both
// simulators, comparing members, canonical stats and trace bytes of runs at
// parallelism 2 and GOMAXPROCS against the serial reference.
func FuzzParallelDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(8), uint8(0), false)
	f.Add(int64(17), uint8(120), uint8(20), uint8(3), true)
	f.Add(int64(42), uint8(200), uint8(40), uint8(8), true)
	f.Add(int64(7), uint8(2), uint8(1), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw, algoRaw uint8, faulty bool) {
		n := 4 + int(nRaw)
		p := float64(1+int(pRaw)%32) / float64(n)
		algos := equivAlgorithms()
		a := algos[int(algoRaw)%len(algos)]
		spec, err := gen.ParseSpec(fmt.Sprintf("gnp:n=%d,p=%g", n, p))
		if err != nil {
			t.Skip(err)
		}
		g, err := spec.Build(seed)
		if err != nil {
			t.Skip(err)
		}
		opts := Options{Seed: seed}
		if faulty {
			opts.Faults = &mpc.FaultPlan{
				Seed:      seed + 1,
				CrashRate: 0.02,
				Crashes:   []mpc.FaultEvent{{Round: 1, Machine: 0}},
			}
		}
		serialOpts := opts
		serialOpts.Parallelism = 1
		wantRes, wantTrace := equivRun(t, a, g, serialOpts)
		levels := []int{2, runtime.GOMAXPROCS(0)}
		for _, par := range levels {
			if par < 2 {
				continue
			}
			parOpts := opts
			parOpts.Parallelism = par
			gotRes, gotTrace := equivRun(t, a, g, parOpts)
			if !reflect.DeepEqual(gotRes.Members, wantRes.Members) {
				t.Fatalf("%s parallelism %d: members diverge from serial", a.name, par)
			}
			if !reflect.DeepEqual(gotRes.Stats, wantRes.Stats) {
				t.Fatalf("%s parallelism %d: stats diverge from serial", a.name, par)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Fatalf("%s parallelism %d: trace bytes diverge from serial", a.name, par)
			}
		}
	})
}
