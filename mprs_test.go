package mprs_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	mprs "github.com/rulingset/mprs"
)

func buildTestGraph(t *testing.T) *mprs.Graph {
	t.Helper()
	g, err := mprs.BuildGraph("gnp:n=400,p=0.015", 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := buildTestGraph(t)
	tests := []struct {
		name string
		beta int
		run  func() (mprs.Result, error)
	}{
		{name: "MIS", beta: 1, run: func() (mprs.Result, error) { return mprs.MIS(g, mprs.Options{Seed: 1}) }},
		{name: "DetMIS", beta: 1, run: func() (mprs.Result, error) { return mprs.DetMIS(g, mprs.Options{}) }},
		{name: "RulingSet2", beta: 2, run: func() (mprs.Result, error) { return mprs.RulingSet2(g, mprs.Options{Seed: 1}) }},
		{name: "DetRulingSet2", beta: 2, run: func() (mprs.Result, error) { return mprs.DetRulingSet2(g, mprs.Options{}) }},
		{name: "RulingSet3", beta: 3, run: func() (mprs.Result, error) { return mprs.RulingSet(g, 3, mprs.Options{Seed: 1}) }},
		{name: "DetRulingSet3", beta: 3, run: func() (mprs.Result, error) { return mprs.DetRulingSet(g, 3, mprs.Options{}) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := tt.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Beta != tt.beta {
				t.Fatalf("beta = %d, want %d", res.Beta, tt.beta)
			}
			if err := mprs.Check(g, res); err != nil {
				t.Fatal(err)
			}
			if !mprs.IsRulingSet(g, res.Members, tt.beta) {
				t.Fatal("IsRulingSet disagrees with Check")
			}
			if r := mprs.RulingRadius(g, res.Members); r > tt.beta || r < 0 {
				t.Fatalf("radius %d outside [0,%d]", r, tt.beta)
			}
		})
	}
}

func TestPublicAPINewGraphAndGreedy(t *testing.T) {
	g, err := mprs.NewGraph(4, []mprs.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	mis := mprs.GreedyMIS(g)
	if !mprs.IsIndependent(g, mis) || !mprs.IsRulingSet(g, mis, 1) {
		t.Fatalf("greedy output %v invalid", mis)
	}
}

// TestPublicAPIDeterminism: machine count and seed leave the deterministic
// output unchanged at a chunk width that both machine counts admit (the seed
// search clamps z to ⌊log₂(S/M)⌋, 7 at M = 11 here).
func TestPublicAPIDeterminism(t *testing.T) {
	g := buildTestGraph(t)
	a, err := mprs.DetRulingSet2(g, mprs.Options{Machines: 3, ChunkBits: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mprs.DetRulingSet2(g, mprs.Options{Machines: 11, Seed: 123, ChunkBits: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members, b.Members) {
		t.Fatal("deterministic algorithm output varied")
	}
}

func TestPublicAPIBadSpec(t *testing.T) {
	if _, err := mprs.BuildGraph("martian:n=10", 0); err == nil {
		t.Fatal("unknown family accepted")
	}
}

func TestPublicAPISublinearRegime(t *testing.T) {
	g := buildTestGraph(t)
	res, err := mprs.RulingSet2(g, mprs.Options{Regime: mprs.RegimeSublinear, Epsilon: 0.6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mprs.Check(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAdaptive(t *testing.T) {
	g := buildTestGraph(t)
	res, err := mprs.DetRulingSetAdaptive(g, mprs.Options{ResidualBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Beta != 1 {
		t.Fatalf("huge budget beta = %d", res.Beta)
	}
	if err := mprs.Check(g, res); err != nil {
		t.Fatal(err)
	}
	tight, err := mprs.RulingSetAdaptive(g, mprs.Options{ResidualBudget: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mprs.Check(g, tight); err != nil {
		t.Fatal(err)
	}
	if tight.Beta < res.Beta {
		t.Fatalf("tight budget chose smaller beta (%d < %d)", tight.Beta, res.Beta)
	}
}

func TestPublicAPIClique(t *testing.T) {
	g := buildTestGraph(t)
	det, err := mprs.CliqueDetRulingSet2(g, mprs.Options{ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !mprs.IsRulingSet(g, det.Members, 2) {
		t.Fatal("clique det output invalid")
	}
	rnd, err := mprs.CliqueRulingSet2(g, mprs.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !mprs.IsRulingSet(g, rnd.Members, 2) {
		t.Fatal("clique rand output invalid")
	}
}

func TestPublicAPICheckDistributed(t *testing.T) {
	g := buildTestGraph(t)
	res, err := mprs.DetRulingSet2(g, mprs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := mprs.CheckDistributed(g, res.Members, 2, mprs.Options{Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 || rounds > 5 {
		t.Fatalf("distributed verification used %d rounds", rounds)
	}
	if _, err := mprs.CheckDistributed(g, []int32{0, 1, 2, 3, 4, 5}, 1, mprs.Options{}); err == nil {
		t.Fatal("bogus set accepted")
	}
}

// TestPublicAPIDurableResume exercises the exported durable-checkpoint
// surface: OpenCheckpointDir as the CheckpointSink of a run, cooperative
// cancellation mid-run, and a ResumeState restart that reproduces the
// uninterrupted output bit for bit.
func TestPublicAPIDurableResume(t *testing.T) {
	g := buildTestGraph(t)
	opts := func() mprs.Options {
		return mprs.Options{ChunkBits: 4, CheckpointEvery: 2}
	}

	dir := t.TempDir()
	const fp = "public-api-test"
	store, err := mprs.OpenCheckpointDir(dir, fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := opts()
	full.CheckpointSink = store
	ref, err := mprs.DetRulingSet2(g, full)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.CheckpointBytes == 0 {
		t.Fatal("no durable bytes accounted")
	}

	// Cancellation is structured in both models: sentinel, committed round,
	// stats.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := opts()
	canceled.Context = ctx
	for _, tc := range []struct {
		name string
		run  func(*mprs.Graph, mprs.Options) (mprs.Result, error)
		o    mprs.Options
	}{
		{"DetRulingSet2", mprs.DetRulingSet2, canceled},
		{"CliqueRulingSet2", mprs.CliqueRulingSet2, mprs.Options{Context: ctx}},
		{"CliqueDetRulingSet2", mprs.CliqueDetRulingSet2, mprs.Options{ChunkBits: 4, Context: ctx}},
	} {
		_, err := tc.run(g, tc.o)
		if !errors.Is(err, mprs.ErrCanceled) {
			t.Fatalf("%s: canceled run returned %v, want ErrCanceled", tc.name, err)
		}
		var ce *mprs.CancelError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: no CancelError in %v", tc.name, err)
		}
		if ce.Stats.Rounds != ce.Round {
			t.Fatalf("%s: CancelError at round %d carries %d committed rounds", tc.name, ce.Round, ce.Stats.Rounds)
		}
	}

	// Restart from the newest durable checkpoint.
	reopened, err := mprs.OpenCheckpointDir(dir, fp, 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, state, err := reopened.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	resumed := opts()
	resumed.CheckpointSink = reopened
	resumed.Resume = &mprs.ResumeState{Round: meta.Round, State: state}
	res, err := mprs.DetRulingSet2(g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Members, res.Members) {
		t.Fatal("resumed members differ from uninterrupted run")
	}
	if res.Stats.ResumeReplayRounds != meta.Round {
		t.Fatalf("ResumeReplayRounds = %d, want %d", res.Stats.ResumeReplayRounds, meta.Round)
	}
}

// TestPublicAPIFaultPlan exercises ParseFaultPlan: an empty spec disables
// faults, a machine: crash is recovered without changing the output, and
// every other layer or removed machine fault is rejected.
func TestPublicAPIFaultPlan(t *testing.T) {
	g := buildTestGraph(t)
	ref, err := mprs.DetRulingSet2(g, mprs.Options{ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("empty", func(t *testing.T) {
		plan, err := mprs.ParseFaultPlan("", 7)
		if err != nil || plan != nil {
			t.Fatalf("empty spec: plan %v, err %v; want nil, nil", plan, err)
		}
	})
	t.Run("crash", func(t *testing.T) {
		plan, err := mprs.ParseFaultPlan("machine:crash@2:1", 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mprs.DetRulingSet2(g, mprs.Options{ChunkBits: 4, Faults: plan, CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Members, res.Members) {
			t.Fatal("members changed under a recovered crash")
		}
		if res.Stats.RecoveredCrashes != 1 {
			t.Fatalf("RecoveredCrashes = %d, want 1", res.Stats.RecoveredCrashes)
		}
	})
	for _, bad := range []struct{ name, spec string }{
		{name: "wire layer", spec: "wire:drop=0.1"},
		{name: "machine drop", spec: "machine:drop=0.1"},
		{name: "bad rate", spec: "machine:crash=two"},
	} {
		t.Run(bad.name, func(t *testing.T) {
			if plan, err := mprs.ParseFaultPlan(bad.spec, 7); err == nil {
				t.Fatalf("spec %q accepted as %v", bad.spec, plan)
			}
		})
	}
}

// TestPublicAPITraceSinks runs one algorithm into each exported tracer: the
// JSON Lines stream is one line per committed round and byte-identical
// across runs, and the ring keeps only the newest events while counting all.
func TestPublicAPITraceSinks(t *testing.T) {
	g := buildTestGraph(t)
	t.Run("jsonl", func(t *testing.T) {
		stream := func() (string, int) {
			var buf bytes.Buffer
			tr := mprs.NewJSONLTrace(&buf)
			res, err := mprs.DetRulingSet2(g, mprs.Options{ChunkBits: 4, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.String(), res.Stats.Rounds
		}
		a, rounds := stream()
		b, _ := stream()
		if a != b {
			t.Fatal("JSONL trace differs between identical runs")
		}
		if lines := strings.Count(a, "\n"); lines != rounds {
			t.Fatalf("%d trace lines for %d rounds", lines, rounds)
		}
	})
	t.Run("ring", func(t *testing.T) {
		const keep = 3
		ring := mprs.NewTraceRing(keep)
		res, err := mprs.DetRulingSet2(g, mprs.Options{ChunkBits: 4, Tracer: ring})
		if err != nil {
			t.Fatal(err)
		}
		rounds := res.Stats.Rounds
		if rounds <= keep {
			t.Fatalf("only %d rounds; the ring never wraps", rounds)
		}
		if ring.Total() != rounds {
			t.Fatalf("ring saw %d events for %d rounds", ring.Total(), rounds)
		}
		evs := ring.Events()
		if len(evs) != keep {
			t.Fatalf("ring kept %d events, want %d", len(evs), keep)
		}
		for i, ev := range evs {
			if want := rounds - keep + 1 + i; ev.Round != want {
				t.Fatalf("kept event %d has round %d, want %d", i, ev.Round, want)
			}
		}
	})
}
