package rulingset

import (
	"bytes"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/trace"
)

// tracedRun executes one algorithm with a JSONL tracer attached and returns
// the raw trace bytes.
func tracedRun(t *testing.T, run func(*graph.Graph, Options) (Result, error), g *graph.Graph, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.NewJSONL(&buf)
	o.Tracer = tr
	if _, err := run(g, o); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteDeterminism is the bit-determinism contract of the
// observability layer: running any algorithm twice with identical inputs
// produces byte-identical JSONL traces — with and without an active fault
// plan (recovery is deterministic too, and metered in the same events).
func TestTraceByteDeterminism(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	for _, a := range allAlgorithms() {
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
				first := tracedRun(t, a.run, g, opts)
				if len(first) == 0 {
					t.Fatal("empty trace")
				}
				second := tracedRun(t, a.run, g, opts)
				if !bytes.Equal(first, second) {
					t.Fatal("traces of identical runs differ byte-for-byte")
				}
				// Every event carries a span annotation, and the phase spans
				// show up on every MPC algorithm. (Luby's finish phase is
				// purely local — no superstep carries that span there.)
				if !bytes.Contains(first, []byte(`"span":"sparsify"`)) {
					t.Error("trace missing sparsify span")
				}
				if !strings.Contains(a.name, "Luby") && !bytes.Contains(first, []byte(`"span":"finish"`)) {
					t.Error("trace missing finish span")
				}
				if faulty && !bytes.Contains(first, []byte(`"crashes":`)) {
					t.Error("faulty trace records no crash recovery")
				}
			})
		}
	}
}

// TestCliqueTraceByteDeterminism covers the congested-clique simulator end of
// the same contract.
func TestCliqueTraceByteDeterminism(t *testing.T) {
	g := gen.MustBuild("gnp:n=200,p=0.03", 23)
	algos := []struct {
		name string
		run  func(*graph.Graph, Options) (CliqueResult, error)
	}{
		{name: "CliqueRandRuling2", run: CliqueRandRuling2},
		{name: "CliqueDetRuling2", run: CliqueDetRuling2},
	}
	for _, a := range algos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			render := func() string {
				var buf bytes.Buffer
				tr := trace.NewJSONL(&buf)
				if _, err := a.run(g, Options{Seed: 5, Tracer: tr}); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			first := render()
			if first == "" {
				t.Fatal("empty trace")
			}
			if second := render(); second != first {
				t.Fatal("traces of identical runs differ byte-for-byte")
			}
			for _, span := range []string{`"span":"sparsify"`, `"span":"gather"`} {
				if !strings.Contains(first, span) {
					t.Errorf("trace missing %s", span)
				}
			}
		})
	}
}

// TestViewCarriedAcrossPhases pins the marking loops' view exchange: a
// fresh loop marks its first phase on the graph's own rows, so no view
// round runs before the loop's first dominate (Luby: knockout) round, and
// each later phase refreshes the view once, so a loop of k phases runs
// k − 1 view rounds and k dominate rounds.
func TestViewCarriedAcrossPhases(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.03", 19)
	cases := []struct {
		name, view, dominate string
		run                  func(o Options) ([]PhaseStat, error)
	}{
		{"LubyMIS", "luby/view", "luby/knockout", func(o Options) ([]PhaseStat, error) {
			r, err := LubyMIS(g, o)
			return r.Phases, err
		}},
		{"DetRuling2", "sparsify/view", "sparsify/dominate", func(o Options) ([]PhaseStat, error) {
			r, err := DetRuling2(g, o)
			return r.Phases, err
		}},
		{"CliqueDetRuling2", "view", "dominate", func(o Options) ([]PhaseStat, error) {
			r, err := CliqueDetRuling2(g, o)
			return r.Phases, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := trace.NewRing(1 << 16)
			phases, err := tc.run(Options{Seed: 3, Tracer: ring})
			if err != nil {
				t.Fatal(err)
			}
			if len(phases) < 2 {
				t.Fatalf("%d phases: the graph does not exercise a refresh", len(phases))
			}
			views, dominates := 0, 0
			for _, ev := range ring.Events() {
				switch ev.Step {
				case tc.view:
					if dominates == 0 {
						t.Fatalf("round %d: %s runs before the first %s", ev.Round, tc.view, tc.dominate)
					}
					views++
				case tc.dominate:
					dominates++
				}
			}
			if views != len(phases)-1 || dominates != len(phases) {
				t.Fatalf("%d phases ran %d %s and %d %s rounds, want %d and %d",
					len(phases), views, tc.view, dominates, tc.dominate, len(phases)-1, len(phases))
			}
		})
	}
}
