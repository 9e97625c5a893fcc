package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"
)

// spanTolerance is how closely the traced solve's span times must add up to
// its wall time, as a share of it. The span clock runs inside the timed
// region, so only the call overhead around the driver may differ.
const spanTolerance = 0.02

// TestMain lets the test binary stand in for the benchmark binary as the
// multiproc workers: supervise.SelfExec re-executes it with "worker".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkReport requires a fully correct run printing exactly the named
// metrics, each with its unit, and checks that the report survives the
// JSON round trip the benchmark prints.
func checkReport(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var printed report
	if err := json.Unmarshal(data, &printed); err != nil {
		t.Fatal(err)
	}
	for _, m := range want {
		got, ok := printed.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(printed.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(printed.Metrics), len(want))
	}
}

// TestSmoke runs every workload end to end and traced at tiny scale.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, err := newBench(w, 1, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.endToEnd(0)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, spec.EndToEnd)

			b, err = newBench(w, 1, t.TempDir(), true)
			if err != nil {
				t.Fatal(err)
			}
			rep, err = b.layers()
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, spec.PerLayer)

			// Traced and untraced solves return identical members.
			var labels []string
			for l := range b.digests {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			for _, l := range labels {
				if b.digests[l] != b.digests["traced"] {
					t.Errorf("%s members %s, traced %s", l, b.digests[l], b.digests["traced"])
				}
			}
			if b.digests["traced"] == "" || (b.digests["untraced"] == "" && b.digests["multiproc-untraced"] == "") {
				t.Errorf("missing traced or untraced solve: %v", b.digests)
			}

			// The span times add up to the traced solve's wall time.
			v := func(name string) float64 { return rep.Metrics[name].Value }
			sum := v("rulingset.other_s")
			for _, s := range namedSpans {
				sum += v("rulingset." + s + "_s")
			}
			solve := v("rulingset.solve_s")
			if solve <= 0 || math.Abs(sum-solve) > spanTolerance*solve {
				t.Errorf("spans sum to %gs, traced solve took %gs (tolerance %g)", sum, solve, spanTolerance)
			}
			if v("rulingset.sparsify_s") <= 0 {
				t.Errorf("no time in the sparsify span")
			}
			if w.multiproc && (v("transport.frames") <= 0 || v("supervise.restarts") != 0) {
				t.Errorf("transport.frames %g, supervise.restarts %g", v("transport.frames"), v("supervise.restarts"))
			}
		})
	}
}
