package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/rulingset"
)

// quickRun executes the full quick registry once.
func quickRun(t *testing.T) *File {
	t.Helper()
	f, err := Run(RunConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestQuickRunByteDeterministic is the bench half of the bit-determinism
// contract: two full quick-tier runs in the same process must encode to
// byte-identical artifacts.
func TestQuickRunByteDeterministic(t *testing.T) {
	encode := func(f *File) []byte {
		var b bytes.Buffer
		if err := f.Encode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := encode(quickRun(t))
	second := encode(quickRun(t))
	if !bytes.Equal(first, second) {
		t.Fatalf("two quick runs encoded differently:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if len(first) == 0 || !strings.Contains(string(first), Schema) {
		t.Fatalf("artifact missing schema marker:\n%s", first)
	}
}

// TestRunCoversRegistry checks every registry workload executes all of its
// algorithms and lands plausible measurements.
func TestRunCoversRegistry(t *testing.T) {
	f := quickRun(t)
	wantRows := 0
	for _, w := range Registry() {
		wantRows += len(w.Algos)
	}
	if len(f.Results) != wantRows {
		t.Fatalf("got %d rows, want %d", len(f.Results), wantRows)
	}
	if got, want := f.Manifest.Workloads, Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("manifest workloads %v, want %v", got, want)
	}
	if f.Manifest.Schema != Schema || !f.Manifest.Quick {
		t.Errorf("manifest misconfigured: %+v", f.Manifest)
	}
	sawFaults, sawClique := false, false
	for _, r := range f.Results {
		if r.Rounds <= 0 || r.Words <= 0 || r.Members <= 0 || r.N <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Key(), r)
		}
		if r.Model == "clique" {
			sawClique = true
			if r.Machines != r.N {
				t.Errorf("%s: clique machines %d != n %d", r.Key(), r.Machines, r.N)
			}
		}
		if r.Workload == "r1-faults" && r.RecoveredCrashes > 0 {
			sawFaults = true
		}
	}
	if !sawClique {
		t.Error("no clique-model rows in registry run")
	}
	if !sawFaults {
		t.Error("r1-faults rows show no fault activity (plan not applied?)")
	}
}

// TestRunAlgoParallelismIdentical is the bench half of the parallel-engine
// equivalence contract: on the t8-clique and o1-skew quick graphs, every
// algorithm's row must be identical at parallelism 1 and 4. A divergence
// here means the worker-pool commit path broke bit-identity for that
// workload's regime.
func TestRunAlgoParallelismIdentical(t *testing.T) {
	for _, name := range []string{"t8-clique", "o1-skew"} {
		w, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := jobSpec(w, RunConfig{Quick: true, Seed: 1})
		g, err := spec.BuildGraph()
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range w.Algos {
			var rows [2]Result
			for i, p := range []int{1, 4} {
				spec.Algo, spec.Parallelism = algo, p
				if rows[i], err = runAlgo(spec, g); err != nil {
					t.Fatalf("%s/%s at parallelism %d: %v", name, algo, p, err)
				}
			}
			if !reflect.DeepEqual(rows[0], rows[1]) {
				t.Errorf("%s/%s: rows differ across parallelism 1 and 4:\n%+v\nvs\n%+v", name, algo, rows[0], rows[1])
			}
		}
	}
}

// budgetExceptions names the quick-tier workloads still allowed to record
// budget violations, with the cause. On t2-powerlaw machine 0 holds the
// gathered residual on top of its own shard in the finish round; the test
// for whether the residual fits does not yet count what the coordinator
// already holds.
var budgetExceptions = map[string]string{
	"t2-powerlaw": "coordinator residency at the residual gather",
}

// TestLinearRegimeZeroViolations asserts, as a number per row, that every
// quick-tier run stays within its machines' budget S, the EXPERIMENTS.md
// T5 invariant. This covers the t1-gnp-rounds luby/detluby rows (whose
// degree exchange once sent two words per edge) and the t2-star rand2/det2
// rows (whose residual members were once broadcast to every machine). The
// budgetExceptions rows must still violate, so a fix that clears them also
// clears their exception.
func TestLinearRegimeZeroViolations(t *testing.T) {
	f := quickRun(t)
	for _, r := range f.Results {
		cause, excepted := budgetExceptions[r.Workload]
		switch {
		case !excepted && r.Violations != 0:
			t.Errorf("%s: %d budget violations, want 0", r.Key(), r.Violations)
		case excepted && r.Violations == 0:
			t.Errorf("%s: no budget violations any more; drop its exception (%s)", r.Key(), cause)
		}
	}
}

// TestRunWorkloadFilter checks -workloads style selection.
func TestRunWorkloadFilter(t *testing.T) {
	f, err := Run(RunConfig{Quick: true, Workloads: []string{"t2-star"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Results) != 2 {
		t.Fatalf("got %d rows, want 2 (t2-star algos)", len(f.Results))
	}
	for _, r := range f.Results {
		if r.Workload != "t2-star" {
			t.Errorf("unexpected workload row %s", r.Key())
		}
	}
	if _, err := Run(RunConfig{Workloads: []string{"no-such"}}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestDiffCleanOnIdenticalRuns: a run diffed against itself or against a
// re-run has no deltas at all.
func TestDiffCleanOnIdenticalRuns(t *testing.T) {
	f := quickRun(t)
	if deltas := Diff(f, f); len(deltas) != 0 {
		t.Fatalf("self-diff produced deltas: %v", deltas)
	}
	if deltas := Diff(f, quickRun(t)); len(deltas) != 0 {
		t.Fatalf("re-run produced deltas: %v", deltas)
	}
}

// TestDiffDetectsRegressions: changes to any column, missing rows and
// manifest mismatches are deltas.
func TestDiffDetectsRegressions(t *testing.T) {
	base := quickRun(t)
	find := func(deltas []Delta, field string) *Delta {
		for i := range deltas {
			if deltas[i].Field == field {
				return &deltas[i]
			}
		}
		return nil
	}

	mut := *base
	mut.Results = append([]Result(nil), base.Results...)
	mut.Results[0].Rounds += 3
	deltas := Diff(base, &mut)
	if len(deltas) != 1 || find(deltas, "rounds") == nil {
		t.Errorf("rounds bump not one rounds delta: %v", deltas)
	}

	mut = *base
	mut.Results = append([]Result(nil), base.Results...)
	mut.Results[2].GiniRecv += 1e-9 // even 1 ulp of skew drift must trip
	if deltas := Diff(base, &mut); len(deltas) == 0 {
		t.Errorf("float column drift not detected: %v", deltas)
	}

	mut = *base
	mut.Results = base.Results[1:]
	if deltas := Diff(base, &mut); find(deltas, "(row)") == nil {
		t.Errorf("dropped row not detected: %v", deltas)
	}
	if deltas := Diff(&mut, base); find(deltas, "(row)") == nil {
		t.Errorf("added row not detected: %v", deltas)
	}

	mut = *base
	mut.Manifest.Quick = !base.Manifest.Quick
	if deltas := Diff(base, &mut); find(deltas, "quick") == nil {
		t.Errorf("tier mismatch not detected: %v", deltas)
	}
}

// TestDiffRowCoversNewColumns guards the reflection walk: every exported
// Result field has a JSON name and is diffed exactly. A field added without a
// json tag would silently escape the regression gate — this test makes that
// a failure.
func TestDiffRowCoversNewColumns(t *testing.T) {
	typ := reflect.TypeOf(Result{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if name := jsonName(f); name == "" {
			t.Errorf("Result.%s has no json column name; it would escape diffing", f.Name)
		}
	}
	// And the sensitivity holds mechanically for every column: perturb each
	// field in turn and require a delta.
	base := Result{Workload: "w", Algo: "a"}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := jsonName(f)
		if f.Name == "Workload" || f.Name == "Algo" {
			continue // key fields define row identity, not row content
		}
		mut := base
		mv := reflect.ValueOf(&mut).Elem().Field(i)
		switch mv.Kind() {
		case reflect.Int, reflect.Int64:
			mv.SetInt(mv.Int() + 1)
		case reflect.Float64:
			mv.SetFloat(mv.Float() + 0.125)
		case reflect.String:
			mv.SetString(mv.String() + "x")
		default:
			t.Fatalf("Result.%s: unhandled kind %s — extend the diff test", f.Name, mv.Kind())
		}
		deltas := diffRow(base, mut)
		if len(deltas) != 1 || deltas[0].Field != name {
			t.Errorf("perturbing Result.%s: deltas = %v, want one %q delta", f.Name, deltas, name)
		}
	}
}

// TestRegistryValid pins registry invariants: unique names, resolvable specs
// and algorithms, experiment anchors, both simulator models covered.
func TestRegistryValid(t *testing.T) {
	clique := map[string]bool{} // table name → runs on the congested clique
	for _, a := range rulingset.Algorithms {
		clique[a.Name] = a.Clique
	}
	models := map[bool]bool{}
	seen := map[string]bool{}
	experiments := map[string]bool{}
	for _, w := range Registry() {
		if w.Name == "" || seen[w.Name] {
			t.Errorf("registry name %q empty or duplicated", w.Name)
		}
		seen[w.Name] = true
		if w.Experiment == "" || w.Doc == "" {
			t.Errorf("%s: missing experiment anchor or doc", w.Name)
		}
		experiments[w.Experiment] = true
		if w.Spec == "" || w.QuickSpec == "" {
			t.Errorf("%s: missing spec tier", w.Name)
		}
		if len(w.Algos) == 0 {
			t.Errorf("%s: no algorithms", w.Name)
		}
		for _, a := range w.Algos {
			onClique, ok := clique[a]
			if !ok {
				t.Errorf("%s: unknown algorithm %q", w.Name, a)
			}
			models[onClique] = true
		}
	}
	for _, want := range []string{"T1", "T2", "T8", "O1", "R1"} {
		if !experiments[want] {
			t.Errorf("no workload anchored to experiment %s", want)
		}
	}
	if !models[false] || !models[true] {
		t.Errorf("registry covers MPC %t, clique %t; want both", models[false], models[true])
	}
	if _, err := Lookup("t1-gnp-rounds"); err != nil {
		t.Error(err)
	}
}

// TestFileRoundTrip: WriteFile/ReadFile preserve the artifact; schema
// mismatches are rejected.
func TestFileRoundTrip(t *testing.T) {
	f, err := Run(RunConfig{Quick: true, Workloads: []string{"t2-star"}})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_test.json"
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatalf("round trip changed artifact:\n%+v\nvs\n%+v", f, g)
	}
	bad := strings.NewReader(`{"manifest":{"schema":"mprs-bench/99"},"results":[]}`)
	if _, err := Decode(bad); err == nil {
		t.Error("unsupported schema accepted")
	}
}

// TestDiffTraces exercises trace-level diffing through real JSONL fixtures.
func TestDiffTraces(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	hdr := `{"schema":"mprs-trace/1","algo":"det2","spec":"star:n=8","seed":1,"machines":4}`
	ev1 := `{"round":1,"step":"mark","span":"setup","words":8}`
	ev2 := `{"round":2,"step":"elect","span":"mis","words":4}`
	a := write("a.jsonl", hdr+"\n"+ev1+"\n"+ev2+"\n")

	same := write("same.jsonl", hdr+"\n"+ev1+"\n"+ev2+"\n")
	deltas, err := DiffTraces(a, same)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 0 {
		t.Errorf("identical traces diff: %v", deltas)
	}

	// Build stamp differences are not deltas (cross-commit comparison).
	hdr2 := `{"schema":"mprs-trace/1","algo":"det2","spec":"star:n=8","seed":1,"machines":4,"build":{"version":"other"}}`
	b := write("b.jsonl", hdr2+"\n"+ev1+"\n"+ev2+"\n")
	if deltas, err = DiffTraces(a, b); err != nil || len(deltas) != 0 {
		t.Errorf("build-stamp-only difference flagged: %v (err %v)", deltas, err)
	}

	c := write("c.jsonl", hdr+"\n"+ev1+"\n")
	deltas, err = DiffTraces(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Errorf("missing event not a regression: %v", deltas)
	}

	d := write("d.jsonl", hdr+"\n"+ev1+"\n"+`{"round":2,"step":"elect","span":"mis","words":5}`+"\n")
	deltas, err = DiffTraces(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Errorf("event field drift not a regression: %v", deltas)
	}

	e := write("e.jsonl", `{"schema":"mprs-trace/1","algo":"rand2","spec":"star:n=8","seed":2,"machines":4}`+"\n"+ev1+"\n"+ev2+"\n")
	deltas, err = DiffTraces(a, e)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, dl := range deltas {
		fields[dl.Field] = true
	}
	if !fields["algo"] || !fields["seed"] {
		t.Errorf("header parameter mismatch not flagged: %v", deltas)
	}
}

// TestDeltaLabels: a delta is IMPROVED only when a cost column decreases;
// increases, non-numeric values and columns with no better direction stay
// REGRESSION.
func TestDeltaLabels(t *testing.T) {
	for _, tc := range []struct {
		d    Delta
		want string
	}{
		{Delta{Key: "k", Field: "words", Old: "8662", New: "3673", Cost: true}, "IMPROVED k words: 8662 -> 3673 (-58%)"},
		{Delta{Key: "k", Field: "words", Old: "3673", New: "8662", Cost: true}, "REGRESSION k words: 3673 -> 8662"},
		{Delta{Key: "k", Field: "gini_sent", Old: "0.5", New: "0.25", Cost: true}, "IMPROVED k gini_sent: 0.5 -> 0.25 (-50%)"},
		{Delta{Key: "k", Field: "members", Old: "10", New: "9"}, "REGRESSION k members: 10 -> 9"},
		{Delta{Key: "k", Field: "(row)", Old: "present", New: "absent", Cost: true}, "REGRESSION k (row): present -> absent"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("%+v: got %q, want %q", tc.d, got, tc.want)
		}
	}
	base := quickRun(t)
	mut := *base
	mut.Results = append([]Result(nil), base.Results...)
	mut.Results[0].Words--
	mut.Results[0].Members++
	for _, d := range Diff(base, &mut) {
		if d.Cost != (d.Field == "words") {
			t.Errorf("%s: Cost = %v", d.Field, d.Cost)
		}
	}
}
