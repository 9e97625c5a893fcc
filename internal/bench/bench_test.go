package bench

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// quickRun executes the full quick registry once, host-stripped.
func quickRun(t *testing.T) *File {
	t.Helper()
	f, err := Run(RunConfig{Quick: true, StripHost: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestQuickRunByteDeterministic is the bench half of the bit-determinism
// contract: two full quick-tier runs in the same process must encode to
// byte-identical artifacts once host-dependent columns are stripped.
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
		levels := len(w.Parallelism)
		if levels == 0 {
			levels = 1
		}
		wantRows += len(w.Algos) * levels
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
	if !reflect.DeepEqual(f.Manifest.HostDependent, HostDependentFields) {
		t.Errorf("manifest host-dependent = %v", f.Manifest.HostDependent)
	}
	sawFaults, sawClique := false, false
	for _, r := range f.Results {
		if r.Rounds <= 0 || r.Words <= 0 || r.Members <= 0 || r.N <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Key(), r)
		}
		if r.WallMS != 0 {
			t.Errorf("%s: StripHost left wall_ms=%v", r.Key(), r.WallMS)
		}
		if r.Model == "clique" {
			sawClique = true
			if r.Machines != r.N {
				t.Errorf("%s: clique machines %d != n %d", r.Key(), r.Machines, r.N)
			}
		}
		if r.Workload == "r1-faults" && (r.RecoveredCrashes > 0 || r.DroppedMessages > 0) {
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

// TestParallelismSweepRowsIdentical is the bench half of the parallel-engine
// equivalence contract: within one workload's parallelism sweep, rows of the
// same algorithm must agree on every column except the parallelism key and
// the host-dependent ones. A divergence here means the worker-pool commit
// path broke bit-identity for that workload's regime.
func TestParallelismSweepRowsIdentical(t *testing.T) {
	f := quickRun(t)
	base := map[string]Result{} // workload/algo -> first sweep row, normalized
	swept := 0
	for _, r := range f.Results {
		if r.Parallelism == 0 {
			continue
		}
		swept++
		norm := r
		norm.Parallelism = 0
		norm.WallMS = 0
		norm.SpeedupX = 0
		key := r.Workload + "/" + r.Algo
		first, ok := base[key]
		if !ok {
			base[key] = norm
			continue
		}
		if !reflect.DeepEqual(first, norm) {
			t.Errorf("%s: deterministic columns differ across parallelism levels:\n%+v\nvs\n%+v", r.Key(), first, norm)
		}
	}
	if swept == 0 {
		t.Fatal("no parallelism-sweep rows in the registry run")
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
	f, err := Run(RunConfig{Quick: true, StripHost: true})
	if err != nil {
		t.Fatal(err)
	}
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
	f, err := Run(RunConfig{Quick: true, StripHost: true, Workloads: []string{"t2-star"}})
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

// TestDiffCleanOnIdenticalRuns: a run diffed against itself has no deltas at
// all, and against a re-run only (possibly) advisory wall-clock ones.
func TestDiffCleanOnIdenticalRuns(t *testing.T) {
	f := quickRun(t)
	if deltas := Diff(f, f, DiffOptions{}); len(deltas) != 0 {
		t.Fatalf("self-diff produced deltas: %v", deltas)
	}
	g, err := Run(RunConfig{Quick: true}) // wall-clock retained
	if err != nil {
		t.Fatal(err)
	}
	deltas := Diff(f, g, DiffOptions{})
	if HasRegression(deltas) {
		t.Fatalf("re-run flagged as regression: %v", deltas)
	}
	for _, d := range deltas {
		if !hostDependent(d.Field) {
			t.Errorf("non-host-dependent delta between identical runs: %v", d)
		}
	}
}

// TestDiffDetectsRegressions: changes to deterministic columns, missing rows
// and manifest mismatches are hard; wall-clock drift is advisory unless the
// ratio band is armed.
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
	deltas := Diff(base, &mut, DiffOptions{})
	d := find(deltas, "rounds")
	if d == nil || !d.Hard || !HasRegression(deltas) {
		t.Errorf("rounds bump not a hard regression: %v", deltas)
	}

	mut = *base
	mut.Results = append([]Result(nil), base.Results...)
	mut.Results[2].GiniRecv += 1e-9 // even 1 ulp of skew drift must trip
	if deltas := Diff(base, &mut, DiffOptions{}); !HasRegression(deltas) {
		t.Errorf("float column drift not detected: %v", deltas)
	}

	mut = *base
	mut.Results = base.Results[1:]
	deltas = Diff(base, &mut, DiffOptions{})
	if d := find(deltas, "(row)"); d == nil || !d.Hard {
		t.Errorf("dropped row not a hard regression: %v", deltas)
	}
	if deltas := Diff(base, &mut, DiffOptions{AllowMissing: true}); HasRegression(deltas) {
		t.Errorf("AllowMissing still hard: %v", deltas)
	}

	mut = *base
	mut.Results = append([]Result(nil), base.Results...)
	mut.Results[0].WallMS = 100
	baseWall := *base
	baseWall.Results = append([]Result(nil), base.Results...)
	baseWall.Results[0].WallMS = 10
	deltas = Diff(&baseWall, &mut, DiffOptions{})
	if d := find(deltas, "wall_ms"); d == nil || d.Hard {
		t.Errorf("unarmed wall-clock drift should be advisory: %v", deltas)
	}
	deltas = Diff(&baseWall, &mut, DiffOptions{WallRatio: 2})
	if d := find(deltas, "wall_ms"); d == nil || !d.Hard || !HasRegression(deltas) {
		t.Errorf("10x wall drift inside a 2x band: %v", deltas)
	}
	mut.Results[0].WallMS = 15
	deltas = Diff(&baseWall, &mut, DiffOptions{WallRatio: 2})
	if d := find(deltas, "wall_ms"); d == nil || d.Hard {
		t.Errorf("1.5x wall drift outside a 2x band: %v", deltas)
	}

	mut = *base
	mut.Manifest.Quick = !base.Manifest.Quick
	if deltas := Diff(base, &mut, DiffOptions{}); !HasRegression(deltas) {
		t.Errorf("tier mismatch not detected: %v", deltas)
	}
}

// TestDiffRowCoversNewColumns guards the reflection walk: every exported
// Result field with a JSON name is either diffed exactly or declared
// host-dependent. A field added without a json tag would silently escape the
// regression gate — this test makes that a failure.
func TestDiffRowCoversNewColumns(t *testing.T) {
	typ := reflect.TypeOf(Result{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if name := jsonName(f); name == "" {
			t.Errorf("Result.%s has no json column name; it would escape diffing", f.Name)
		}
	}
	// And the sensitivity holds mechanically for every deterministic column:
	// perturb each field in turn and require a hard delta.
	base := Result{Workload: "w", Algo: "a"}
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := jsonName(f)
		if hostDependent(name) || f.Name == "Workload" || f.Name == "Algo" {
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
		deltas := diffRow(base, mut, DiffOptions{})
		if len(deltas) != 1 || !deltas[0].Hard || deltas[0].Field != name {
			t.Errorf("perturbing Result.%s: deltas = %v, want one hard %q delta", f.Name, deltas, name)
		}
		_ = v
	}
}

// TestRegistryValid pins registry invariants: unique names, resolvable specs
// and algorithms, experiment anchors, both simulator models covered.
func TestRegistryValid(t *testing.T) {
	known := map[string]bool{}
	for _, a := range mpcAlgos {
		known[a.name] = true
	}
	for name := range cliqueAlgos {
		known[name] = true
	}
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
			if !known[a] {
				t.Errorf("%s: unknown algorithm %q", w.Name, a)
			}
		}
	}
	for _, want := range []string{"T1", "T2", "T8", "O1", "R1"} {
		if !experiments[want] {
			t.Errorf("no workload anchored to experiment %s", want)
		}
	}
	if _, err := Lookup("t1-gnp-rounds"); err != nil {
		t.Error(err)
	}
}

// TestFileRoundTrip: WriteFile/ReadFile preserve the artifact; schema
// mismatches are rejected.
func TestFileRoundTrip(t *testing.T) {
	f, err := Run(RunConfig{Quick: true, StripHost: true, Workloads: []string{"t2-star"}})
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
	if !HasRegression(deltas) {
		t.Errorf("missing event not a regression: %v", deltas)
	}

	d := write("d.jsonl", hdr+"\n"+ev1+"\n"+`{"round":2,"step":"elect","span":"mis","words":5}`+"\n")
	deltas, err = DiffTraces(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if !HasRegression(deltas) {
		t.Errorf("event field drift not a regression: %v", deltas)
	}

	e := write("e.jsonl", `{"schema":"mprs-trace/1","algo":"rand2","spec":"star:n=8","seed":2,"machines":4}`+"\n"+ev1+"\n"+ev2+"\n")
	deltas, err = DiffTraces(a, e)
	if err != nil {
		t.Fatal(err)
	}
	hard := map[string]bool{}
	for _, dl := range deltas {
		if dl.Hard {
			hard[dl.Field] = true
		}
	}
	if !hard["algo"] || !hard["seed"] {
		t.Errorf("header parameter mismatch not flagged: %v", deltas)
	}
}
