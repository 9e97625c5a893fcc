package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/bench"
)

// capture runs the CLI with stdout redirected to a pipe.
func capture(t *testing.T, args []string) (string, int, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	code, runErr := run(args, w)
	w.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return b.String(), code, runErr
}

// TestBaselineStillHolds is the regression gate's own regression test: a
// fresh quick-tier run must diff clean (exact match on every column) against
// the checked-in BENCH_baseline.json. If this fails, either a
// simulator/algorithm change altered the measured quantities — regenerate
// the baseline deliberately with
//
//	go run ./cmd/mprs-bench run -quick -q -out BENCH_baseline.json
//
// and justify the delta in the PR — or a real nondeterminism crept in.
func TestBaselineStillHolds(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_baseline.json")
	if _, err := os.Stat(baseline); err != nil {
		t.Fatalf("checked-in baseline missing: %v", err)
	}
	fresh := filepath.Join(t.TempDir(), "fresh.json")
	if _, code, err := capture(t, []string{"run", "-quick", "-q", "-out", fresh}); err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	out, code, err := capture(t, []string{"diff", baseline, fresh})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("fresh quick run regressed against the baseline:\n%s", out)
	}
	if !strings.Contains(out, "OK:") {
		t.Errorf("diff output missing OK line:\n%s", out)
	}
}

// TestDiffExitCodes: a doctored artifact must exit 2 with a REGRESSION line.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "a.json")
	if _, code, err := capture(t, []string{"run", "-quick", "-q", "-workloads", "t2-star", "-out", orig}); err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	f, err := bench.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	f.Results[0].Words += 999
	doctored := filepath.Join(dir, "b.json")
	if err := f.WriteFile(doctored); err != nil {
		t.Fatal(err)
	}
	out, code, err := capture(t, []string{"diff", orig, doctored})
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("doctored diff exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "words") {
		t.Errorf("diff output does not name the regressed column:\n%s", out)
	}
}

// TestDiffLabelsDecreases: a drop in a cost column still fails the diff
// (exit 2), but is labelled IMPROVED with its relative change, not
// REGRESSION.
func TestDiffLabelsDecreases(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "a.json")
	if _, code, err := capture(t, []string{"run", "-quick", "-q", "-workloads", "t2-star", "-out", orig}); err != nil || code != 0 {
		t.Fatalf("run: code %d, err %v", code, err)
	}
	f, err := bench.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	f.Results[0].Words /= 2
	halved := filepath.Join(dir, "b.json")
	if err := f.WriteFile(halved); err != nil {
		t.Fatal(err)
	}
	out, code, err := capture(t, []string{"diff", orig, halved})
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("halved diff exited %d, want 2:\n%s", code, out)
	}
	if !strings.Contains(out, "IMPROVED") || !strings.Contains(out, "words") || !strings.Contains(out, "(-50%)") || strings.Contains(out, "REGRESSION") {
		t.Errorf("diff output does not label the halved words an improvement:\n%s", out)
	}
}

// TestDiffTraceFiles: the diff subcommand detects JSONL inputs and compares
// them event by event.
func TestDiffTraceFiles(t *testing.T) {
	dir := t.TempDir()
	hdr := `{"schema":"mprs-trace/1","algo":"det2","spec":"path:n=4","seed":1,"machines":2}`
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	if err := os.WriteFile(a, []byte(hdr+"\n"+`{"round":1,"words":4}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(hdr+"\n"+`{"round":1,"words":5}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code, err := capture(t, []string{"diff", a, a})
	if err != nil || code != 0 {
		t.Fatalf("identical traces: code %d err %v\n%s", code, err, out)
	}
	out, code, err = capture(t, []string{"diff", a, b})
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("diverging traces: code %d\n%s", code, out)
	}
	// Mixing artifact kinds is a usage error, not a silent pass.
	if _, _, err := capture(t, []string{"diff", a, filepath.Join("..", "..", "BENCH_baseline.json")}); err == nil {
		t.Error("trace-vs-bench diff accepted")
	}
}

// TestListAndVersion covers the informational subcommands.
func TestListAndVersion(t *testing.T) {
	out, code, err := capture(t, []string{"list"})
	if err != nil || code != 0 {
		t.Fatalf("list: %v", err)
	}
	for _, w := range bench.Names() {
		if !strings.Contains(out, w) {
			t.Errorf("list output missing workload %s:\n%s", w, out)
		}
	}
	out, code, err = capture(t, []string{"-version"})
	if err != nil || code != 0 || !strings.Contains(out, "mprs-bench") {
		t.Errorf("-version: code %d err %v out %q", code, err, out)
	}
	if _, _, err := capture(t, []string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, _, err := capture(t, nil); err == nil {
		t.Error("no arguments accepted")
	}
}

// TestRunWorkloadsFlagRejectsUnknown: a typo in -workloads fails loudly.
func TestRunWorkloadsFlagRejectsUnknown(t *testing.T) {
	if _, _, err := capture(t, []string{"run", "-q", "-workloads", "no-such", "-out", filepath.Join(t.TempDir(), "x.json")}); err == nil {
		t.Error("unknown workload accepted")
	}
}
