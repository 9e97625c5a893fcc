package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/trace"
)

// TestFixtureGolden renders the committed fixture trace and compares against
// the golden report byte for byte. Regenerate with UPDATE_GOLDEN=1 after
// intentional report changes.
func TestFixtureGolden(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{filepath.Join("testdata", "fixture.jsonl")}, &b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fixture.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, b.Bytes(), want)
	}
}

// TestFixtureJSON checks the machine-readable report: valid JSON, the same
// aggregates as the text report, and deterministic ordering.
func TestFixtureJSON(t *testing.T) {
	render := func() []byte {
		var b bytes.Buffer
		if err := run([]string{"-json", "-top", "3", filepath.Join("testdata", "fixture.jsonl")}, &b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := render()
	if !bytes.Equal(first, render()) {
		t.Fatal("JSON report not deterministic")
	}
	var rep Report
	if err := json.Unmarshal(first, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Header.Algo != "det2" || rep.Header.Seed != 5 {
		t.Errorf("header wrong: %+v", rep.Header)
	}
	if rep.Rounds != 44 || len(rep.Heaviest) != 3 {
		t.Errorf("rounds=%d heaviest=%d, want 44 and 3", rep.Rounds, len(rep.Heaviest))
	}
	if len(rep.Spans) == 0 || rep.Spans[0].Span != "setup" {
		t.Errorf("spans not in first-appearance order: %+v", rep.Spans)
	}
	var total int64
	for _, s := range rep.Spans {
		total += s.Words
	}
	if total != rep.Words {
		t.Errorf("span words %d do not sum to total %d", total, rep.Words)
	}
	if rep.Recovery.Crashes == 0 || rep.Recovery.RecoveryRounds == 0 {
		t.Errorf("fixture's fault activity missing from report: %+v", rep.Recovery)
	}
}

// TestRoutedRoundsCount runs cliquedet2 fresh and checks the report
// against the run: a Lenzen-routed exchange commits LenzenRounds rounds in
// one event, so counting one round per event would report the gather span
// (an announce round and the routed exchange) at 2 rounds and the whole run
// one round short.
func TestRoutedRoundsCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cliquedet2.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewJSONL(f)
	if err := tr.WriteHeader(trace.Header{Algo: "cliquedet2"}); err != nil {
		t.Fatal(err)
	}
	res, err := rulingset.CliqueDetRuling2(gen.MustBuild("gnp:n=300,p=0.02", 1), rulingset.Options{Seed: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{"-json", path}, &b); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(b.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != res.Stats.Rounds {
		t.Errorf("report counts %d rounds, the run %d", rep.Rounds, res.Stats.Rounds)
	}
	gather := 0
	for _, s := range rep.Spans {
		if s.Span == "gather" {
			gather = s.Rounds
		}
	}
	if gather != 1+clique.LenzenRounds {
		t.Errorf("gather span %d rounds, want %d", gather, 1+clique.LenzenRounds)
	}
}

// TestCriticalMachine pins the argmax and its deterministic tie-break.
func TestCriticalMachine(t *testing.T) {
	c, ok := critical(trace.Event{Round: 4, Span: "s", Sent: []int{1, 5, 5}, Recv: []int{0, 2, 2}})
	if !ok || c.Machine != 1 || c.Sent != 5 || c.Recv != 2 {
		t.Errorf("critical = %+v (ties must break to the lowest id)", c)
	}
	// Ragged vectors: recv longer than sent.
	c, ok = critical(trace.Event{Round: 5, Sent: []int{1}, Recv: []int{0, 9}})
	if !ok || c.Machine != 1 || c.Sent != 0 || c.Recv != 9 {
		t.Errorf("ragged critical = %+v", c)
	}
	if _, ok := critical(trace.Event{Round: 6}); ok {
		t.Error("event without vectors produced a critical machine")
	}
}

// TestHeadlessTrace: traces from older producers (no header line) still
// render, with the header section degraded gracefully.
func TestHeadlessTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	content := `{"round":1,"step":"a","span":"setup","words":3,"sent":[3],"recv":[3]}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "(no header)") {
		t.Errorf("headerless trace not handled:\n%s", b.String())
	}
}

// TestResumedTraceAnnounced: a trace whose header carries resumed_from (a
// durable-checkpoint resume) says so in the report, so a reader knows the
// file holds only the post-resume suffix of the run.
func TestResumedTraceAnnounced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resumed.jsonl")
	content := `{"schema":"mprs-trace/1","algo":"det2","spec":"t","seed":1,"machines":4,"resumed_from":12}` + "\n" +
		`{"round":13,"step":"a","span":"setup","words":3,"sent":[3],"recv":[3]}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "resumed from durable checkpoint at round 12") {
		t.Errorf("resume round not announced:\n%s", b.String())
	}
}

func TestUsageAndVersion(t *testing.T) {
	var b bytes.Buffer
	if err := run(nil, &b); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run([]string{"-version"}, &b); err != nil {
		t.Errorf("-version: %v", err)
	}
	if !strings.Contains(b.String(), "traceview") {
		t.Errorf("version output %q", b.String())
	}
	if err := run([]string{filepath.Join("testdata", "nope.jsonl")}, &b); err == nil {
		t.Error("missing file accepted")
	}
}
