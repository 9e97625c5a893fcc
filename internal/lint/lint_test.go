package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture lints one testdata package with the named analyzers (all when
// none are given). Fixtures are forced critical so every analyzer applies.
func runFixture(t *testing.T, fixture string, analyzers ...string) []Diagnostic {
	t.Helper()
	diags, err := Run(Config{
		Dir:         ".",
		Patterns:    []string{filepath.Join("testdata", "src", fixture)},
		Analyzers:   analyzers,
		AllCritical: true,
	})
	if err != nil {
		t.Fatalf("Run(%s): %v", fixture, err)
	}
	return diags
}

// wantRe extracts expected-diagnostic comments of the form
//
//	// want `regexp`
//
// from fixture source. The backtick-quoted pattern is matched against the
// diagnostic message reported on the same line.
var wantRe = regexp.MustCompile("// want `([^`]*)`")

type wantSpec struct {
	line int
	re   *regexp.Regexp
}

func loadWants(t *testing.T, fixture string) []wantSpec {
	t.Helper()
	path := filepath.Join("testdata", "src", fixture, fixture+".go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wants []wantSpec
	for i, line := range strings.Split(string(src), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
			}
			wants = append(wants, wantSpec{line: i + 1, re: re})
		}
	}
	if len(wants) == 0 {
		t.Fatalf("%s: no want comments found", path)
	}
	return wants
}

// checkWants verifies the bidirectional correspondence between want comments
// and diagnostics: every want is matched by a finding on its line, and every
// finding is claimed by some want.
func checkWants(t *testing.T, fixture string, diags []Diagnostic) {
	t.Helper()
	wants := loadWants(t, fixture)
	claimed := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if claimed[i] || d.Pos.Line != w.line || !w.re.MatchString(d.Message) {
				continue
			}
			claimed[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("line %d: no diagnostic matching %q; got:\n%s", w.line, w.re, formatDiags(diags))
		}
	}
	for i, d := range diags {
		if !claimed[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func formatDiags(diags []Diagnostic) string {
	if len(diags) == 0 {
		return "  (none)"
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestMaporderFixture(t *testing.T) {
	checkWants(t, "maporder", runFixture(t, "maporder", "maporder"))
}

func TestWallclockFixture(t *testing.T) {
	checkWants(t, "wallclock", runFixture(t, "wallclock", "wallclock"))
}

func TestGlobalrandFixture(t *testing.T) {
	checkWants(t, "globalrand", runFixture(t, "globalrand", "globalrand"))
}

func TestErrdropFixture(t *testing.T) {
	checkWants(t, "errdrop", runFixture(t, "errdrop", "errdrop"))
}

func TestDurabilityFixture(t *testing.T) {
	checkWants(t, "durability", runFixture(t, "durability", "errdrop"))
}

func TestFloatorderFixture(t *testing.T) {
	checkWants(t, "floatorder", runFixture(t, "floatorder", "floatorder"))
}

func TestSharedwriteFixture(t *testing.T) {
	checkWants(t, "sharedwrite", runFixture(t, "sharedwrite", "sharedwrite"))
}

// TestDetflowFixture drives the interprocedural engine over the two-package
// fixture (consumer + tainted helper): the recursive pattern scans both, so
// the helper's summaries exist when the consumer's sinks are checked.
func TestDetflowFixture(t *testing.T) {
	diags, err := Run(Config{
		Dir:         ".",
		Patterns:    []string{"testdata/src/detflow/..."},
		Analyzers:   []string{"detflow"},
		AllCritical: true,
	})
	if err != nil {
		t.Fatalf("Run(detflow): %v", err)
	}
	checkWants(t, "detflow", diags)
}

// TestTelemetryObserverFixture pins the observer-package rule: feeding
// wall-clock measurements INTO telemetry encoders stays clean even when
// every package is forced critical (the encoders share the sinks' names on
// purpose), while telemetry measurements flowing BACK into a deterministic
// Stats column or message payload are reported.
func TestTelemetryObserverFixture(t *testing.T) {
	diags, err := Run(Config{
		Dir:         ".",
		Patterns:    []string{"testdata/src/telemetryflow/..."},
		Analyzers:   []string{"detflow"},
		AllCritical: true,
	})
	if err != nil {
		t.Fatalf("Run(telemetryflow): %v", err)
	}
	checkWants(t, "telemetryflow", diags)
}

// TestTelemetryObserverCoverage pins internal/telemetry's lint posture: it
// is NOT determinism-critical (its output is advisory), it may read the wall
// clock (span latencies are its purpose), and the real package lints clean
// under the full analyzer set — with a non-vacuity check that it genuinely
// calls time.Now, so the silence proves the exemption.
func TestTelemetryObserverCoverage(t *testing.T) {
	if criticalPkgs["internal/telemetry"] {
		t.Error(`criticalPkgs["internal/telemetry"] = true; the observer must not be a sink package`)
	}
	if !wallclockExempt("internal/telemetry") {
		t.Error(`wallclockExempt("internal/telemetry") = false; span latency measurement would be findings`)
	}
	diags, err := Run(Config{
		Dir:      "../..",
		Patterns: []string{"internal/telemetry"},
	})
	if err != nil {
		t.Fatalf("Run(internal/telemetry): %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("findings in internal/telemetry:\n%s", formatDiags(diags))
	}
	src, err := os.ReadFile(filepath.Join("..", "telemetry", "collector.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "time.Now") {
		t.Fatal("internal/telemetry no longer reads the wall clock; exemption test proves nothing")
	}
}

// TestDetflowCatchesWhatIntraproceduralAnalyzersCannot is the seeded-flow
// acceptance check: the consumer package contains no nondeterminism of its
// own — every source lives in the helper package — so the whole original
// analyzer set stays silent on it even when forced critical, while detflow
// reports the cross-package flows (pinned line-by-line by TestDetflowFixture).
func TestDetflowCatchesWhatIntraproceduralAnalyzersCannot(t *testing.T) {
	intra := []string{"maporder", "wallclock", "globalrand", "errdrop", "floatorder", "sharedwrite"}
	diags, err := Run(Config{
		Dir:         ".",
		Patterns:    []string{filepath.Join("testdata", "src", "detflow")},
		Analyzers:   intra,
		AllCritical: true,
	})
	if err != nil {
		t.Fatalf("Run(detflow, intra-procedural set): %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("intra-procedural analyzers report on the detflow consumer; the fixture no longer isolates cross-package flows:\n%s", formatDiags(diags))
	}
	flows, err := Run(Config{
		Dir:         ".",
		Patterns:    []string{"testdata/src/detflow/..."},
		Analyzers:   []string{"detflow"},
		AllCritical: true,
	})
	if err != nil {
		t.Fatalf("Run(detflow): %v", err)
	}
	if len(flows) == 0 {
		t.Error("detflow reports nothing on its own fixture")
	}
}

func TestPtrformatFixture(t *testing.T) {
	checkWants(t, "ptrformat", runFixture(t, "ptrformat", "ptrformat"))
}

func TestNondetencodeFixture(t *testing.T) {
	checkWants(t, "nondetencode", runFixture(t, "nondetencode", "nondetencode"))
}

// TestGenericsFixture pins type-parameter coverage: generic code typechecks
// under the stdlib-only loader, maporder sees through generic method bodies,
// and detflow resolves explicitly instantiated calls (IndexExpr and
// IndexListExpr callees).
func TestGenericsFixture(t *testing.T) {
	checkWants(t, "generics", runFixture(t, "generics", "maporder", "detflow"))
}

// TestAuditStaleness pins the suppression audit on the staleok fixture: the
// annotation covering a real map range is live, the one left on a rewritten
// slice loop is stale.
func TestAuditStaleness(t *testing.T) {
	sups, err := Audit(Config{
		Dir:         ".",
		Patterns:    []string{filepath.Join("testdata", "src", "staleok")},
		AllCritical: true,
	})
	if err != nil {
		t.Fatalf("Audit(staleok): %v", err)
	}
	if len(sups) != 2 {
		t.Fatalf("want 2 suppressions, got %d: %+v", len(sups), sups)
	}
	live, stale := sups[0], sups[1]
	if live.Line >= stale.Line {
		t.Fatalf("suppressions not sorted by line: %+v", sups)
	}
	for _, s := range sups {
		if s.Analyzer != "maporder" {
			t.Errorf("suppression analyzer = %q, want maporder", s.Analyzer)
		}
		if !strings.Contains(s.Reason, "commutative") {
			t.Errorf("suppression reason %q lost its justification", s.Reason)
		}
		if !strings.HasSuffix(s.File, "staleok/staleok.go") {
			t.Errorf("suppression file %q is not module-relative to the fixture", s.File)
		}
	}
	if live.Stale {
		t.Error("the suppression over a live map range was marked stale")
	}
	if !stale.Stale {
		t.Error("the suppression over a slice loop was not marked stale")
	}
}

func TestCleanFixtureHasZeroFindings(t *testing.T) {
	if diags := runFixture(t, "clean"); len(diags) != 0 {
		t.Errorf("clean fixture produced findings under the full analyzer set:\n%s", formatDiags(diags))
	}
}

func TestSuppressionSilencesFindings(t *testing.T) {
	// Both map ranges in the fixture are real maporder violations; each
	// carries a justified //detlint:ok (one on the line above, one trailing
	// the statement), so the full run must come back empty.
	if diags := runFixture(t, "suppressed"); len(diags) != 0 {
		t.Errorf("annotated findings were not suppressed:\n%s", formatDiags(diags))
	}
	// Sanity-check the fixture is not vacuously clean: stripping the
	// annotations must re-expose the findings. We approximate by asserting
	// the fixture really contains map ranges detlint would flag — the
	// suppression bookkeeping records them before filtering, so a fixture
	// edit that removes the violations fails here rather than passing
	// silently.
	src, err := os.ReadFile(filepath.Join("testdata", "src", "suppressed", "suppressed.go"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), annPrefix+" maporder -- "); n != 2 {
		t.Fatalf("suppressed fixture should carry exactly 2 annotations, found %d", n)
	}
	if !strings.Contains(string(src), "range m") {
		t.Fatal("suppressed fixture no longer contains a map range; it proves nothing")
	}
}

func TestMalformedAnnotationsAreErrors(t *testing.T) {
	diags := runFixture(t, "badannot", "maporder")
	wantMessages := []string{
		`unknown analyzer "frobnicator" in detlint:ok annotation`,
		"detlint:ok annotation names no analyzers",
		"detlint:ok annotation needs a written justification",
	}
	for _, want := range wantMessages {
		found := false
		for _, d := range diags {
			if d.Analyzer == "detlint" && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no detlint diagnostic containing %q; got:\n%s", want, formatDiags(diags))
		}
	}
	// The malformed annotations must not suppress anything: the two map
	// ranges they sit next to stay flagged.
	maporderCount := 0
	for _, d := range diags {
		if d.Analyzer == "maporder" {
			maporderCount++
		}
	}
	if maporderCount != 2 {
		t.Errorf("expected 2 unsuppressed maporder findings, got %d:\n%s", maporderCount, formatDiags(diags))
	}
}

func TestUnknownAnalyzerNameInConfigIsAnError(t *testing.T) {
	_, err := Run(Config{Dir: ".", Patterns: []string{"."}, Analyzers: []string{"frobnicator"}})
	if err == nil || !strings.Contains(err.Error(), `unknown analyzer "frobnicator"`) {
		t.Fatalf("want unknown-analyzer error, got %v", err)
	}
}

func TestDiagnosticsAreSorted(t *testing.T) {
	diags := runFixture(t, "maporder", "maporder")
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
	for _, d := range diags {
		if filepath.IsAbs(d.Pos.Filename) {
			t.Errorf("diagnostic filename should be module-relative, got %s", d.Pos.Filename)
		}
	}
}

// TestBuildTagFixture pins build-constraint-aware loading: the fixture
// declares procControl under both `unix` and `!unix`, so a loader that
// ignores //go:build lines dies with a redeclaration type error before any
// analyzer runs. The surviving maporder want proves analysis still happened.
func TestBuildTagFixture(t *testing.T) {
	checkWants(t, "buildtag", runFixture(t, "buildtag", "maporder"))
}

// TestTransportSuperviseCoverage pins the multi-process backend's lint
// contract: the wire layer and the supervisor are determinism-critical, the
// supervisor alone may read the wall clock (heartbeats and backoff are
// wall-clock by nature; they decide when workers run, never what they
// compute), and both real packages lint clean under the full analyzer set.
func TestTransportSuperviseCoverage(t *testing.T) {
	for _, rel := range []string{"internal/transport", "internal/supervise"} {
		if !criticalPkgs[rel] {
			t.Errorf("criticalPkgs[%q] = false; multi-process backend escaped detlint", rel)
		}
	}
	if !wallclockExempt("internal/supervise") {
		t.Error(`wallclockExempt("internal/supervise") = false; heartbeat timers would be findings`)
	}
	if wallclockExempt("internal/transport") {
		t.Error(`wallclockExempt("internal/transport") = true; the wire layer must stay timing-free`)
	}
	diags, err := Run(Config{
		Dir:      "../..",
		Patterns: []string{"internal/transport", "internal/supervise"},
	})
	if err != nil {
		t.Fatalf("Run(transport, supervise): %v", err)
	}
	if len(diags) != 0 {
		t.Errorf("findings in the multi-process backend:\n%s", formatDiags(diags))
	}
	// Non-vacuity: the supervisor genuinely reads the wall clock, so the
	// empty result proves the exemption rather than an absence of timers.
	src, err := os.ReadFile(filepath.Join("..", "supervise", "supervisor.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "time.Now()") {
		t.Fatal("internal/supervise no longer calls time.Now; exemption test proves nothing")
	}
}

// TestBenchWallclockExemption pins the wall-clock carve-out around the bench
// and experiments harnesses: the bench CLI, traceview and telemetry measure
// wall time on purpose, so the wallclock analyzer stays silent there, while
// internal/bench and internal/experiments write only deterministic columns
// and are checked like any other package.
func TestBenchWallclockExemption(t *testing.T) {
	for _, rel := range []string{"cmd/mprs-bench", "cmd/traceview", "internal/telemetry"} {
		if !wallclockExempt(rel) {
			t.Errorf("wallclockExempt(%q) = false", rel)
		}
	}
	// The deterministic core and the two harnesses must NOT inherit the
	// exemption.
	for _, rel := range []string{"internal/bench", "internal/experiments", "internal/mpc", "internal/clique", "internal/trace", "internal/benchmark"} {
		if wallclockExempt(rel) {
			t.Errorf("wallclockExempt(%q) = true; exemption leaked", rel)
		}
	}
	// Lint the real packages, unexempt: zero wallclock findings.
	for _, rel := range []string{"internal/bench", "internal/experiments"} {
		diags, err := Run(Config{
			Dir:       "../..",
			Patterns:  []string{rel},
			Analyzers: []string{"wallclock"},
		})
		if err != nil {
			t.Fatalf("Run(%s): %v", rel, err)
		}
		if len(diags) != 0 {
			t.Errorf("wallclock findings in %s:\n%s", rel, formatDiags(diags))
		}
	}
}
