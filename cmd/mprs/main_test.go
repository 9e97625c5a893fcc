package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

func TestRunUsageErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "no args", args: nil},
		{name: "unknown subcommand", args: []string{"frobnicate"}},
		{name: "run without graph", args: []string{"run", "-algo", "det2"}},
		{name: "run bad algo", args: []string{"run", "-algo", "nope", "-spec", "path:n=4"}},
		{name: "run bad regime", args: []string{"run", "-regime", "weird", "-spec", "path:n=4"}},
		{name: "run spec and in", args: []string{"run", "-spec", "path:n=4", "-in", "x"}},
		{name: "gen bad spec", args: []string{"gen", "-spec", "nosuch:n=4"}},
		{name: "run bad faults", args: []string{"run", "-spec", "path:n=4", "-chaos", "machine:what=1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
		})
	}
}

// TestRunRemovedAlgorithmsRejected: the (α,β)-ruling set algorithms and their
// -alpha flag are gone, so asking for them fails through the ordinary
// unknown-algorithm and unknown-flag errors rather than running anything.
func TestRunRemovedAlgorithmsRejected(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{name: "detab", args: []string{"run", "-algo", "detab", "-spec", "path:n=8"}, want: `unknown algorithm "detab"`},
		{name: "randab", args: []string{"run", "-algo", "randab", "-spec", "path:n=8"}, want: `unknown algorithm "randab"`},
		{name: "alpha flag", args: []string{"run", "-algo", "detbeta", "-alpha", "3", "-spec", "path:n=8"}, want: "-alpha"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := run(tt.args)
			if err == nil {
				t.Fatalf("args %v accepted", tt.args)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("args %v: error %q does not mention %q", tt.args, err, tt.want)
			}
		})
	}
}

func TestGenInfoRunPipeline(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "g.txt")
	if err := run([]string{"gen", "-spec", "gnp:n=300,p=0.02", "-seed", "3", "-o", file}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "300 ") {
		t.Fatalf("edge list header wrong: %q", string(data[:20]))
	}
	if err := run([]string{"info", "-in", file}); err != nil {
		t.Fatalf("info: %v", err)
	}
	for _, algo := range strings.Split(algoUsage(), "|") {
		args := []string{"run", "-algo", algo, "-in", file, "-chunk", "4"}
		if algo != "greedy" { // greedy rejects the report flags
			args = append(args, "-phases", "-rounds", "-spans")
		}
		if err := run(args); err != nil {
			t.Fatalf("run %s: %v", algo, err)
		}
	}
}

// TestRunGreedyRejectsReportFlags: greedy runs no supersteps, so each flag
// that reports a run's model statistics fails with an error naming it, and
// -stats-out writes no file, instead of being ignored while the run exits 0.
func TestRunGreedyRejectsReportFlags(t *testing.T) {
	statsFile := filepath.Join(t.TempDir(), "g.json")
	for _, tt := range []struct {
		flag string
		args []string
	}{
		{"-stats-out", []string{"-stats-out", statsFile}},
		{"-phases", []string{"-phases"}},
		{"-rounds", []string{"-rounds"}},
		{"-spans", []string{"-spans"}},
	} {
		err := run(append([]string{"run", "-algo", "greedy", "-spec", "gnp:n=200,p=0.02"}, tt.args...))
		if err == nil || !strings.HasPrefix(err.Error(), tt.flag+":") {
			t.Errorf("greedy with %s: err = %v, want an error naming the flag", tt.flag, err)
		}
	}
	if _, err := os.Stat(statsFile); !os.IsNotExist(err) {
		t.Errorf("greedy wrote a -stats-out file (stat err = %v)", err)
	}
}

// TestRunUnknownAlgorithmOpensNoFile: the -algo name is resolved before any
// output file exists, so a typo leaves no empty -trace file behind.
func TestRunUnknownAlgorithmOpensNoFile(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "run.trace")
	err := run([]string{"run", "-algo", "detab", "-spec", "path:n=8", "-trace", tr})
	if err == nil || !strings.Contains(err.Error(), `unknown algorithm "detab"`) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(tr); !os.IsNotExist(err) {
		t.Fatalf("-trace file created for an unknown algorithm (stat err = %v)", err)
	}
}

func TestRunStrictSublinearFails(t *testing.T) {
	err := run([]string{"run", "-algo", "rand2", "-spec", "gnp:n=2000,p=0.004",
		"-regime", "sublinear", "-epsilon", "0.5", "-strict"})
	if err == nil {
		t.Fatal("strict sublinear run must fail")
	}
}

// captureStderr runs f with os.Stderr redirected to a pipe and returns what
// was written there.
func captureStderr(t *testing.T, f func()) string { return capture(t, &os.Stderr, f) }

// capture runs f with *stream redirected to a pipe and returns what was
// written there. The pipe is drained while f runs, so f may write more than
// the pipe buffer holds.
func capture(t *testing.T, stream **os.File, f func()) string {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	defer func() { *stream = old }()
	var b bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := b.ReadFrom(r)
		done <- err
	}()
	f()
	w.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRunViolationsGoToStderrAndFail pins the diagnostics-routing fix: a
// non-strict run that breaches the budget must print the violations to
// stderr (not stdout) and return a non-zero status (an error from run).
func TestRunViolationsGoToStderrAndFail(t *testing.T) {
	var runErr error
	errOut := captureStderr(t, func() {
		// Sublinear memory on a dense-enough graph guarantees violations;
		// without -strict the run completes and must still report failure.
		runErr = run([]string{"run", "-algo", "rand2", "-spec", "gnp:n=2000,p=0.004",
			"-regime", "sublinear", "-epsilon", "0.5", "-verify=false"})
	})
	if runErr == nil {
		t.Fatal("non-strict run with violations must return an error")
	}
	if !strings.Contains(runErr.Error(), "budget violation") {
		t.Fatalf("error %q does not mention budget violations", runErr)
	}
	if !strings.Contains(errOut, "budget violation:") {
		t.Fatalf("violations not routed to stderr; stderr = %q", errOut)
	}
}

// TestCliqueRunPrintsPhasesAndRounds: a congested-clique run reports through
// the same path as an MPC run, so -phases and -rounds print their tables.
func TestCliqueRunPrintsPhasesAndRounds(t *testing.T) {
	statsOut := filepath.Join(t.TempDir(), "stats.json")
	var runErr error
	out := capture(t, &os.Stdout, func() {
		runErr = run([]string{"run", "-algo", "cliquedet2", "-spec", "gnp:n=300,p=0.02",
			"-chunk", "4", "-phases", "-rounds", "-stats-out", statsOut})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	for _, want := range []string{"congested clique, 300 nodes", "phase trace", "round log", "residual/route", "verified:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout misses %q:\n%s", want, out)
		}
	}
	// Each round-log row carries its event's own round, so the Lenzen-routed
	// residual/route step's two rounds show and the last row reads the run's
	// final round.
	raw, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	var st struct{ Rounds int }
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	last := 0
	for _, row := range strings.Split(out[strings.Index(out, "round log"):], "\n")[3:] {
		f := strings.Fields(row)
		if len(f) == 0 {
			break
		}
		r, err := strconv.Atoi(f[0])
		if err != nil {
			break
		}
		last = r
	}
	if last != st.Rounds {
		t.Errorf("last round-log row reads round %d, the run took %d", last, st.Rounds)
	}
}

// TestRunTraceFileDeterministic runs the same traced command twice and
// asserts byte-identical JSONL output — the CLI end of the bit-determinism
// contract.
func TestRunTraceFileDeterministic(t *testing.T) {
	dir := t.TempDir()
	t1 := filepath.Join(dir, "a.jsonl")
	t2 := filepath.Join(dir, "b.jsonl")
	args := func(out string) []string {
		return []string{"run", "-algo", "det2", "-spec", "gnp:n=400,p=0.01",
			"-chunk", "4", "-trace", out, "-verify=false"}
	}
	if err := run(args(t1)); err != nil {
		t.Fatal(err)
	}
	if err := run(args(t2)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(t1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("trace file empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("traces of identical runs differ")
	}
	if !strings.Contains(string(a), `"span":"sparsify"`) {
		t.Error("trace missing sparsify span")
	}
	if !strings.Contains(string(a), `"span":"seed-search"`) {
		t.Error("trace missing seed-search span")
	}
}

// TestRunProfileWritesFiles checks -profile captures file-based CPU and heap
// profiles.
func TestRunProfileWritesFiles(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "prof")
	err := run([]string{"run", "-algo", "det2", "-spec", "gnp:n=200,p=0.02",
		"-chunk", "4", "-profile", prefix, "-verify=false"})
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		st, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("profile %s missing: %v", suffix, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s empty", suffix)
		}
	}
}

// TestRunUsageGolden pins the run subcommand's -h output against a golden
// file, so the documented flag surface and the real one cannot drift apart
// silently (the bug this guards against: usage text advertising flags that
// do not exist, or omitting ones that do).
func TestRunUsageGolden(t *testing.T) {
	got := captureStderr(t, func() {
		if err := run([]string{"run", "-h"}); err == nil {
			t.Error("-h should surface flag.ErrHelp")
		}
	})
	golden := filepath.Join("testdata", "run_usage.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("usage drifted from %s:\n--- got ---\n%s--- want ---\n%s(UPDATE_GOLDEN=1 refreshes after intentional changes)", golden, got, want)
	}
	// Every flag named in the command doc's usage block must exist; spot-check
	// the ones the doc calls out explicitly.
	for _, flagName := range []string{"-phases", "-rounds", "-spans", "-slack", "-trace", "-debug-addr", "-algo-seed",
		"-checkpoint-dir", "-resume", "-checkpoint-retain", "-members-out", "-die-at", "-flight-dir",
		"-chaos", "-chaos-seed", "-flap-limit", "-max-fleet-restarts", "-degraded-fallback"} {
		if !strings.Contains(got, "\n  "+flagName) {
			t.Errorf("usage output missing %s", flagName)
		}
	}
}

// TestVersionFlag checks every spelling of the version request.
func TestVersionFlag(t *testing.T) {
	for _, arg := range []string{"-version", "--version", "version"} {
		if err := run([]string{arg}); err != nil {
			t.Errorf("%s: %v", arg, err)
		}
	}
}

// TestTraceFileHasHeader: traces written by the CLI start with a schema
// header carrying the run parameters and the build stamp, and remain fully
// readable through the trace cursor.
func TestTraceFileHasHeader(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	if err := run([]string{"run", "-algo", "det2", "-spec", "gnp:n=200,p=0.02",
		"-chunk", "4", "-algo-seed", "7", "-machines", "4", "-trace", out, "-verify=false"}); err != nil {
		t.Fatal(err)
	}
	hdr, evs, err := trace.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != trace.Schema {
		t.Errorf("header schema %q", hdr.Schema)
	}
	if hdr.Algo != "det2" || hdr.Spec != "gnp:n=200,p=0.02" || hdr.Seed != 7 || hdr.Machines != 4 {
		t.Errorf("header run parameters wrong: %+v", hdr)
	}
	if len(hdr.Build) == 0 || !strings.Contains(string(hdr.Build), "go_version") {
		t.Errorf("header missing build stamp: %s", hdr.Build)
	}
	if len(evs) == 0 {
		t.Error("no events after header")
	}
}

// TestDebugServer drives the live-introspection endpoint end to end: start
// on an ephemeral port, feed the collector a span change and a committed
// round, and read them back from /metrics, plus the JSON snapshot and the
// pprof index. The legacy expvar route is gone.
func TestDebugServer(t *testing.T) {
	get := func(url string, want int) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", url, resp.StatusCode, want)
		}
		return b.String()
	}
	col := telemetry.NewCollector(telemetry.CollectorOptions{})
	col.SpanChange("sparsify")
	col.Superstep(trace.Event{Round: 3, Step: "mark", Span: "sparsify", Words: 12, Sent: []int{12}, Recv: []int{12}})
	ln, err := startDebugServer("127.0.0.1:0", col)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	if prom := get(base+"/metrics", http.StatusOK); !strings.Contains(prom, "mprs_committed_round 3") ||
		!strings.Contains(prom, `mprs_current_span{span="sparsify"} 1`) ||
		!strings.Contains(prom, "# TYPE mprs_words_total counter") {
		t.Errorf("prometheus exposition missing series:\n%s", prom)
	}
	if snap := get(base+"/telemetry.json", http.StatusOK); !strings.Contains(snap, `"schema":"mprs-telemetry/1"`) ||
		!strings.Contains(snap, `"mprs_committed_round"`) {
		t.Errorf("telemetry snapshot missing series:\n%s", snap)
	}
	if idx := get(base+"/debug/pprof/", http.StatusOK); !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index not served:\n%s", idx)
	}
	get(base+"/debug/vars", http.StatusNotFound)
}

// TestRunDebugAddrFlag exercises the -debug-addr flag through the CLI path.
func TestRunDebugAddrFlag(t *testing.T) {
	errOut := captureStderr(t, func() {
		if err := run([]string{"run", "-algo", "det2", "-spec", "gnp:n=200,p=0.02",
			"-chunk", "4", "-debug-addr", "127.0.0.1:0", "-verify=false"}); err != nil {
			t.Errorf("run with -debug-addr: %v", err)
		}
	})
	if !strings.Contains(errOut, "debug server on http://127.0.0.1:") {
		t.Errorf("debug address not reported on stderr: %q", errOut)
	}
}

// TestRunTelemetryObserverEquivalence is the in-process observer contract:
// a run with telemetry fully enabled (-debug-addr wires the collector into
// the tracer fan-out and meters the checkpoint sink) produces bit-identical
// members, canonical stats, trace bytes and checkpoint files to a run
// without it.
func TestRunTelemetryObserverEquivalence(t *testing.T) {
	dir := t.TempDir()
	artifacts := func(sub string, extra ...string) (members, stats, trace, ckpt string) {
		base := filepath.Join(dir, sub)
		members = base + ".members"
		stats = base + ".stats.json"
		trace = base + ".trace"
		ckpt = base + ".ck"
		args := []string{"run", "-algo", "det2", "-spec", "gnp:n=400,p=0.01",
			"-chunk", "4", "-verify=false",
			"-members-out", members, "-stats-out", stats, "-trace", trace,
			"-checkpoint-dir", ckpt, "-checkpoint-every", "4"}
		args = append(args, extra...)
		errOut := captureStderr(t, func() {
			if err := run(args); err != nil {
				t.Errorf("run %s: %v", sub, err)
			}
		})
		_ = errOut
		return
	}
	offM, offS, offT, offCk := artifacts("off")
	onM, onS, onT, onCk := artifacts("on", "-debug-addr", "127.0.0.1:0", "-flight-dir", filepath.Join(dir, "flights"))

	for _, pair := range [][2]string{{offM, onM}, {offS, onS}, {offT, onT}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("%s empty", pair[0])
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ: telemetry perturbed a deterministic artifact", pair[0], pair[1])
		}
	}
	// Checkpoint files must match name-for-name, byte-for-byte.
	offFiles, err := os.ReadDir(offCk)
	if err != nil {
		t.Fatal(err)
	}
	if len(offFiles) == 0 {
		t.Fatal("no checkpoints written")
	}
	for _, f := range offFiles {
		a, err := os.ReadFile(filepath.Join(offCk, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(onCk, f.Name()))
		if err != nil {
			t.Fatalf("checkpoint %s missing with telemetry on: %v", f.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("checkpoint %s differs with telemetry on", f.Name())
		}
	}
	// A successful run leaves no post-mortem.
	if entries, err := os.ReadDir(filepath.Join(dir, "flights")); err == nil && len(entries) > 0 {
		t.Errorf("successful run wrote flight artifacts: %v", entries)
	}
}

// TestRunFlightDirWritesPostMortem drives the in-process flight recorder: a
// failing run (budget violations) with -flight-dir must leave a parseable
// mprs-flight/1 artifact holding the last supersteps before the failure.
func TestRunFlightDirWritesPostMortem(t *testing.T) {
	flights := filepath.Join(t.TempDir(), "flights")
	var runErr error
	captureStderr(t, func() {
		runErr = run([]string{"run", "-algo", "rand2", "-spec", "gnp:n=2000,p=0.004",
			"-regime", "sublinear", "-epsilon", "0.5", "-verify=false", "-flight-dir", flights})
	})
	if runErr == nil {
		t.Fatal("violating run must fail")
	}
	path := filepath.Join(flights, "flight-w-1-a0.jsonl")
	hdr, evs, err := telemetry.ReadFlightFile(path)
	if err != nil {
		t.Fatalf("flight artifact: %v", err)
	}
	if hdr.Kind != "error" || hdr.Worker != -1 {
		t.Errorf("flight header = %+v", hdr)
	}
	if !strings.Contains(hdr.Reason, "budget violation") {
		t.Errorf("flight reason %q does not carry the failure", hdr.Reason)
	}
	if len(evs) == 0 {
		t.Error("flight artifact holds no supersteps")
	}
	if hdr.Round == 0 || hdr.Round != evs[len(evs)-1].Round {
		t.Errorf("flight round %d does not match last event %d", hdr.Round, evs[len(evs)-1].Round)
	}
}
