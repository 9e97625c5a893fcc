package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunMultiprocFlagValidation(t *testing.T) {
	g := genTestGraph(t)
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown backend":  {[]string{"-backend", "threads"}, "unknown backend"},
		"unsupported algo": {[]string{"-backend", "multiproc", "-algo", "cliquedet2"}, "not supported on the multi-process backend"},
		"resume":           {[]string{"-backend", "multiproc", "-checkpoint-dir", t.TempDir(), "-resume"}, "owned by the supervisor"},
		"die-at":           {[]string{"-backend", "multiproc", "-die-at", "5"}, "-chaos proc:kill@r:w"},
		"profile":          {[]string{"-backend", "multiproc", "-profile", "p"}, "-backend inproc"},
		"bad kill spec":    {[]string{"-backend", "multiproc", "-chaos", "proc:kill@5"}, "OP@ROUND:WORKER"},
		"too many workers": {[]string{"-backend", "multiproc", "-machines", "4", "-workers", "8"}, "must own at least one machine"},
	} {
		t.Run(name, func(t *testing.T) {
			err := run(append([]string{"run", "-algo", "det2", "-in", g}, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestRunMultiprocSubprocess is the CLI end of the cross-backend contract:
// the real binary, run with -backend multiproc and a worker killed mid-job,
// produces members, canonical stats and trace files byte-identical to its
// own in-process run.
func TestRunMultiprocSubprocess(t *testing.T) {
	bin := buildCLI(t)
	g := genTestGraph(t)
	dir := t.TempDir()

	base := []string{"run", "-algo", "det2", "-in", g, "-chunk", "4", "-checkpoint-every", "4"}
	inMembers := filepath.Join(dir, "in.members")
	inStats := filepath.Join(dir, "in.stats")
	inTrace := filepath.Join(dir, "in.trace")
	cmd := hardenedCommand(t, bin, append(base,
		"-checkpoint-dir", filepath.Join(dir, "ck-in"),
		"-members-out", inMembers, "-stats-out", inStats, "-trace", inTrace)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("inproc run: %v\n%s", err, out)
	}

	mpMembers := filepath.Join(dir, "mp.members")
	mpStats := filepath.Join(dir, "mp.stats")
	mpTrace := filepath.Join(dir, "mp.trace")
	lifecycle := filepath.Join(dir, "mp.lifecycle")
	cmd = hardenedCommand(t, bin, append(base,
		"-backend", "multiproc", "-workers", "3", "-heartbeat", "5s",
		"-checkpoint-dir", filepath.Join(dir, "ck-mp"),
		"-chaos", "proc:kill@10:1", "-max-restarts", "2",
		"-lifecycle-trace", lifecycle,
		"-members-out", mpMembers, "-stats-out", mpStats, "-trace", mpTrace)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("multiproc run: %v\n%s", err, out)
	}

	for _, pair := range [][2]string{{inMembers, mpMembers}, {inStats, mpStats}, {inTrace, mpTrace}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ (%d vs %d bytes)", pair[0], pair[1], len(a), len(b))
		}
	}

	life, err := os.ReadFile(lifecycle)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mprs-lifecycle/1", `"kind":"kill"`, `"kind":"restart"`, `"kind":"done"`} {
		if !strings.Contains(string(life), want) {
			t.Errorf("lifecycle missing %s:\n%s", want, life)
		}
	}
}

// TestRunMultiprocRoundsReadTrace: without -trace, a multiproc job's
// -rounds and -spans read a temporary trace file, and print the same round
// log and span table as the in-process run.
func TestRunMultiprocRoundsReadTrace(t *testing.T) {
	bin := buildCLI(t)
	g := genTestGraph(t)
	tables := func(extra ...string) string {
		args := append([]string{"run", "-algo", "det2", "-in", g, "-chunk", "4", "-rounds", "-spans"}, extra...)
		out, err := hardenedCommand(t, bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", extra, err, out)
		}
		from := strings.Index(string(out), "round log")
		to := strings.Index(string(out), "verified:")
		if from < 0 || to < from || !strings.Contains(string(out[from:to]), "span skew") {
			t.Fatalf("%v: no round log and span table:\n%s", extra, out)
		}
		return string(out[from:to])
	}
	in := tables()
	if mp := tables("-backend", "multiproc", "-workers", "2", "-heartbeat", "5s"); mp != in {
		t.Errorf("multiproc tables differ from inproc:\n%s\nvs\n%s", mp, in)
	}
}

// TestRunMultiprocFailFastSubprocess: -max-restarts 0 turns the injected
// kill into a structured supervisor abort with a non-zero exit.
func TestRunMultiprocFailFastSubprocess(t *testing.T) {
	bin := buildCLI(t)
	g := genTestGraph(t)
	cmd := hardenedCommand(t, bin, "run", "-algo", "det2", "-in", g, "-chunk", "4",
		"-backend", "multiproc", "-workers", "2", "-heartbeat", "5s",
		"-chaos", "proc:kill@8:1", "-max-restarts", "0")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("fail-fast kill exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "supervisor abort") || !strings.Contains(string(out), "committed rounds") {
		t.Fatalf("abort not reported:\n%s", out)
	}
}
