package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/trace"
)

// genTestGraph writes a small generated graph to a file and returns its path,
// so checkpointed runs and their resumes load bit-identical input.
func genTestGraph(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "g.txt")
	if err := run([]string{"gen", "-spec", "gnp:n=300,p=0.02", "-seed", "3", "-o", file}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	return file
}

func TestRunDurableFlagValidation(t *testing.T) {
	g := genTestGraph(t)
	dir := t.TempDir()

	if err := run([]string{"run", "-algo", "det2", "-in", g, "-resume"}); err == nil ||
		!strings.Contains(err.Error(), "-resume requires -checkpoint-dir") {
		t.Errorf("-resume without -checkpoint-dir: err = %v", err)
	}
	// Resuming from an empty directory is a hard error, not a silent fresh run.
	err := run([]string{"run", "-algo", "det2", "-in", g, "-checkpoint-dir", dir, "-resume"})
	if err == nil || !strings.Contains(err.Error(), "no valid checkpoint") {
		t.Errorf("-resume with empty dir: err = %v", err)
	}
}

// TestAlgorithmTableGates: the -algo names come from rulingset.Algorithms
// (plus greedy), and every MPC entry of the table, and no other, takes
// -checkpoint-dir and the multi-process backend.
func TestAlgorithmTableGates(t *testing.T) {
	if got, want := algoUsage(), "luby|detluby|rand2|det2|randbeta|detbeta|clique2|cliquedet2|greedy"; got != want {
		t.Errorf("-algo usage = %q, want %q", got, want)
	}
	g := genTestGraph(t)
	for _, algo := range strings.Split(algoUsage(), "|") {
		a, _ := rulingset.LookupAlgorithm(algo) // greedy keeps the zero entry
		vErr := supervise.JobSpec{Algo: algo, GraphFile: g, Machines: 8}.Validate()
		cErr := run([]string{"run", "-algo", algo, "-in", g, "-chunk", "4", "-checkpoint-dir", t.TempDir()})
		if a.Run != nil && !a.Clique {
			if vErr != nil {
				t.Errorf("%s: JobSpec.Validate: %v", algo, vErr)
			}
			if cErr != nil {
				t.Errorf("%s: -checkpoint-dir: %v", algo, cErr)
			}
			continue
		}
		if vErr == nil || !strings.Contains(vErr.Error(), "not supported on the multi-process backend") {
			t.Errorf("%s: JobSpec.Validate: err = %v", algo, vErr)
		}
		if cErr == nil || !strings.Contains(cErr.Error(), "does not support durable") {
			t.Errorf("%s: -checkpoint-dir: err = %v", algo, cErr)
		}
	}
}

// TestRunDurableResumeInProcess checkpoints a full run, then resumes from the
// newest durable checkpoint and checks the member list is byte-identical —
// the CLI end of the resume bit-identity contract.
func TestRunDurableResumeInProcess(t *testing.T) {
	g := genTestGraph(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.txt")
	resumed := filepath.Join(dir, "resumed.txt")
	ckpt := filepath.Join(dir, "ckpt")

	base := []string{"run", "-algo", "det2", "-in", g, "-chunk", "4",
		"-checkpoint-dir", ckpt, "-checkpoint-every", "4"}
	if err := run(append(base, "-members-out", full)); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	var resumeErr error
	errOut := captureStderr(t, func() {
		resumeErr = run(append(base, "-resume", "-members-out", resumed))
	})
	if resumeErr != nil {
		t.Fatalf("resumed run: %v", resumeErr)
	}
	if !strings.Contains(errOut, "resuming from durable checkpoint at round") {
		t.Errorf("resume not announced on stderr: %q", errOut)
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("resumed members differ from uninterrupted run (%d vs %d bytes)", len(a), len(b))
	}

	// A different chunk width is a different fingerprint for det2: resuming
	// must be refused rather than replaying the wrong configuration.
	err = run(append(base, "-chunk", "6", "-resume"))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch not rejected: %v", err)
	}
}

// TestRunFingerprintFaults: only -chaos's machine: part, with its seed,
// enters the checkpoint fingerprint, so a checkpoint refuses a different
// model-fault schedule but not different wire, disk or proc chaos.
func TestRunFingerprintFaults(t *testing.T) {
	fp := func(spec string, seed int64) string {
		return supervise.JobSpec{Algo: "det2", GraphSpec: "gnp:n=300,p=0.02", GenSeed: 3, Machines: 8, CheckpointEvery: 4, Chaos: spec, ChaosSeed: seed}.Fingerprint()
	}
	base := fp("machine:crash=0.01,machine:crash@2:1,disk:torn@4:0", 7)
	for _, tc := range []struct {
		spec string
		seed int64
		same bool
	}{
		{"machine:crash=0.01,machine:crash@2:1,disk:torn@8:0", 7, true},
		{" machine:crash=0.01, wire:dup@5:1,machine:crash@2:1,proc:kill@6:0", 7, true},
		{"machine:crash=0.01,machine:crash@3:1,disk:torn@4:0", 7, false},
		{"machine:crash=0.01,machine:crash@2:1,disk:torn@4:0", 8, false},
		{"disk:torn@4:0", 7, false},
	} {
		if got := fp(tc.spec, tc.seed); (got == base) != tc.same {
			t.Errorf("-chaos %q -chaos-seed %d: fingerprint %q, same as base = %t, want %t", tc.spec, tc.seed, got, got == base, tc.same)
		}
	}
	// Without machine: parts the seed is not part of the fingerprint.
	if a, b := fp("disk:torn@4:0", 7), fp("", 1); a != b {
		t.Errorf("substrate-only plan changed the fingerprint: %q vs %q", a, b)
	}
}

// TestRunFingerprintMatchesJobSpec: the CLI's in-process checkpoints and
// the multi-process workers' stamp one fingerprint. A checkpointed CLI run
// with every replay knob off its default writes what JobSpec.Fingerprint
// renders for the same job.
func TestRunFingerprintMatchesJobSpec(t *testing.T) {
	g := genTestGraph(t)
	dir := filepath.Join(t.TempDir(), "ck")
	if err := run([]string{"run", "-algo", "det2", "-in", g, "-seed", "3", "-machines", "6",
		"-regime", "explicit", "-epsilon", "0.25", "-memory", "4000", "-slack", "6", "-chunk", "4",
		"-algo-seed", "9", "-beta", "5", "-strict", "-chaos", "machine:crash@2:5", "-chaos-seed", "7",
		"-checkpoint-every", "4", "-checkpoint-dir", dir, "-verify=false"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var meta durable.Meta
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".ckpt") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		meta, _, err = durable.Decode(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	spec := supervise.JobSpec{
		Algo: "det2", Beta: 5, GraphFile: g, GenSeed: 3, Machines: 6, Regime: int(mpc.RegimeExplicit),
		Epsilon: 0.25, MemoryWords: 4000, LinearSlack: 6, ChunkBits: 4, AlgoSeed: 9, Strict: true,
		Chaos: "machine:crash@2:5", ChaosSeed: 7, CheckpointEvery: 4,
	}
	if want := spec.Fingerprint(); meta.Fingerprint != want {
		t.Fatalf("fingerprints differ:\nCLI      %q\nJobSpec  %q", meta.Fingerprint, want)
	}
}

// TestRunChaosInProcLayers: the in-process backend applies -chaos machine:
// faults (machine ids are simulated machines, not workers) and rejects the
// layers it cannot honour.
func TestRunChaosInProcLayers(t *testing.T) {
	g := genTestGraph(t)
	stats := filepath.Join(t.TempDir(), "stats.json")
	if err := run([]string{"run", "-algo", "det2", "-in", g, "-chunk", "4", "-checkpoint-every", "4",
		"-chaos", "machine:crash@2:5,machine:crash@3:1", "-chaos-seed", "7", "-stats-out", stats}); err != nil {
		t.Fatalf("machine: faults in-process: %v", err)
	}
	b, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"RecoveredCrashes": 2,`) {
		t.Errorf("machine:crash@2:5,machine:crash@3:1 not applied:\n%s", b)
	}
	for _, plan := range []string{"wire:dup@2:0", "proc:kill@3:0", "disk:torn@4:1"} {
		err := run([]string{"run", "-algo", "det2", "-in", g, "-chaos", plan})
		if err == nil || !strings.Contains(err.Error(), "backend inproc accepts") {
			t.Errorf("-chaos %s in-process: err = %v", plan, err)
		}
	}
}

// TestRunChaosRejectsRemovedMachineFaults: the simulated drop, dup and
// stall faults are gone from the machine: layer; the CLI refuses each of
// their forms before running and names the wire: event to use instead.
func TestRunChaosRejectsRemovedMachineFaults(t *testing.T) {
	g := genTestGraph(t)
	for plan, wire := range map[string]string{
		"machine:drop=0.01":  "wire:delay@",
		"machine:dup=0.01":   "wire:dup@",
		"machine:stall@2:0":  "wire:delay@",
		"machine:drop@3:1>0": "wire:delay@",
	} {
		err := run([]string{"run", "-algo", "det2", "-in", g, "-chaos", plan})
		if err == nil || !strings.Contains(err.Error(), wire) {
			t.Errorf("-chaos %s: err = %v, want it to name %s", plan, err, wire)
		}
	}
}

// buildCLI compiles the mprs binary once per test into a temp dir, for tests
// that need a real process to kill.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mprs")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRunDieAtResumeSubprocess is the crash-restart integration test: run the
// real binary with -checkpoint-dir and -die-at so it exits with status 7
// mid-run (after durable checkpoints hit disk), then -resume in a fresh
// process and require the member list and the spliced trace to match an
// uninterrupted run byte for byte.
func TestRunDieAtResumeSubprocess(t *testing.T) {
	bin := buildCLI(t)
	g := genTestGraph(t)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.txt")
	fullTrace := filepath.Join(dir, "full.jsonl")
	resumed := filepath.Join(dir, "resumed.txt")
	resumedTrace := filepath.Join(dir, "resumed.jsonl")
	ckpt := filepath.Join(dir, "ckpt")

	base := []string{"run", "-algo", "det2", "-in", g, "-chunk", "4", "-checkpoint-every", "4"}
	mustRun := func(args ...string) {
		t.Helper()
		cmd := hardenedCommand(t, bin, append(base, args...)...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
	}

	mustRun("-members-out", full, "-trace", fullTrace)

	killed := hardenedCommand(t, bin, append(base, "-checkpoint-dir", ckpt, "-die-at", "12")...)
	out, err := killed.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 7 {
		t.Fatalf("-die-at run: want exit status 7, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "simulated crash at round") {
		t.Fatalf("-die-at did not announce the crash:\n%s", out)
	}

	mustRun("-checkpoint-dir", ckpt, "-resume", "-members-out", resumed, "-trace", resumedTrace)

	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("post-crash resume changed the ruling set (%d vs %d bytes)", len(a), len(b))
	}

	// Trace splice: the resumed trace declares its resume round in the header
	// and carries exactly the uninterrupted trace's events after that round.
	hdr, evs, err := trace.ReadFile(resumedTrace)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ResumedFrom <= 0 {
		t.Fatalf("resumed trace header missing resumed_from: %+v", hdr)
	}
	_, fullEvs, err := trace.ReadFile(fullTrace)
	if err != nil {
		t.Fatal(err)
	}
	var tail []trace.Event
	for _, ev := range fullEvs {
		if ev.Round > hdr.ResumedFrom {
			tail = append(tail, ev)
		}
	}
	if len(evs) == 0 || len(evs) != len(tail) {
		t.Fatalf("spliced trace has %d events, want %d (resumed from %d)", len(evs), len(tail), hdr.ResumedFrom)
	}
	for i := range evs {
		if evs[i].Round != tail[i].Round || evs[i].Step != tail[i].Step || evs[i].Words != tail[i].Words {
			t.Fatalf("spliced event %d differs: %+v vs %+v", i, evs[i], tail[i])
		}
	}

	// The checkpoint directory holds CRC-framed files plus a manifest, and
	// respects the default retention.
	files, err := filepath.Glob(filepath.Join(ckpt, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(files) > 3 {
		t.Fatalf("retention violated: %d checkpoint files %v", len(files), files)
	}
}

// TestRunResumeIgnoresUnreadFlags: a flag the algorithm does not read stays
// out of the checkpoint fingerprint, so changing it on -resume continues the
// interrupted run. rand2 never reads the chunk width, and det2 never reads
// beta; each resumed run finishes with the uninterrupted run's members.
func TestRunResumeIgnoresUnreadFlags(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct {
		name   string
		job    []string
		dieAt  string
		change []string
	}{
		{"rand2 -chunk", []string{"-algo", "rand2"}, "8", []string{"-chunk", "4"}},
		{"det2 -beta", []string{"-algo", "det2", "-chunk", "4"}, "12", []string{"-beta", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			full, resumed := filepath.Join(dir, "full.txt"), filepath.Join(dir, "resumed.txt")
			job := append([]string{"run", "-spec", "gnp:n=512,p=0.02"}, tc.job...)
			ckpt := append(append([]string(nil), job...), "-checkpoint-dir", filepath.Join(dir, "ck"))
			if out, err := hardenedCommand(t, bin, append(job, "-members-out", full)...).CombinedOutput(); err != nil {
				t.Fatalf("uninterrupted run: %v\n%s", err, out)
			}
			out, err := hardenedCommand(t, bin, append(ckpt, "-die-at", tc.dieAt)...).CombinedOutput()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 7 {
				t.Fatalf("-die-at %s: want exit status 7, got %v\n%s", tc.dieAt, err, out)
			}
			args := append(append(ckpt, tc.change...), "-resume", "-members-out", resumed)
			if out, err := hardenedCommand(t, bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("resume with %v: %v\n%s", tc.change, err, out)
			}
			a, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("resume with %v changed the ruling set (%d vs %d bytes)", tc.change, len(a), len(b))
			}
		})
	}
}
