package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/trace"
)

// TestMain doubles as the worker entry point: the supervisor's SelfExec
// re-executes this test binary with the WorkerEnv in the environment, and the
// worker runs before any test would.
func TestMain(m *testing.M) {
	if blob := os.Getenv(EnvSpec); blob != "" {
		var env WorkerEnv
		if err := json.Unmarshal([]byte(blob), &env); err != nil {
			os.Exit(3)
		}
		if err := WorkerMain(env, os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testSpec is the quick-tier workload every supervisor test runs: small
// enough to finish in well under a second per run, large enough to take
// dozens of supersteps so mid-run kills land inside the computation.
func testSpec(t *testing.T, algo string) JobSpec {
	t.Helper()
	return JobSpec{
		Algo:      algo,
		GraphSpec: "gnp:n=512,p=0.03",
		GenSeed:   1,
		Machines:  8,
		AlgoSeed:  1,
		ChunkBits: 8,
	}
}

// runInProc runs spec on InProc over the graph the spec describes.
func runInProc(t *testing.T, spec JobSpec) (rulingset.Result, error) {
	t.Helper()
	g, err := spec.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	return InProc{}.Run(spec, g)
}

// testConfig is the supervisor configuration every test starts from: a hard
// wall-clock timeout so a wedged run fails loudly instead of hanging the
// suite, and a heartbeat short enough to keep stall detection honest.
func testConfig(workers int) Config {
	return Config{
		Workers:   workers,
		Heartbeat: 3 * time.Second,
		Timeout:   60 * time.Second,
		Spawn:     SelfExec(),
	}
}

func TestJobSpecValidate(t *testing.T) {
	good := JobSpec{Algo: "det2", GraphSpec: "gnp:n=64,p=0.1", Machines: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	beta := JobSpec{Algo: "detbeta", Beta: 3, GraphSpec: "g", Machines: 4}
	if err := beta.Validate(); err != nil {
		t.Fatalf("detbeta spec rejected: %v", err)
	}
	beta4 := beta
	beta4.Beta = 4
	if beta4.Fingerprint() == beta.Fingerprint() {
		t.Error("Beta does not enter the fingerprint")
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"clique algo", JobSpec{Algo: "cliquedet2", GraphSpec: "g", Machines: 4}},
		{"unknown algo", JobSpec{Algo: "nope", GraphSpec: "g", Machines: 4}},
		{"no graph", JobSpec{Algo: "det2", Machines: 4}},
		{"both graphs", JobSpec{Algo: "det2", GraphSpec: "g", GraphFile: "f", Machines: 4}},
		{"no machines", JobSpec{Algo: "det2", GraphSpec: "g"}},
		{"dir without k", JobSpec{Algo: "det2", GraphSpec: "g", Machines: 4, CheckpointDir: "d"}},
	} {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestJobSpecFingerprintFaults: only the machine: part of Chaos, with its
// seed, enters the fingerprint, so a worker's checkpoint refuses a different
// model-fault schedule but not different wire, disk or proc chaos.
func TestJobSpecFingerprintFaults(t *testing.T) {
	fp := func(plan string, seed int64) string {
		s := testSpec(t, "det2")
		s.Chaos, s.ChaosSeed = plan, seed
		return s.Fingerprint()
	}
	base := fp("machine:crash=0.02,machine:crash@1:0,disk:torn@4:1", 7)
	for _, tc := range []struct {
		plan string
		seed int64
		same bool
	}{
		{"machine:crash=0.02,machine:crash@1:0,disk:torn@8:1", 7, true},
		{"machine:crash=0.02,machine:crash@1:0,proc:kill@10:1,wire:dup@6:0", 7, true},
		{"machine:crash=0.02,machine:crash@2:0,disk:torn@4:1", 7, false},
		{"machine:crash=0.02,machine:crash@1:0,disk:torn@4:1", 8, false},
		{"machine:crash=0.03,machine:crash@1:0,disk:torn@4:1", 7, false},
		{"disk:torn@4:1", 7, false},
	} {
		if got := fp(tc.plan, tc.seed); (got == base) != tc.same {
			t.Errorf("Chaos %q seed %d: fingerprint %q, same as base = %t, want %t", tc.plan, tc.seed, got, got == base, tc.same)
		}
	}
	if a, b := fp("proc:kill@10:1", 7), fp("", 0); a != b {
		t.Errorf("substrate-only plan changed the fingerprint: %q vs %q", a, b)
	}
}

// TestMultiProcMachineFaults: the workers replay the spec's machine: faults
// exactly as the in-process backend does, recovery counters included.
func TestMultiProcMachineFaults(t *testing.T) {
	spec := withChaos(testSpec(t, "det2"), "machine:crash=0.05,machine:crash@1:0,machine:crash@3:2")
	spec.CheckpointEvery = 4
	inRes, err := runInProc(t, spec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	if inRes.Stats.RecoveredCrashes <= 2 {
		t.Fatalf("machine faults not applied: %+v", inRes.Stats)
	}
	res, err := Run(spec, testConfig(2))
	if err != nil {
		t.Fatalf("multiproc: %v", err)
	}
	requireSameResult(t, inRes, res)
}

// TestMultiProcEquivalence is the backend bit-identity contract: for each
// supported algorithm, the multi-process backend's Members, canonical Stats
// and trace bytes equal the in-process backend's exactly. The in-process
// reference runs on the serial step path (Parallelism 1) while the workers
// run with a parallelism-4 step pool, so the comparison spans backends AND
// parallelism levels at once.
func TestMultiProcEquivalence(t *testing.T) {
	for _, algo := range []string{"det2", "luby"} {
		t.Run(algo, func(t *testing.T) {
			dir := t.TempDir()
			inSpec := testSpec(t, algo)
			inSpec.Parallelism = 1
			inSpec.TraceFile = filepath.Join(dir, "in.trace")
			inRes, err := runInProc(t, inSpec)
			if err != nil {
				t.Fatalf("inproc: %v", err)
			}

			mpSpec := testSpec(t, algo)
			mpSpec.Parallelism = 4
			mpSpec.TraceFile = filepath.Join(dir, "mp.trace")
			mpRes, err := MultiProc{Config: testConfig(3)}.Run(mpSpec)
			if err != nil {
				t.Fatalf("multiproc: %v", err)
			}

			requireSameResult(t, inRes, mpRes)
			requireSameFile(t, inSpec.TraceFile, mpSpec.TraceFile)
		})
	}
}

// TestMultiProcKillRestart kills real worker processes mid-run — first a
// follower, then worker 0 (the trace writer) — and requires the restarted
// run to stay bit-identical to an uninterrupted in-process run with the same
// checkpoint cadence.
func TestMultiProcKillRestart(t *testing.T) {
	dir := t.TempDir()
	inSpec := testSpec(t, "det2")
	inSpec.CheckpointEvery = 4
	inSpec.CheckpointDir = filepath.Join(dir, "ck-in")
	inSpec.TraceFile = filepath.Join(dir, "in.trace")
	inRes, err := runInProc(t, inSpec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}

	for _, tc := range []struct {
		name  string
		kills string
	}{
		{"follower", "proc:kill@10:1"},
		{"trace-writer", "proc:kill@12:0"},
		{"two-workers", "proc:kill@6:1,proc:kill@14:2"},
	} {
		kills := tc.kills
		t.Run(tc.name, func(t *testing.T) {
			sub := t.TempDir()
			spec := testSpec(t, "det2")
			spec.CheckpointEvery = 4
			spec.CheckpointDir = filepath.Join(sub, "ck")
			spec.TraceFile = filepath.Join(sub, "mp.trace")

			var lifecycle bytes.Buffer
			cfg := testConfig(3)
			cfg.MaxRestarts = 2
			cfg.BackoffInitial = 20 * time.Millisecond
			cfg.Lifecycle = &lifecycle

			res, err := Run(withChaos(spec, kills), cfg)
			if err != nil {
				t.Fatalf("multiproc with kills %v: %v\nlifecycle:\n%s", kills, err, lifecycle.String())
			}
			requireSameResult(t, inRes, res)
			requireSameFile(t, inSpec.TraceFile, spec.TraceFile)

			life := lifecycle.String()
			for _, want := range []string{`"kind":"kill"`, `"kind":"crash"`, `"kind":"backoff"`, `"kind":"restart"`, `"kind":"done"`} {
				if !strings.Contains(life, want) {
					t.Errorf("lifecycle missing %s:\n%s", want, life)
				}
			}
		})
	}
}

// TestMultiProcBetaKillRestart: detbeta runs every level on one cluster,
// so it runs on the multi-process backend like every other MPC driver. A
// worker killed after the first beta/view round restarts from its
// checkpoint, and members, canonical Stats and trace bytes equal the
// in-process run's.
func TestMultiProcBetaKillRestart(t *testing.T) {
	dir := t.TempDir()
	spec := func(sub string) JobSpec {
		s := testSpec(t, "detbeta")
		s.Beta, s.ChunkBits = 3, 4
		s.CheckpointEvery = 4
		s.CheckpointDir = filepath.Join(dir, sub, "ck")
		s.TraceFile = filepath.Join(dir, sub+".trace")
		return s
	}
	inSpec := spec("in")
	inRes, err := runInProc(t, inSpec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	if inRes.Beta != 3 {
		t.Fatalf("inproc ran beta %d, want 3", inRes.Beta)
	}
	_, evs, err := trace.ReadFile(inSpec.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	view := 0
	for _, ev := range evs {
		if ev.Step == "beta/view" {
			view = ev.Round
			break
		}
	}
	if view == 0 {
		t.Fatal("in-process detbeta run has no beta/view round")
	}

	mpSpec := spec("mp")
	var lifecycle bytes.Buffer
	cfg := testConfig(2)
	cfg.MaxRestarts = 1
	cfg.BackoffInitial = 20 * time.Millisecond
	cfg.Lifecycle = &lifecycle
	res, err := Run(withChaos(mpSpec, fmt.Sprintf("proc:kill@%d:1", view+3)), cfg)
	if err != nil {
		t.Fatalf("multiproc: %v\nlifecycle:\n%s", err, lifecycle.String())
	}
	requireSameResult(t, inRes, res)
	requireSameFile(t, inSpec.TraceFile, mpSpec.TraceFile)
	if !strings.Contains(lifecycle.String(), `"kind":"restart"`) {
		t.Errorf("lifecycle records no restart:\n%s", lifecycle.String())
	}
}

// kindStamps is a lifecycle sink recording when each event kind was first
// written. The supervisor writes the lifecycle from the goroutine that
// called Run, so it needs no lock.
type kindStamps map[string]time.Time

func (k kindStamps) Write(b []byte) (int, error) {
	var ev struct {
		Kind string `json:"kind"`
	}
	if json.Unmarshal(b, &ev) == nil && ev.Kind != "" {
		if _, ok := k[ev.Kind]; !ok {
			k[ev.Kind] = time.Now()
		}
	}
	return len(b), nil
}

// TestMultiProcRestartsWhenBackoffEnds: a killed worker is spawned again
// when its backoff ends, not at the next supervisor tick. With a 10 s
// heartbeat the first tick comes 2.5 s into the run; the restart must come
// long before it.
func TestMultiProcRestartsWhenBackoffEnds(t *testing.T) {
	cfg := testConfig(2)
	cfg.Heartbeat = 10 * time.Second
	cfg.BackoffInitial = 100 * time.Millisecond
	cfg.MaxRestarts = 1
	life := kindStamps{}
	cfg.Lifecycle = life
	start := time.Now()
	if _, err := Run(withChaos(testSpec(t, "det2"), "proc:kill@8:1"), cfg); err != nil {
		t.Fatalf("multiproc: %v", err)
	}
	backoff, restart := life["backoff"], life["restart"]
	if backoff.IsZero() || restart.IsZero() {
		t.Fatalf("lifecycle has no backoff and restart: %v", life)
	}
	if firstTick := start.Add(cfg.Heartbeat / 4); !restart.Before(firstTick) {
		t.Fatalf("restart %v after the backoff began (backoff %v), %v into the run; want it at the backoff's end, before the first tick at %v",
			restart.Sub(backoff), cfg.BackoffInitial, restart.Sub(start), cfg.Heartbeat/4)
	}
}

// TestMultiProcRestartWithoutCheckpoints: no checkpoint dir means a killed
// worker recomputes from round 1 — slower, still bit-identical.
func TestMultiProcRestartWithoutCheckpoints(t *testing.T) {
	inRes, err := runInProc(t, testSpec(t, "det2"))
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	cfg := testConfig(2)
	cfg.MaxRestarts = 1
	cfg.BackoffInitial = 20 * time.Millisecond
	res, err := Run(withChaos(testSpec(t, "det2"), "proc:kill@8:1"), cfg)
	if err != nil {
		t.Fatalf("multiproc: %v", err)
	}
	requireSameResult(t, inRes, res)
}

// TestMultiProcFailFast: MaxRestarts 0 aborts on the first kill with a
// structured SupervisorError carrying the committed round and harvested
// Stats from a surviving worker.
func TestMultiProcFailFast(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxRestarts = 0
	_, err := Run(withChaos(testSpec(t, "det2"), "proc:kill@10:1"), cfg)
	var serr *SupervisorError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SupervisorError, got %v", err)
	}
	if serr.Worker != 1 || serr.Attempts != 0 {
		t.Errorf("SupervisorError identity: %+v", serr)
	}
	if serr.CommittedRound <= 0 {
		t.Errorf("CommittedRound = %d, want > 0", serr.CommittedRound)
	}
	if serr.Stats.Rounds == 0 {
		t.Errorf("Stats not harvested from a survivor: %+v", serr.Stats)
	}
}

// TestMultiProcRestartBudgetExhausted: more kills than restarts aborts with
// the failing worker's attempt count.
func TestMultiProcRestartBudgetExhausted(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxRestarts = 1
	cfg.BackoffInitial = 20 * time.Millisecond
	_, err := Run(withChaos(testSpec(t, "det2"), "proc:kill@6:1,proc:kill@10:1"), cfg)
	var serr *SupervisorError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SupervisorError, got %v", err)
	}
	if serr.Worker != 1 || serr.Attempts != 1 {
		t.Errorf("SupervisorError identity: %+v", serr)
	}
}

func TestMultiProcConfigValidation(t *testing.T) {
	if _, err := Run(testSpec(t, "det2"), Config{Workers: 0, Spawn: SelfExec()}); err == nil {
		t.Error("workers 0 accepted")
	}
	if _, err := Run(testSpec(t, "det2"), Config{Workers: 9, Spawn: SelfExec()}); err == nil {
		t.Error("more workers than machines accepted")
	}
	if _, err := Run(testSpec(t, "det2"), Config{Workers: MaxWorkers + 1, Spawn: SelfExec()}); err == nil || !strings.Contains(err.Error(), "MaxWorkers") {
		t.Errorf("workers above MaxWorkers: %v", err)
	}
	if _, err := Run(testSpec(t, "det2"), Config{Workers: 2}); err == nil {
		t.Error("missing Spawn accepted")
	}
}

// requireSameResult compares Members and the canonical Stats bit-for-bit.
func requireSameResult(t *testing.T, a, b rulingset.Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Members, b.Members) {
		t.Fatalf("Members differ: %d vs %d entries", len(a.Members), len(b.Members))
	}
	if a.Beta != b.Beta {
		t.Fatalf("Beta differs: %d vs %d", a.Beta, b.Beta)
	}
	ca, err := json.Marshal(a.Stats.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(b.Stats.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical Stats differ:\n%s\nvs\n%s", ca, cb)
	}
}

// requireSameFile compares two files byte for byte.
func requireSameFile(t *testing.T, a, b string) {
	t.Helper()
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) == 0 || !bytes.Equal(da, db) {
		t.Fatalf("%s and %s differ (%d vs %d bytes)", a, b, len(da), len(db))
	}
}
