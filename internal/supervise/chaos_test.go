package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/transport"
)

// The chaos oracle: every survivable fault schedule must yield Members,
// canonical Stats and trace bytes identical to a fault-free in-process run;
// every non-survivable one must yield a structured error — never a panic,
// never a silently wrong answer.

// withChaos returns spec carrying the fault plan, under a fixed seed.
func withChaos(spec JobSpec, plan string) JobSpec {
	spec.Chaos, spec.ChaosSeed = plan, 7
	return spec
}

// TestChaosWireBenignOracle: wire faults the transport absorbs without any
// restart — duplicated, delayed (uplink) and reordered (downlink) frames —
// leave the run bit-identical with a zero restart budget.
func TestChaosWireBenignOracle(t *testing.T) {
	dir := t.TempDir()
	inSpec := testSpec(t, "det2")
	inSpec.TraceFile = filepath.Join(dir, "in.trace")
	inRes, err := runInProc(t, inSpec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	for _, plan := range []string{
		"wire:dup@6:1",
		"wire:delay@6:1",
		"wire:reorder@6:2",
		"wire:dup@5:0,wire:delay@9:2,wire:reorder@7:1",
	} {
		t.Run(plan, func(t *testing.T) {
			sub := t.TempDir()
			spec := testSpec(t, "det2")
			spec.TraceFile = filepath.Join(sub, "mp.trace")
			cfg := testConfig(3)
			cfg.MaxRestarts = 0 // benign faults must not need the restart machinery
			var lifecycle bytes.Buffer
			cfg.Lifecycle = &lifecycle
			res, err := Run(withChaos(spec, plan), cfg)
			if err != nil {
				t.Fatalf("chaos %q: %v\nlifecycle:\n%s", plan, err, lifecycle.String())
			}
			requireSameResult(t, inRes, res)
			requireSameFile(t, inSpec.TraceFile, spec.TraceFile)
			if !strings.Contains(lifecycle.String(), `"kind":"chaos"`) {
				t.Errorf("lifecycle records no chaos event:\n%s", lifecycle.String())
			}
		})
	}
}

// TestChaosWireSeverOracle: corrupt and truncated frames are stream-level
// damage the framing layer must catch (ErrFraming, never a bad payload); the
// supervisor treats them as a crash, restarts from checkpoint, and the run
// stays bit-identical — including worker 0, the trace writer.
func TestChaosWireSeverOracle(t *testing.T) {
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
		plan string
		note string
	}{
		{"wire:corrupt@8:1", "wire:corrupt@8:1"},
		{"wire:trunc@8:0", "wire:trunc@8:0"},
	} {
		t.Run(tc.plan, func(t *testing.T) {
			sub := t.TempDir()
			spec := testSpec(t, "det2")
			spec.CheckpointEvery = 4
			spec.CheckpointDir = filepath.Join(sub, "ck")
			spec.TraceFile = filepath.Join(sub, "mp.trace")
			cfg := testConfig(3)
			cfg.MaxRestarts = 2
			cfg.BackoffInitial = 20 * time.Millisecond
			var lifecycle bytes.Buffer
			cfg.Lifecycle = &lifecycle
			res, err := Run(withChaos(spec, tc.plan), cfg)
			if err != nil {
				t.Fatalf("chaos %q: %v\nlifecycle:\n%s", tc.plan, err, lifecycle.String())
			}
			requireSameResult(t, inRes, res)
			requireSameFile(t, inSpec.TraceFile, spec.TraceFile)
			life := lifecycle.String()
			for _, want := range []string{tc.note, `"kind":"crash"`, `"kind":"restart"`} {
				if !strings.Contains(life, want) {
					t.Errorf("lifecycle missing %s:\n%s", want, life)
				}
			}
		})
	}
}

// TestChaosHeartbeatOracle: dropped and garbled heartbeat telemetry is an
// observability wound, never a correctness one — liveness rides on the other
// frames and the deterministic outputs are untouched.
func TestChaosHeartbeatOracle(t *testing.T) {
	inRes, err := runInProc(t, testSpec(t, "det2"))
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	cfg := testConfig(2)
	cfg.MaxRestarts = 0
	cfg.Heartbeat = 600 * time.Millisecond // fast beats so the attacked ordinals actually occur
	res, err := Run(withChaos(testSpec(t, "det2"), "wire:hbdrop@1:1,wire:hbgarble@2:1"), cfg)
	if err != nil {
		t.Fatalf("heartbeat chaos: %v", err)
	}
	requireSameResult(t, inRes, res)
}

// TestChaosDiskTornCheckpointOracle: a torn checkpoint write reports success
// (the lying-disk model), so only a later restart exposes it — the restarted
// worker must skip the torn round-8 file, resume from round 4, and stay
// bit-identical.
func TestChaosDiskTornCheckpointOracle(t *testing.T) {
	dir := t.TempDir()
	inSpec := testSpec(t, "det2")
	inSpec.CheckpointEvery = 4
	inSpec.CheckpointDir = filepath.Join(dir, "ck-in")
	inSpec.TraceFile = filepath.Join(dir, "in.trace")
	inRes, err := runInProc(t, inSpec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	spec := testSpec(t, "det2")
	spec.CheckpointEvery = 4
	spec.CheckpointDir = filepath.Join(dir, "ck-mp")
	spec.TraceFile = filepath.Join(dir, "mp.trace")
	cfg := testConfig(2)
	cfg.MaxRestarts = 2
	cfg.BackoffInitial = 20 * time.Millisecond
	var lifecycle bytes.Buffer
	cfg.Lifecycle = &lifecycle
	res, err := Run(withChaos(spec, "disk:torn@8:0,proc:kill@12:0"), cfg)
	if err != nil {
		t.Fatalf("torn-checkpoint chaos: %v\nlifecycle:\n%s", err, lifecycle.String())
	}
	requireSameResult(t, inRes, res)
	requireSameFile(t, inSpec.TraceFile, spec.TraceFile)
}

// TestChaosDiskENOSPCRetryableOracle: a failed persist is an environmental
// error — the worker reports it as retryable, the supervisor restarts
// instead of aborting, and the retry (chaos disk events fire only at
// attempt 0) completes bit-identically.
func TestChaosDiskENOSPCRetryableOracle(t *testing.T) {
	dir := t.TempDir()
	inSpec := testSpec(t, "det2")
	inSpec.CheckpointEvery = 4
	inSpec.CheckpointDir = filepath.Join(dir, "ck-in")
	inRes, err := runInProc(t, inSpec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	for _, plan := range []string{"disk:enospc@4:1", "disk:fsyncerr@4:1"} {
		t.Run(plan, func(t *testing.T) {
			sub := t.TempDir()
			spec := testSpec(t, "det2")
			spec.CheckpointEvery = 4
			spec.CheckpointDir = filepath.Join(sub, "ck")
			cfg := testConfig(2)
			cfg.MaxRestarts = 2
			cfg.BackoffInitial = 20 * time.Millisecond
			var lifecycle bytes.Buffer
			cfg.Lifecycle = &lifecycle
			res, err := Run(withChaos(spec, plan), cfg)
			if err != nil {
				t.Fatalf("chaos %q: %v\nlifecycle:\n%s", plan, err, lifecycle.String())
			}
			requireSameResult(t, inRes, res)
			if !strings.Contains(lifecycle.String(), "retryable: ") {
				t.Errorf("lifecycle does not classify the persist failure as retryable:\n%s", lifecycle.String())
			}
		})
	}
}

// TestChaosProcKillOracle: proc:kill@R:W is a real SIGKILL at deterministic
// progress, restarted and bit-identical.
func TestChaosProcKillOracle(t *testing.T) {
	inRes, err := runInProc(t, testSpec(t, "det2"))
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	cfg := testConfig(3)
	cfg.MaxRestarts = 1
	cfg.BackoffInitial = 20 * time.Millisecond
	res, err := Run(withChaos(testSpec(t, "det2"), "proc:kill@10:1"), cfg)
	if err != nil {
		t.Fatalf("proc:kill chaos: %v", err)
	}
	requireSameResult(t, inRes, res)
}

// TestChaosFlapQuarantineDegrades is the graceful-degradation contract: a
// flapping worker (proc:flap kills it at the same round on every
// incarnation) is quarantined after FlapLimit consecutive same-round
// crashes, the fleet is torn down, and with DegradedFallback the job is
// finished by a single in-process run resumed from the newest valid
// checkpoint. Run returns the structured *DegradedError ALONGSIDE a result
// whose members, canonical stats and trace bytes are identical to a clean
// run's.
func TestChaosFlapQuarantineDegrades(t *testing.T) {
	dir := t.TempDir()
	inSpec := testSpec(t, "det2")
	inSpec.CheckpointEvery = 4
	inSpec.CheckpointDir = filepath.Join(dir, "ck-in")
	inSpec.TraceFile = filepath.Join(dir, "in.trace")
	inRes, err := runInProc(t, inSpec)
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	spec := testSpec(t, "det2")
	spec.CheckpointEvery = 4
	spec.CheckpointDir = filepath.Join(dir, "ck-mp")
	spec.TraceFile = filepath.Join(dir, "mp.trace")
	cfg := testConfig(3)
	cfg.MaxRestarts = 5
	cfg.BackoffInitial = 20 * time.Millisecond
	cfg.DegradedFallback = true
	var lifecycle bytes.Buffer
	cfg.Lifecycle = &lifecycle
	res, err := Run(withChaos(spec, "proc:flap@10:1"), cfg)
	var derr *DegradedError
	if !errors.As(err, &derr) {
		t.Fatalf("want *DegradedError, got %v\nlifecycle:\n%s", err, lifecycle.String())
	}
	if derr.Worker != 1 || !derr.Quarantined {
		t.Errorf("DegradedError identity: %+v", derr)
	}
	if derr.Attempts < DefaultFlapLimit-1 {
		t.Errorf("Attempts = %d, want >= %d (flap limit crashes)", derr.Attempts, DefaultFlapLimit-1)
	}
	if derr.CommittedRound <= 0 {
		t.Errorf("CommittedRound = %d, want > 0", derr.CommittedRound)
	}
	if derr.ResumedFrom <= 0 {
		t.Errorf("ResumedFrom = %d, want > 0 (checkpoints were persisted)", derr.ResumedFrom)
	}
	if derr.Stats.Rounds == 0 {
		t.Errorf("degraded Stats empty: %+v", derr.Stats)
	}
	// The degraded answer is still the right answer, bit for bit.
	requireSameResult(t, inRes, res)
	requireSameFile(t, inSpec.TraceFile, spec.TraceFile)
	life := lifecycle.String()
	for _, want := range []string{`"kind":"quarantine"`, `"kind":"degrade"`, "degraded fallback"} {
		if !strings.Contains(life, want) {
			t.Errorf("lifecycle missing %s:\n%s", want, life)
		}
	}
}

// TestChaosKilledGenerationFramesIgnored replays, event by event, the
// frames a flap-killed worker can still write before its kill takes
// effect: with its peers' retained frames already delivered it finishes
// the killed round, sends the next one, and then reports its broken pipe.
// Until the restart the dead generation's id is still current, so the
// supervisor must drop these by state: the late frame is neither relayed
// nor retained and fires no second flap kill at the later round, the
// error does not abort the job, and the worker stays scheduled to rejoin
// after the round it was killed at.
func TestChaosKilledGenerationFramesIgnored(t *testing.T) {
	plan, err := chaos.Parse("proc:flap@10:1", 7)
	if err != nil {
		t.Fatal(err)
	}
	var lifecycle bytes.Buffer
	s := &supervisor{
		cfg:           testConfig(2).withDefaults(),
		life:          newLifecycleWriter(&lifecycle, LifecycleHeader{Workers: 2}),
		plan:          plan,
		retained:      make([][]byte, 2),
		retainedRound: make([]int, 2),
	}
	peer := &proc{id: 0, gen: 1, state: procRunning, outQ: make(chan transport.Frame, 4), lastCrashRound: -1}
	killed := &proc{id: 1, gen: 3, state: procWaiting, attempts: 2, sentRound: 9, lastCrashRound: 9, flaps: 2}
	s.procs = []*proc{peer, killed}
	werr, err := json.Marshal(workerError{Message: "transport: worker 1 waiting on round 11: EOF", Round: 10})
	if err != nil {
		t.Fatal(err)
	}
	s.handle(event{worker: 1, gen: 3, frame: transport.Frame{Type: transport.FrameMessages, Worker: 1, Round: 11, Payload: []byte{1}}}, time.Now())
	s.handle(event{worker: 1, gen: 3, frame: transport.Frame{Type: transport.FrameError, Worker: 1, Round: 10, Payload: werr}}, time.Now())
	if s.aborting || s.degrading {
		t.Errorf("a killed generation's late error gave up supervision (aborting %v, degrading %v)", s.aborting, s.degrading)
	}
	if killed.state != procWaiting || killed.sentRound != 9 || killed.flaps != 2 {
		t.Errorf("killed worker: state %d, join round %d, flaps %d; want waiting, 9, 2", killed.state, killed.sentRound, killed.flaps)
	}
	if s.retained[1] != nil || len(peer.outQ) != 0 {
		t.Errorf("the late frame was retained (%v) or relayed (%d queued)", s.retained[1] != nil, len(peer.outQ))
	}
	if life := lifecycle.String(); strings.Contains(life, `"kind":"chaos"`) || strings.Contains(life, `"kind":"abort"`) {
		t.Errorf("lifecycle recorded the dead generation's frames:\n%s", life)
	}
}

// TestChaosFleetBudgetAborts: the fleet-wide restart budget is distinct from
// the per-worker one — two crashes on two different workers exhaust a budget
// of one even though neither worker hit MaxRestarts, and without
// DegradedFallback that is a structured abort.
func TestChaosFleetBudgetAborts(t *testing.T) {
	cfg := testConfig(3)
	cfg.MaxRestarts = 5
	cfg.MaxFleetRestarts = 1
	cfg.BackoffInitial = 20 * time.Millisecond
	var lifecycle bytes.Buffer
	cfg.Lifecycle = &lifecycle
	_, err := Run(withChaos(testSpec(t, "det2"), "proc:kill@6:0,proc:kill@10:1"), cfg)
	var serr *SupervisorError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SupervisorError, got %v\nlifecycle:\n%s", err, lifecycle.String())
	}
	if serr.Worker != 1 {
		t.Errorf("aborting worker = %d, want 1 (the one denied a restart): %+v", serr.Worker, serr)
	}
	if !strings.Contains(err.Error(), "fleet restart budget") {
		t.Errorf("error does not name the fleet budget: %v", err)
	}
	if !strings.Contains(lifecycle.String(), `"kind":"quarantine"`) {
		t.Errorf("lifecycle missing quarantine:\n%s", lifecycle.String())
	}
}

// TestChaosPlanValidation: a plan targeting a worker the fleet does not have
// is a configuration error before any process spawns.
func TestChaosPlanValidation(t *testing.T) {
	for _, plan := range []string{"wire:dup@5:7", "disk:torn@4:3", "proc:kill@5:2"} {
		cfg := testConfig(2)
		if _, err := Run(withChaos(testSpec(t, "det2"), plan), cfg); err == nil {
			t.Errorf("plan %q accepted with 2 workers", plan)
		}
	}
}

// TestInProcChaosRule: InProc applies the CLI's in-process fault rule. It
// rejects wire: and proc: events and events for workers other than 0 with
// the CLI's error text, rejects disk: events without a checkpoint dir, and
// applies machine: faults and worker 0's disk: events.
func TestInProcChaosRule(t *testing.T) {
	const layers = "-chaos: backend inproc accepts machine: events and disk: events for worker 0 only (wire: and proc: need -backend multiproc)"
	const noDir = "-chaos: disk: events need -checkpoint-dir (they attack the durable checkpoint store)"
	for _, tc := range []struct{ plan, dir, want string }{
		{"wire:dup@2:0", "", layers},
		{"proc:kill@3:0", "", layers},
		{"disk:torn@4:1", t.TempDir(), layers},
		{"machine:crash@2:1,wire:corrupt@6:0", "", layers},
		{"disk:torn@4:0", "", noDir},
	} {
		spec := withChaos(testSpec(t, "det2"), tc.plan)
		if tc.dir != "" {
			spec.CheckpointEvery, spec.CheckpointDir = 4, tc.dir
		}
		if _, err := runInProc(t, spec); err == nil || err.Error() != tc.want {
			t.Errorf("-chaos %s: err = %v, want %q", tc.plan, err, tc.want)
		}
		if got := checkInProcChaos(mustParseChaos(t, tc.plan), tc.dir); got == nil || got.Error() != tc.want {
			t.Errorf("checkInProcChaos(%s) = %v, want %q", tc.plan, got, tc.want)
		}
	}

	spec := withChaos(testSpec(t, "det2"), "disk:enospc@8:0")
	spec.CheckpointEvery, spec.CheckpointDir = 4, t.TempDir()
	if _, err := runInProc(t, spec); err == nil || !strings.Contains(err.Error(), "no space left on device") {
		t.Errorf("disk:enospc@8:0 in-process: err = %v, want the injected persist failure", err)
	}
	res, err := runInProc(t, withChaos(testSpec(t, "det2"), "machine:crash@2:5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecoveredCrashes != 1 {
		t.Errorf("machine:crash@2:5 in-process: %d crashes recovered, want 1", res.Stats.RecoveredCrashes)
	}
}

func mustParseChaos(t *testing.T, spec string) *chaos.Plan {
	t.Helper()
	plan, err := chaos.Parse(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
