package supervise

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/rulingset/mprs/internal/telemetry"
)

// TestMultiProcTelemetryEquivalence is the observer contract on the
// multi-process backend: a run with the fleet view enabled (workers attach
// telemetry to every heartbeat, the supervisor merges it) produces
// bit-identical Members, canonical Stats, trace bytes and checkpoint volume
// to a run without it.
func TestMultiProcTelemetryEquivalence(t *testing.T) {
	dir := t.TempDir()

	offSpec := testSpec(t, "det2")
	offSpec.CheckpointEvery = 4
	offSpec.CheckpointDir = filepath.Join(dir, "ck-off")
	offSpec.TraceFile = filepath.Join(dir, "off.trace")
	offRes, err := Run(offSpec, testConfig(3))
	if err != nil {
		t.Fatalf("telemetry off: %v", err)
	}

	onSpec := testSpec(t, "det2")
	onSpec.CheckpointEvery = 4
	onSpec.CheckpointDir = filepath.Join(dir, "ck-on")
	onSpec.TraceFile = filepath.Join(dir, "on.trace")
	fleet := telemetry.NewFleet()
	cfg := testConfig(3)
	cfg.Heartbeat = 400 * time.Millisecond // frequent beats: exercise the payload path hard
	cfg.Telemetry = fleet
	onRes, err := Run(onSpec, cfg)
	if err != nil {
		t.Fatalf("telemetry on: %v", err)
	}

	requireSameResult(t, offRes, onRes)
	requireSameFile(t, offSpec.TraceFile, onSpec.TraceFile)
	if offRes.Stats.CheckpointBytes != onRes.Stats.CheckpointBytes {
		t.Errorf("checkpoint bytes differ with telemetry: %d vs %d",
			offRes.Stats.CheckpointBytes, onRes.Stats.CheckpointBytes)
	}

	// The fleet view saw the run: every worker ended done, and the committed
	// round matches the deterministic result.
	points := fleet.Gather()
	states := map[string]bool{}
	committed := 0.0
	for _, p := range points {
		switch p.Name {
		case "mprs_worker_state":
			var worker, state string
			for _, l := range p.Labels {
				switch l.Name {
				case "worker":
					worker = l.Value
				case "state":
					state = l.Value
				}
			}
			states[worker+"/"+state] = true
		case "mprs_fleet_committed_round":
			committed = p.Value
		}
	}
	for w := 0; w < 3; w++ {
		if !states[strconv.Itoa(w)+"/"+telemetry.WorkerDone] {
			t.Errorf("worker %d not done in fleet view: %v", w, states)
		}
	}
	if committed != float64(onRes.Stats.Rounds) {
		t.Errorf("fleet committed round = %v, want %d", committed, onRes.Stats.Rounds)
	}
}

// TestMultiProcFlightArtifact kills a real worker process mid-run with the
// flight recorder on: the supervisor must leave a parseable mprs-flight/1
// post-mortem for the killed worker, and the restarted job must still finish
// with the right result.
func TestMultiProcFlightArtifact(t *testing.T) {
	dir := t.TempDir()
	flightDir := filepath.Join(dir, "flights")
	spec := testSpec(t, "det2")

	cfg := testConfig(3)
	cfg.Heartbeat = 400 * time.Millisecond
	cfg.MaxRestarts = 2
	cfg.BackoffInitial = 20 * time.Millisecond
	cfg.FlightDir = flightDir
	// No Config.Telemetry: FlightDir alone must switch the heartbeat payload
	// machinery on.

	inRes, err := runInProc(t, testSpec(t, "det2"))
	if err != nil {
		t.Fatalf("inproc: %v", err)
	}
	res, err := Run(withChaos(spec, "proc:kill@10:1"), cfg)
	if err != nil {
		t.Fatalf("multiproc with flight recorder: %v", err)
	}
	requireSameResult(t, inRes, res)

	path := filepath.Join(flightDir, "flight-w1-a0.jsonl")
	if _, err := os.Stat(path); err != nil {
		entries, _ := os.ReadDir(flightDir)
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("flight artifact missing: %v (dir has %v)", err, names)
	}
	hdr, evs, err := telemetry.ReadFlightFile(path)
	if err != nil {
		t.Fatalf("flight artifact unreadable: %v", err)
	}
	if hdr.Worker != 1 || hdr.Attempt != 0 || hdr.Kind != "crash" {
		t.Errorf("flight header = %+v", hdr)
	}
	if hdr.Round < 10 {
		t.Errorf("flight round = %d, want >= 10 (the kill trigger)", hdr.Round)
	}
	if hdr.Reason == "" || hdr.Algo != "det2" {
		t.Errorf("flight header identity = %+v", hdr)
	}
	if hdr.Events != len(evs) {
		t.Errorf("header claims %d events, artifact has %d", hdr.Events, len(evs))
	}
	// The ring is the worker's last heartbeat payload; how much it holds
	// depends on heartbeat timing, but whatever is there must be coherent.
	for i := 1; i < len(evs); i++ {
		if evs[i].Round <= evs[i-1].Round {
			t.Errorf("flight events out of order: round %d after %d", evs[i].Round, evs[i-1].Round)
		}
	}
}
