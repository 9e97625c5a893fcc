package telemetry

import (
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

func workerPayload(t *testing.T, rounds ...int) []byte {
	t.Helper()
	c := NewCollector(CollectorOptions{FlightCap: 8})
	for _, r := range rounds {
		c.Superstep(trace.Event{Round: r, Words: 10 * r})
	}
	data, err := c.Wire()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetGather pins the merged view: per-worker series re-labeled with
// worker="<id>", lifecycle gauges, and fleet aggregates.
func TestFleetGather(t *testing.T) {
	f := NewFleet()
	if err := f.UpdateTelemetry(0, workerPayload(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.UpdateTelemetry(1, workerPayload(t, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	f.SetLifecycle(0, WorkerRunning, 0, 0)
	f.SetLifecycle(1, WorkerBackoff, 2, 250)
	f.SetRound(0, 2)
	f.SetRound(1, 3)
	f.SetRound(1, 1) // stale heartbeat must not move the round backwards

	m := indexPoints(f.Gather())
	// Aggregates.
	for name, want := range map[string]float64{
		"mprs_fleet_workers":         2,
		"mprs_fleet_workers_running": 1,
		"mprs_fleet_restarts_total":  2,
		"mprs_fleet_committed_round": 3,
	} {
		if got := value(t, m, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Per-worker series carry the worker label.
	words := m["mprs_words_total"]
	if len(words) != 2 {
		t.Fatalf("mprs_words_total has %d series, want 2: %+v", len(words), words)
	}
	byWorker := map[string]float64{}
	for _, p := range words {
		var w string
		for _, l := range p.Labels {
			if l.Name == "worker" {
				w = l.Value
			}
		}
		byWorker[w] = p.Value
	}
	if byWorker["0"] != 30 || byWorker["1"] != 60 {
		t.Errorf("per-worker words = %v, want 0:30 1:60", byWorker)
	}
	// Lifecycle gauges.
	var sawBackoff bool
	for _, p := range m["mprs_worker_state"] {
		if labelKey(p.Labels) == labelKey([]Label{{Name: "worker", Value: "1"}, {Name: "state", Value: WorkerBackoff}}) {
			sawBackoff = p.Value == 1
		}
	}
	if !sawBackoff {
		t.Errorf("mprs_worker_state missing worker 1 backoff series: %+v", m["mprs_worker_state"])
	}
	// The rendered exposition shows labeled series (what the CI smoke job
	// greps for).
	var b strings.Builder
	if err := WritePrometheus(&b, f.Gather()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mprs_words_total{worker="0"} 30`,
		`mprs_words_total{worker="1"} 60`,
		`mprs_worker_restarts_total{worker="1"} 2`,
		`mprs_fleet_committed_round 3`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("fleet exposition missing %q:\n%s", want, b.String())
		}
	}
}

// TestFleetRecent pins the supervisor-side flight source: the last heartbeat
// payload's ring, per worker.
func TestFleetRecent(t *testing.T) {
	f := NewFleet()
	if err := f.UpdateTelemetry(2, workerPayload(t, 5, 6)); err != nil {
		t.Fatal(err)
	}
	evs := f.Recent(2)
	if len(evs) != 2 || evs[1].Round != 6 {
		t.Errorf("Recent(2) = %+v", evs)
	}
	if f.Recent(99) != nil {
		t.Error("Recent of an unknown worker must be nil")
	}
}

// TestFleetUpdateTolerance pins version-skew handling: a bad payload is an
// error that leaves the previous snapshot in place.
func TestFleetUpdateTolerance(t *testing.T) {
	f := NewFleet()
	if err := f.UpdateTelemetry(0, workerPayload(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.UpdateTelemetry(0, []byte(`{"schema":"mprs-other/1"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	if err := f.UpdateTelemetry(0, []byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if got := value(t, indexPoints(f.Gather()), "mprs_words_total"); got != 10 {
		t.Errorf("previous snapshot lost after bad updates: words = %v, want 10", got)
	}
	// An empty-but-valid future payload (no points) keeps the old points too.
	if err := f.UpdateTelemetry(0, []byte(`{"schema":"mprs-telemetry/2"}`)); err != nil {
		t.Errorf("future empty payload rejected: %v", err)
	}
	if got := value(t, indexPoints(f.Gather()), "mprs_words_total"); got != 10 {
		t.Errorf("nil-points payload cleared the snapshot: words = %v, want 10", got)
	}
}

// TestFleetSetDegraded: the degraded gauge reads 1 after the supervisor
// falls back to an in-process run, and 0 before it or once cleared.
func TestFleetSetDegraded(t *testing.T) {
	f := NewFleet()
	degraded := func() float64 { return value(t, indexPoints(f.Gather()), "mprs_fleet_degraded") }
	if got := degraded(); got != 0 {
		t.Fatalf("fresh fleet: mprs_fleet_degraded = %v, want 0", got)
	}
	f.SetDegraded(true)
	if got := degraded(); got != 1 {
		t.Fatalf("after SetDegraded(true): mprs_fleet_degraded = %v, want 1", got)
	}
	f.SetDegraded(false)
	if got := degraded(); got != 0 {
		t.Fatalf("after SetDegraded(false): mprs_fleet_degraded = %v, want 0", got)
	}
}
