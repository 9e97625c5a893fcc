package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/supervise"
)

// lifecycleFixture is a representative supervisor stream: one injected kill
// with backoff and restart, one stall, and a clean finish.
const lifecycleFixture = `{"schema":"mprs-lifecycle/1","workers":3,"heartbeat_ms":5000,"max_restarts":2}
{"seq":1,"kind":"start","worker":0,"round":0}
{"seq":2,"kind":"start","worker":1,"round":0}
{"seq":3,"kind":"start","worker":2,"round":0}
{"seq":4,"kind":"kill","worker":1,"round":10}
{"seq":5,"kind":"crash","worker":1,"round":10,"note":"injected kill"}
{"seq":6,"kind":"backoff","worker":1,"round":10,"attempt":1,"backoff_ms":100}
{"seq":7,"kind":"restart","worker":1,"round":10,"attempt":1}
{"seq":8,"kind":"stall","worker":2,"round":20,"note":"missed heartbeat deadline"}
{"seq":9,"kind":"backoff","worker":2,"round":20,"attempt":1,"backoff_ms":100}
{"seq":10,"kind":"restart","worker":2,"round":20,"attempt":1}
{"seq":11,"kind":"result","worker":1,"round":48,"attempt":1}
{"seq":12,"kind":"result","worker":2,"round":48,"attempt":1}
{"seq":13,"kind":"result","worker":0,"round":48}
{"seq":14,"kind":"done","worker":0,"round":48}
`

func writeLifecycleFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.lifecycle")
	if err := os.WriteFile(path, []byte(lifecycleFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLifecycleTimeline: a lifecycle stream is auto-detected by schema and
// rendered as the restart timeline rather than a superstep report.
func TestLifecycleTimeline(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{writeLifecycleFixture(t)}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"lifecycle: mprs-lifecycle/1 workers=3 heartbeat=5000ms max_restarts=2",
		"per-worker",
		"restart timeline",
		"injected kill",
		"missed heartbeat deadline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestLifecycleJSON checks the machine-readable lifecycle report and the
// per-worker aggregation.
func TestLifecycleJSON(t *testing.T) {
	var b bytes.Buffer
	if err := run([]string{"-json", writeLifecycleFixture(t)}, &b); err != nil {
		t.Fatal(err)
	}
	var rep LifecycleReport
	if err := json.Unmarshal(b.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Header.Workers != 3 || len(rep.Events) != 14 || len(rep.Workers) != 3 {
		t.Fatalf("report shape: workers=%d events=%d timelines=%d", rep.Header.Workers, len(rep.Events), len(rep.Workers))
	}
	w1, w2 := rep.Workers[1], rep.Workers[2]
	if w1.Crashes != 1 || w1.Restarts != 1 || w1.LastJoin != 10 || w1.FinalOutcome != "result" {
		t.Errorf("worker 1 timeline: %+v", w1)
	}
	if w2.Stalls != 1 || w2.Restarts != 1 || w2.LastJoin != 20 {
		t.Errorf("worker 2 timeline: %+v", w2)
	}
	if rep.Workers[0].Crashes != 0 || rep.Workers[0].Restarts != 0 {
		t.Errorf("worker 0 timeline: %+v", rep.Workers[0])
	}
}

// TestLifecycleMalformed: a stream with a broken line reports the line, and
// a superstep trace is NOT routed to the lifecycle path.
func TestLifecycleMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.lifecycle")
	bad := `{"schema":"mprs-lifecycle/1","workers":1}` + "\n" + `{"seq":` + "\n"
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := run([]string{path}, &b); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Errorf("broken line 2 not reported: %v", err)
	}
	// The regular fixture trace still takes the superstep path.
	b.Reset()
	if err := run([]string{filepath.Join("testdata", "fixture.jsonl")}, &b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "restart timeline") {
		t.Error("superstep trace routed to the lifecycle renderer")
	}
}

// TestLifecycleWorkerCount: the header's worker count sizes the report, so
// a negative count or one above supervise.MaxWorkers is an error, and the
// largest accepted count yields that many timelines.
func TestLifecycleWorkerCount(t *testing.T) {
	header := func(w int) string {
		return fmt.Sprintf(`{"schema":"mprs-lifecycle/1","workers":%d}`+"\n", w)
	}
	for _, w := range []int{-1, supervise.MaxWorkers + 1, 1 << 40} {
		if _, err := decodeLifecycle(strings.NewReader(header(w)), "hdr"); err == nil || !strings.Contains(err.Error(), "workers") {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
	rep, err := decodeLifecycle(strings.NewReader(header(supervise.MaxWorkers)), "hdr")
	if err != nil || len(rep.Workers) != supervise.MaxWorkers {
		t.Fatalf("workers=%d: %d timelines, %v", supervise.MaxWorkers, len(rep.Workers), err)
	}
}

// FuzzReadLifecycle feeds arbitrary bytes to the lifecycle reader: it must
// return an error or a report, never panic, and an accepted report has one
// timeline per header worker and every event line.
func FuzzReadLifecycle(f *testing.F) {
	f.Add([]byte(lifecycleFixture))
	f.Add([]byte(`{"schema":"mprs-lifecycle/1","workers":1}` + "\n" + `{"seq":` + "\n"))
	f.Add([]byte(`{"schema":"mprs-lifecycle/1","workers":-5}` + "\n"))
	f.Add([]byte(`{"schema":"mprs-lifecycle/1","workers":9223372036854775807}` + "\n"))
	f.Add([]byte(`{"schema":"mprs-lifecycle/1","workers":2}` + "\n" + `{"kind":"restart","worker":-3}` + "\n" + `{"kind":"degrade"}` + "\n"))
	f.Add([]byte(`{"schema":"mprs-trace/1"}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := decodeLifecycle(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		if len(rep.Workers) != rep.Header.Workers {
			t.Fatalf("%d timelines for a %d-worker header", len(rep.Workers), rep.Header.Workers)
		}
		for i, tl := range rep.Workers {
			if tl.Worker != i {
				t.Fatalf("timeline %d is worker %d", i, tl.Worker)
			}
		}
		if err := renderLifecycle(new(bytes.Buffer), rep); err != nil {
			t.Fatalf("accepted report does not render: %v", err)
		}
	})
}
