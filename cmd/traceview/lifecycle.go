package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/supervise"
)

// sniffSchema reads the schema field of a JSONL file's first line without
// consuming the file, so traceview can dispatch between superstep traces
// (mprs-trace/*) and supervisor lifecycle streams (mprs-lifecycle/*).
func sniffSchema(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var first struct {
		Schema string `json:"schema"`
	}
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", err
		}
		return "", fmt.Errorf("%s: empty file", path)
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		return "", fmt.Errorf("%s: first line is not JSON: %w", path, err)
	}
	return first.Schema, nil
}

// LifecycleReport is the analysis of one supervisor lifecycle stream.
type LifecycleReport struct {
	Header  supervise.LifecycleHeader  `json:"header"`
	Events  []supervise.LifecycleEvent `json:"events"`
	Workers []WorkerTimeline           `json:"workers"`
	// Degraded marks a run the supervisor finished as a single in-process
	// fallback after giving up on the worker fleet.
	Degraded bool `json:"degraded,omitempty"`
}

// WorkerTimeline summarizes one worker's crash/restart history.
type WorkerTimeline struct {
	Worker       int    `json:"worker"`
	Crashes      int    `json:"crashes"`
	Stalls       int    `json:"stalls"`
	Restarts     int    `json:"restarts"`
	Chaos        int    `json:"chaos,omitempty"` // injected chaos events that fired against this worker
	Quarantined  bool   `json:"quarantined,omitempty"`
	LastJoin     int    `json:"last_join_round"` // join round of the newest restart
	FinalRound   int    `json:"final_round"`     // round on the result/error event, if any
	FinalOutcome string `json:"final_outcome"`   // result, error, quarantined, or "" if the run ended without one
}

// readLifecycle loads and analyzes the lifecycle stream at path.
func readLifecycle(path string) (LifecycleReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return LifecycleReport{}, err
	}
	defer f.Close()
	return decodeLifecycle(f, path)
}

// decodeLifecycle analyzes a lifecycle stream read from r, naming it path in
// errors. The stream is untrusted: the header's worker count sizes the
// per-worker report, so a count below 0 or above supervise.MaxWorkers is
// rejected.
func decodeLifecycle(r io.Reader, path string) (LifecycleReport, error) {
	var rep LifecycleReport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return rep, fmt.Errorf("%s: empty lifecycle file", path)
	}
	if err := json.Unmarshal(sc.Bytes(), &rep.Header); err != nil {
		return rep, fmt.Errorf("%s: lifecycle header: %w", path, err)
	}
	if rep.Header.Schema != supervise.LifecycleSchema {
		return rep, fmt.Errorf("%s: schema %q, want %q", path, rep.Header.Schema, supervise.LifecycleSchema)
	}
	if w := rep.Header.Workers; w < 0 || w > supervise.MaxWorkers {
		return rep, fmt.Errorf("%s: lifecycle header names %d workers, want 0 to %d", path, w, supervise.MaxWorkers)
	}
	byWorker := map[int]*WorkerTimeline{}
	timeline := func(w int) *WorkerTimeline {
		if tl, ok := byWorker[w]; ok {
			return tl
		}
		tl := &WorkerTimeline{Worker: w}
		byWorker[w] = tl
		return tl
	}
	line := 1
	for sc.Scan() {
		line++
		var ev supervise.LifecycleEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return rep, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		rep.Events = append(rep.Events, ev)
		switch ev.Kind {
		case "crash", "kill":
			tl := timeline(ev.Worker)
			if ev.Kind == "crash" {
				tl.Crashes++
			}
		case "stall":
			timeline(ev.Worker).Stalls++
		case "restart":
			tl := timeline(ev.Worker)
			tl.Restarts++
			tl.LastJoin = ev.Round
		case "result", "error":
			tl := timeline(ev.Worker)
			tl.FinalRound = ev.Round
			tl.FinalOutcome = ev.Kind
		case "chaos":
			timeline(ev.Worker).Chaos++
		case "quarantine":
			tl := timeline(ev.Worker)
			tl.Quarantined = true
			tl.FinalRound = ev.Round
			tl.FinalOutcome = "quarantined"
		case "degrade":
			rep.Degraded = true
		}
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	for w := 0; w < rep.Header.Workers; w++ {
		rep.Workers = append(rep.Workers, *timeline(w))
	}
	sort.Slice(rep.Workers, func(i, j int) bool { return rep.Workers[i].Worker < rep.Workers[j].Worker })
	return rep, nil
}

// renderLifecycle prints the restart timeline: the per-worker summary, then
// the full ordered event log.
func renderLifecycle(w io.Writer, rep LifecycleReport) error {
	degraded := ""
	if rep.Degraded {
		degraded = " DEGRADED (finished by in-process fallback)"
	}
	fmt.Fprintf(w, "lifecycle: %s workers=%d heartbeat=%dms max_restarts=%d%s\n\n",
		rep.Header.Schema, rep.Header.Workers, rep.Header.HeartbeatMS, rep.Header.MaxRestarts, degraded)

	sum := metrics.NewTable("per-worker", "worker", "crashes", "stalls", "restarts", "chaos", "last join", "final round", "outcome")
	for _, tl := range rep.Workers {
		outcome := tl.FinalOutcome
		if outcome == "" {
			outcome = "-"
		}
		sum.AddRow(tl.Worker, tl.Crashes, tl.Stalls, tl.Restarts, tl.Chaos, tl.LastJoin, tl.FinalRound, outcome)
	}
	if err := sum.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	tt := metrics.NewTable("restart timeline", "seq", "kind", "worker", "round", "attempt", "backoff_ms", "note")
	for _, ev := range rep.Events {
		note := ev.Note
		if len(note) > 60 {
			note = note[:57] + "..."
		}
		tt.AddRow(ev.Seq, ev.Kind, ev.Worker, ev.Round, ev.Attempt, ev.BackoffMS, note)
	}
	return tt.Render(w)
}
