package supervise

import (
	"encoding/json"
	"fmt"
	"io"
)

// LifecycleSchema identifies the supervisor's lifecycle event stream: a
// JSONL file whose first line is a LifecycleHeader and whose remaining lines
// are LifecycleEvents — the restart timeline cmd/traceview renders.
const LifecycleSchema = "mprs-lifecycle/1"

// MaxWorkers is the most worker processes Run supervises, and so the most a
// LifecycleHeader names: readers size per-worker state from the header and
// reject a count above it.
const MaxWorkers = 1024

// LifecycleHeader is the first line of a lifecycle stream.
type LifecycleHeader struct {
	Schema      string `json:"schema"`
	Workers     int    `json:"workers"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	MaxRestarts int    `json:"max_restarts"`
}

// LifecycleEvent is one supervisor action. Events are deterministic where
// possible: seq, kind, worker, attempt and backoff_ms are functions of the
// job and the (deterministic) kill schedule; round is the deterministic
// superstep progress for frame-triggered events and best-effort for
// wall-clock-triggered ones (stalls). No wall-clock timestamps appear — the
// timeline orders by seq.
type LifecycleEvent struct {
	Seq       int    `json:"seq"`
	Kind      string `json:"kind"` // start, kill, crash, stall, backoff, restart, result, error, stop, abort, quarantine, degrade, chaos, done
	Worker    int    `json:"worker"`
	Round     int    `json:"round"`
	Attempt   int    `json:"attempt,omitempty"`
	BackoffMS int64  `json:"backoff_ms,omitempty"`
	Note      string `json:"note,omitempty"`
}

// lifecycleWriter emits the JSONL stream; a nil writer makes every method a
// no-op so call sites stay unconditional.
type lifecycleWriter struct {
	w   io.Writer
	seq int
	err error // first write failure; reported once at Run's end
}

func newLifecycleWriter(w io.Writer, hdr LifecycleHeader) *lifecycleWriter {
	lw := &lifecycleWriter{w: w}
	if w == nil {
		return lw
	}
	hdr.Schema = LifecycleSchema
	lw.writeJSON(hdr)
	return lw
}

func (lw *lifecycleWriter) writeJSON(v any) {
	if lw.w == nil || lw.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		lw.err = err
		return
	}
	if _, err := lw.w.Write(append(b, '\n')); err != nil {
		lw.err = fmt.Errorf("supervise: lifecycle write: %w", err)
	}
}

func (lw *lifecycleWriter) emit(ev LifecycleEvent) {
	lw.seq++
	ev.Seq = lw.seq
	lw.writeJSON(ev)
}
