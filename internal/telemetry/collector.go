package telemetry

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// DefaultFlightCap is the flight-recorder ring size when CollectorOptions
// leaves it zero: enough supersteps to reconstruct the phase a worker died
// in, small enough to ride along on every heartbeat frame.
const DefaultFlightCap = 64

// spanBounds are the fixed buckets of the per-phase latency histogram, in
// seconds. Phases of the quick-tier workloads land in the low millisecond
// buckets; the top buckets catch production-sized graphs.
var spanBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// CollectorOptions tunes a Collector.
type CollectorOptions struct {
	// FlightCap bounds the flight-recorder ring (0 = DefaultFlightCap).
	FlightCap int
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Collector is the per-run telemetry source and the run's only live view: a
// trace.Tracer plus trace.SpanObserver that folds the committed superstep
// stream into registry series, tracks the active algorithm phase, and
// retains a bounded ring of recent events for the flight recorder. Register
// it alongside the other tracer sinks via trace.Multi; it never mutates the
// events it observes, so enabling it cannot perturb trace bytes or Stats.
type Collector struct {
	reg *Registry
	now func() time.Time

	round     Gauge
	steps     Counter
	messages  Counter
	words     Counter
	peakSent  Gauge
	peakRecv  Gauge
	meanSent  Gauge
	giniSent  Gauge
	giniRecv  Gauge
	resident  Gauge
	crashes   Counter
	recRounds Counter
	replayed  Counter
	ckptBytes Counter

	// mu guards the phase state and the ring, and orders span transitions
	// so the mprs_current_span state set always ends on the newest phase.
	mu        sync.Mutex
	span      string
	spanStart time.Time
	ring      *trace.Ring
}

// NewCollector creates a collector with its own registry.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.FlightCap <= 0 {
		opts.FlightCap = DefaultFlightCap
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	reg := NewRegistry()
	c := &Collector{
		reg:       reg,
		now:       opts.Now,
		round:     reg.Gauge("mprs_committed_round", "Latest committed superstep round."),
		steps:     reg.Counter("mprs_supersteps_total", "Committed supersteps observed (including charged rounds)."),
		messages:  reg.Counter("mprs_messages_total", "Messages delivered across all committed rounds."),
		words:     reg.Counter("mprs_words_total", "Words delivered across all committed rounds."),
		peakSent:  reg.Gauge("mprs_peak_sent_words", "Largest per-machine per-round sent-word volume so far."),
		peakRecv:  reg.Gauge("mprs_peak_recv_words", "Largest per-machine per-round received-word volume so far."),
		meanSent:  reg.Gauge("mprs_mean_sent_words", "Mean per-machine sent words of the latest committed round."),
		giniSent:  reg.Gauge("mprs_gini_sent", "Worst per-round sent-word Gini imbalance so far (0 balanced, 1 skewed)."),
		giniRecv:  reg.Gauge("mprs_gini_recv", "Worst per-round received-word Gini imbalance so far."),
		resident:  reg.Gauge("mprs_peak_resident_words", "Largest per-machine resident memory in words so far."),
		crashes:   reg.Counter("mprs_recovered_crashes_total", "Simulated machine crashes recovered by the fault layer."),
		recRounds: reg.Counter("mprs_recovery_rounds_total", "Extra rounds spent in barrier recovery."),
		replayed:  reg.Counter("mprs_replayed_words_total", "Words replayed during recovery."),
		ckptBytes: reg.Counter("mprs_checkpoint_bytes_total", "Bytes persisted to durable checkpoints by this process."),
		ring:      trace.NewRing(opts.FlightCap),
	}
	return c
}

// Superstep implements trace.Tracer.
func (c *Collector) Superstep(ev trace.Event) {
	c.round.Set(float64(ev.Round))
	c.steps.Inc()
	c.messages.Add(float64(ev.Messages))
	c.words.Add(float64(ev.Words))
	c.peakSent.Max(float64(ev.MaxSent))
	c.peakRecv.Max(float64(ev.MaxRecv))
	if n := len(ev.Sent); n > 0 {
		c.meanSent.Set(float64(ev.Words) / float64(n))
	}
	c.giniSent.Max(ev.GiniSent)
	c.giniRecv.Max(ev.GiniRecv)
	for _, r := range ev.Resident {
		c.resident.Max(float64(r))
	}
	c.crashes.Add(float64(ev.Crashes))
	c.recRounds.Add(float64(ev.RecoveryRounds))
	c.replayed.Add(float64(ev.ReplayedWords))

	c.mu.Lock()
	c.ring.Superstep(ev)
	c.mu.Unlock()
}

// SpanChange implements trace.SpanObserver. The mprs_current_span state set
// moves to the new phase at once, before the phase commits its first round,
// and the wall-clock residence time of the phase that just ended is observed
// into the per-span latency histogram. Latencies are advisory (they vary run
// to run); only their existence is deterministic.
func (c *Collector) SpanChange(span string) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, start := c.span, c.spanStart
	c.span, c.spanStart = span, now
	if prev == span {
		return
	}
	if prev != "" {
		c.currentSpan(prev).Set(0)
		c.reg.Histogram("mprs_span_seconds", "Wall-clock residence time per algorithm phase.",
			spanBounds, Label{Name: "span", Value: prev}).Observe(now.Sub(start).Seconds())
	}
	if span != "" {
		c.currentSpan(span).Set(1)
	}
}

// currentSpan is span's series of the mprs_current_span state set.
func (c *Collector) currentSpan(span string) Gauge {
	return c.reg.Gauge("mprs_current_span", "Algorithm phase the run is in (1 on the active phase's series, 0 on phases it has left).",
		Label{Name: "span", Value: span})
}

// Gather implements Gatherer.
func (c *Collector) Gather() []Point { return c.reg.Gather() }

// Recent returns the flight-recorder ring in emission order.
func (c *Collector) Recent() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Events()
}

// WirePayload is the telemetry body a worker attaches to its heartbeat
// frames: the current points plus the flight-recorder ring. The supervisor
// keeps the newest payload per worker, so even a SIGKILLed worker — which
// cannot flush anything itself — leaves its last supersteps behind.
type WirePayload struct {
	Schema string        `json:"schema"`
	Points []Point       `json:"points,omitempty"`
	Recent []trace.Event `json:"recent,omitempty"`
}

// Wire encodes the current state as a heartbeat telemetry payload.
func (c *Collector) Wire() ([]byte, error) {
	return json.Marshal(WirePayload{Schema: SnapshotSchema, Points: c.Gather(), Recent: c.Recent()})
}

// DecodeWire parses a heartbeat telemetry payload with the same version
// tolerance as DecodeSnapshot: unknown fields and a missing schema are
// fine, a foreign schema is not.
func DecodeWire(data []byte) (WirePayload, error) {
	var p WirePayload
	if err := json.Unmarshal(data, &p); err != nil {
		return WirePayload{}, fmt.Errorf("telemetry: decode wire payload: %w", err)
	}
	if p.Schema != "" && !strings.HasPrefix(p.Schema, "mprs-telemetry/") {
		return WirePayload{}, fmt.Errorf("telemetry: unexpected wire schema %q", p.Schema)
	}
	return p, nil
}

// WrapCheckpointSink decorates a durable checkpoint sink so the bytes it
// persists are metered into mprs_checkpoint_bytes_total. The wrapper is a
// pure pass-through — same bytes, same error — so checkpoint files and
// Stats.CheckpointBytes stay bit-identical with telemetry enabled.
func (c *Collector) WrapCheckpointSink(inner mpc.CheckpointSink) mpc.CheckpointSink {
	if inner == nil {
		return nil
	}
	return meteredSink{inner: inner, c: c}
}

type meteredSink struct {
	inner mpc.CheckpointSink
	c     *Collector
}

// Persist implements mpc.CheckpointSink.
func (s meteredSink) Persist(round int, state [][]uint64) (int64, error) {
	n, err := s.inner.Persist(round, state)
	if err == nil {
		s.c.ckptBytes.Add(float64(n))
	}
	return n, err
}
