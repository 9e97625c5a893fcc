package telemetry

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/rulingset/mprs/internal/trace"
)

// fakeClock hands out instants advanced by Tick.
type fakeClock struct{ at time.Time }

func (c *fakeClock) now() time.Time        { return c.at }
func (c *fakeClock) tick(d time.Duration)  { c.at = c.at.Add(d) }
func newFakeClock() *fakeClock             { return &fakeClock{at: time.Unix(1000, 0)} }
func points(g Gatherer) map[string][]Point { return indexPoints(g.Gather()) }
func indexPoints(ps []Point) map[string][]Point {
	m := make(map[string][]Point)
	for _, p := range ps {
		m[p.Name] = append(m[p.Name], p)
	}
	return m
}

func value(t *testing.T, m map[string][]Point, name string) float64 {
	t.Helper()
	ps := m[name]
	if len(ps) != 1 {
		t.Fatalf("%s: %d series, want 1", name, len(ps))
	}
	return ps[0].Value
}

// TestCollectorSeries folds a synthetic superstep stream through the
// collector and checks every derived series.
func TestCollectorSeries(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	c.Superstep(trace.Event{
		Round: 1, Step: "a", Span: "phase1", Messages: 10, Words: 40,
		MaxSent: 9, MaxRecv: 8, GiniSent: 0.2, GiniRecv: 0.1,
		Sent: []int{20, 20}, Recv: []int{25, 15}, Resident: []int{100, 90},
	})
	c.Superstep(trace.Event{
		Round: 2, Step: "b", Span: "phase1", Messages: 5, Words: 10,
		MaxSent: 4, MaxRecv: 3, GiniSent: 0.5, GiniRecv: 0.05,
		Sent: []int{5, 5}, Recv: []int{5, 5}, Resident: []int{80, 120},
		Crashes: 1, RecoveryRounds: 2, ReplayedWords: 7,
	})
	m := points(c)
	for name, want := range map[string]float64{
		"mprs_committed_round":         2,
		"mprs_supersteps_total":        2,
		"mprs_messages_total":          15,
		"mprs_words_total":             50,
		"mprs_peak_sent_words":         9,
		"mprs_peak_recv_words":         8,
		"mprs_mean_sent_words":         5, // latest round: 10 words / 2 machines
		"mprs_gini_sent":               0.5,
		"mprs_gini_recv":               0.1,
		"mprs_peak_resident_words":     120,
		"mprs_recovered_crashes_total": 1,
		"mprs_recovery_rounds_total":   2,
		"mprs_replayed_words_total":    7,
		"mprs_checkpoint_bytes_total":  0,
	} {
		if got := value(t, m, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestCollectorSpanLatency drives SpanChange with a fake clock and checks
// the per-span histogram: the residence time of the span that just ended is
// observed, labeled with that span's name.
func TestCollectorSpanLatency(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(CollectorOptions{Now: clk.now})
	c.SpanChange("sparsify")
	clk.tick(30 * time.Millisecond)
	c.SpanChange("gather")
	clk.tick(700 * time.Millisecond)
	c.SpanChange("finish")

	var spans []Point
	for _, p := range c.Gather() {
		if p.Name == "mprs_span_seconds" {
			spans = append(spans, p)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("got %d span series, want 2 (finish is still open): %+v", len(spans), spans)
	}
	bySpan := make(map[string]Point)
	for _, p := range spans {
		bySpan[p.Labels[0].Value] = p
	}
	if p := bySpan["sparsify"]; p.Count != 1 || p.Sum != 0.03 {
		t.Errorf("sparsify histogram = count %d sum %v, want 1 / 0.03", p.Count, p.Sum)
	}
	if p := bySpan["gather"]; p.Count != 1 || p.Sum != 0.7 {
		t.Errorf("gather histogram = count %d sum %v, want 1 / 0.7", p.Count, p.Sum)
	}
	// Repeating the current span is not a transition.
	clk.tick(time.Second)
	c.SpanChange("finish")
	if _, ok := indexPoints(c.Gather())["mprs_span_seconds"]; !ok {
		t.Fatal("span histogram vanished")
	}
	for _, p := range c.Gather() {
		if p.Name == "mprs_span_seconds" && p.Labels[0].Value == "finish" {
			t.Error("same-span SpanChange observed a latency for the still-open span")
		}
	}
}

// TestCollectorCurrentSpan pins the mprs_current_span state set: the active
// phase reads 1, a phase the run has left reads 0, and repeating the active
// phase adds no series.
func TestCollectorCurrentSpan(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	c.SpanChange("a")
	c.SpanChange("b")
	c.SpanChange("b")
	got := make(map[string]float64)
	for _, p := range points(c)["mprs_current_span"] {
		if len(p.Labels) != 1 || p.Labels[0].Name != "span" || p.Kind != KindGauge {
			t.Fatalf("unexpected series %+v", p)
		}
		got[p.Labels[0].Value] = p.Value
	}
	if len(got) != 2 || got["a"] != 0 || got["b"] != 1 {
		t.Errorf("mprs_current_span = %v, want a=0 b=1", got)
	}
}

// TestCollectorConcurrentReaders races scraper-style readers (Gather and
// Recent) against the simulation goroutine's commits and span transitions.
// Under -race this proves the locks cover every path; the invariant check
// catches torn reads even without the race detector: the ring must always
// hold consecutive rounds, and the committed round never moves backwards.
func TestCollectorConcurrentReaders(t *testing.T) {
	const rounds = 500
	c := NewCollector(CollectorOptions{FlightCap: 8})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	torn := make(chan string, 1)
	report := func(msg string) {
		select {
		case torn <- msg:
		default:
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				evs := c.Recent()
				for j := 1; j < len(evs); j++ {
					if evs[j].Round != evs[j-1].Round+1 {
						report(fmt.Sprintf("ring not consecutive: %d then %d", evs[j-1].Round, evs[j].Round))
						return
					}
				}
				for _, p := range c.Gather() {
					if p.Name == "mprs_committed_round" {
						if p.Value < last {
							report(fmt.Sprintf("committed round went back from %v to %v", last, p.Value))
							return
						}
						last = p.Value
					}
				}
			}
		}()
	}
	for r := 1; r <= rounds; r++ {
		if r%50 == 0 {
			c.SpanChange(fmt.Sprintf("phase%d", r/50))
		}
		c.Superstep(trace.Event{Round: r, Words: 1, Sent: []int{1}, Recv: []int{1}})
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-torn:
		t.Fatal(msg)
	default:
	}
	m := points(c)
	if got := value(t, m, "mprs_committed_round"); got != rounds {
		t.Errorf("committed round = %v, want %d", got, rounds)
	}
	if evs := c.Recent(); len(evs) != 8 || evs[7].Round != rounds {
		t.Errorf("final ring %+v", evs)
	}
	active := 0
	for _, p := range m["mprs_current_span"] {
		if p.Value == 1 {
			active++
			if p.Labels[0].Value != "phase10" {
				t.Errorf("active span %q, want phase10", p.Labels[0].Value)
			}
		}
	}
	if active != 1 {
		t.Errorf("%d active spans, want 1", active)
	}
}

// TestCollectorRing pins the flight ring's bound and emission order across
// wraparound.
func TestCollectorRing(t *testing.T) {
	c := NewCollector(CollectorOptions{FlightCap: 4})
	for r := 1; r <= 10; r++ {
		c.Superstep(trace.Event{Round: r})
	}
	got := c.Recent()
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := 7 + i; ev.Round != want {
			t.Errorf("ring[%d].Round = %d, want %d", i, ev.Round, want)
		}
	}
}

// TestWireRoundTrip pins the heartbeat payload: points and the ring survive
// encode/decode, and the same version-skew tolerance as snapshots applies.
func TestWireRoundTrip(t *testing.T) {
	clk := newFakeClock()
	c := NewCollector(CollectorOptions{FlightCap: 2, Now: clk.now})
	c.SpanChange("sparsify")
	c.Superstep(trace.Event{Round: 1, Words: 10})
	clk.tick(30 * time.Millisecond)
	c.SpanChange("gather") // a span histogram must not break the encoding
	c.Superstep(trace.Event{Round: 2, Words: 20})
	data, err := c.Wire()
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeWire(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema != SnapshotSchema {
		t.Errorf("wire schema = %q", p.Schema)
	}
	if len(p.Recent) != 2 || p.Recent[1].Round != 2 {
		t.Errorf("wire recent = %+v", p.Recent)
	}
	got := indexPoints(p.Points)
	if v := value(t, got, "mprs_words_total"); v != 30 {
		t.Errorf("wire words_total = %v, want 30", v)
	}
	if h := got["mprs_span_seconds"]; len(h) != 1 || h[0].Count != 1 || len(h[0].Buckets) != len(spanBounds) {
		t.Errorf("wire span histogram = %+v", h)
	}
	if _, err := DecodeWire([]byte(`{"schema":"mprs-telemetry/3","future":1}`)); err != nil {
		t.Errorf("future wire schema rejected: %v", err)
	}
	if _, err := DecodeWire([]byte(`{"schema":"mprs-lifecycle/1"}`)); err == nil {
		t.Error("foreign wire schema accepted")
	}
}

// recordingSink counts Persist calls and returns a scripted size/error.
type recordingSink struct {
	calls int
	n     int64
	err   error
}

func (s *recordingSink) Persist(round int, state [][]uint64) (int64, error) {
	s.calls++
	return s.n, s.err
}

// TestWrapCheckpointSink pins the metering decorator: a pure pass-through
// (same size, same error, inner always called) that accumulates only
// successful persists.
func TestWrapCheckpointSink(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	inner := &recordingSink{n: 128}
	sink := c.WrapCheckpointSink(inner)
	if n, err := sink.Persist(3, nil); n != 128 || err != nil {
		t.Errorf("Persist = (%d, %v), want (128, nil)", n, err)
	}
	inner.err = errors.New("disk full")
	if _, err := sink.Persist(4, nil); err == nil {
		t.Error("error swallowed")
	}
	if inner.calls != 2 {
		t.Errorf("inner called %d times, want 2", inner.calls)
	}
	if got := value(t, points(c), "mprs_checkpoint_bytes_total"); got != 128 {
		t.Errorf("checkpoint bytes = %v, want 128 (failed persist must not count)", got)
	}
	if c.WrapCheckpointSink(nil) != nil {
		t.Error("wrapping a nil sink must stay nil")
	}
}

// TestCollectorObserverPurity documents the observer contract at the type
// level: the collector implements the trace hooks by value inspection only —
// feeding N events twice yields doubled counters but the events themselves
// are never mutated.
func TestCollectorObserverPurity(t *testing.T) {
	ev := trace.Event{Round: 1, Messages: 3, Words: 9, Sent: []int{9}}
	want := fmt.Sprintf("%+v", ev)
	c := NewCollector(CollectorOptions{})
	c.Superstep(ev)
	if got := fmt.Sprintf("%+v", ev); got != want {
		t.Errorf("Superstep mutated its event:\n%s\nwas\n%s", got, want)
	}
}
