package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/rulingset/mprs/internal/trace"
)

// FuzzDecodeWire feeds arbitrary bytes, seeded with payloads a collector
// wrote, through DecodeWire, which the supervisor runs on every heartbeat a
// worker sends: it must reject malformed input with an error, never a
// panic. A payload it accepts must re-marshal stably: marshalling it,
// decoding that and marshalling again gives the same bytes.
func FuzzDecodeWire(f *testing.F) {
	clk := newFakeClock()
	c := NewCollector(CollectorOptions{FlightCap: 2, Now: clk.now})
	c.SpanChange("sparsify")
	c.Superstep(trace.Event{Round: 1, Step: "a", Sent: []int{3, 0}, Words: 3, GiniSent: 0.5})
	clk.tick(30 * time.Millisecond)
	c.SpanChange("gather")
	c.Superstep(trace.Event{Round: 2, Step: "b", Words: 20, Crashes: 1, ReplayedWords: 8})
	data, err := c.Wire()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"schema":"mprs-telemetry/3","future":1}`))
	f.Add([]byte(`{"schema":"mprs-lifecycle/1"}`))
	f.Add([]byte(`{"points":[{"name":"x","kind":"histogram","buckets":[{"le":0.5,"count":2}],"sum":1e308}]}`))
	f.Add([]byte(`{"recent":[{"round":1e99}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeWire(data)
		if err != nil {
			return
		}
		once, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted payload does not marshal: %v", err)
		}
		q, err := DecodeWire(once)
		if err != nil {
			t.Fatalf("DecodeWire rejects its own re-marshalled payload %s: %v", once, err)
		}
		twice, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-marshalling changed the payload:\n%s\nbecame\n%s", once, twice)
		}
	})
}

// FuzzDecodeSnapshot feeds arbitrary bytes, seeded with documents
// EncodeSnapshot wrote, through DecodeSnapshot, which reads the
// /telemetry.json document: it must reject malformed input with an error,
// never a panic. The points of a snapshot it accepts must re-encode
// stably: EncodeSnapshot of them, decoded and encoded again, gives the
// same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	r := NewRegistry()
	r.Counter("mprs_words_total", "Words delivered.").Add(1234)
	r.Gauge("mprs_committed_round", "Latest committed round.", Label{Name: "worker", Value: "1"}).Set(7)
	h := r.Histogram("mprs_span_seconds", "Phase residence.", []float64{0.01, 0.1, 1}, Label{Name: "span", Value: "gather"})
	h.Observe(0.05)
	h.Observe(5)
	f.Add(encodeSnapshot(f, r.Gather()))
	f.Add(encodeSnapshot(f, nil))
	f.Add([]byte(`{"schema":"mprs-telemetry/9","points":[{"name":"x","kind":"gauge","value":1,"novel":true}],"extra":{}}`))
	f.Add([]byte(`{"points":[]}`))
	f.Add([]byte(`{"schema":"mprs-trace/1"}`))
	f.Add([]byte(`{"points":[{"name":"h","kind":"histogram","buckets":[{"le":1e308,"count":2}],"sum":-0}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		once := encodeSnapshot(t, s.Points)
		s, err = DecodeSnapshot(once)
		if err != nil {
			t.Fatalf("DecodeSnapshot rejects a document EncodeSnapshot wrote: %v\n%s", err, once)
		}
		if s.Schema != SnapshotSchema {
			t.Fatalf("re-encoded snapshot has schema %q, want %q", s.Schema, SnapshotSchema)
		}
		if twice := encodeSnapshot(t, s.Points); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding changed the snapshot:\n%s\nbecame\n%s", once, twice)
		}
	})
}

// fixedPoints is a fixed set of points as a Gatherer.
type fixedPoints []Point

func (p fixedPoints) Gather() []Point { return p }

// encodeSnapshot renders the snapshot document of ps.
func encodeSnapshot(tb testing.TB, ps []Point) []byte {
	tb.Helper()
	data, err := EncodeSnapshot(fixedPoints(ps))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzReadFlight feeds arbitrary bytes, seeded with artifacts WriteFlight
// wrote, through ReadFlight, which traceview runs on flight records from
// disk: it must reject malformed input with an error, never a panic. An
// artifact it accepts must survive a round trip through WriteFlight.
func FuzzReadFlight(f *testing.F) {
	evs := []trace.Event{
		{Round: 7, Step: "route", Span: "gather", Sent: []int{4, 0}, Recv: []int{0, 4}, Words: 40, GiniRecv: 0.5},
		{Round: 8, Step: "route", Span: "gather"},
	}
	hdr := FlightHeader{Worker: 1, Attempt: 2, Round: 8, Kind: "crash", Reason: "heartbeat lost", Algo: "det2", Spec: "gnp:n=16,p=0.2"}
	f.Add(writeFlight(f, hdr, evs))
	f.Add(writeFlight(f, FlightHeader{Worker: -1, Kind: "error"}, nil))
	f.Add([]byte{})
	f.Add([]byte("{\"schema\":\"mprs-flight/1\"}\r\n\n"))
	f.Add([]byte("{\"schema\":\"mprs-trace/1\"}\n{\"round\":1}\n"))
	f.Add([]byte("{\"schema\":\"mprs-flight/1\",\"events\":1}\n{\"round\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, evs, err := ReadFlight(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := writeFlight(t, h, evs)
		h, evs, err = ReadFlight(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("WriteFlight wrote an artifact ReadFlight rejects: %v\n%s", err, once)
		}
		if twice := writeFlight(t, h, evs); !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the artifact:\n%s\nbecame\n%s", once, twice)
		}
	})
}

// writeFlight renders one flight artifact into memory.
func writeFlight(tb testing.TB, hdr FlightHeader, evs []trace.Event) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := WriteFlight(&b, hdr, evs); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}
