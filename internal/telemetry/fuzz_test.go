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

// FuzzReadFlight feeds arbitrary bytes, seeded with artifacts WriteFlight
// wrote, through ReadFlight, which traceview runs on flight records from
// disk: it must reject malformed input with an error, never a panic. An
// artifact it accepts must survive a round trip through WriteFlight.
func FuzzReadFlight(f *testing.F) {
	evs := []trace.Event{
		{Round: 7, Step: "route", Span: "gather", Sent: []int{4, 0}, Recv: []int{0, 4}, Words: 40, GiniRecv: 0.5},
		{Round: 8, Step: "route", Span: "gather", Charged: true},
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
