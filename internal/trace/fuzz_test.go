package trace

import (
	"bytes"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes, seeded with traces the JSONL sink
// wrote, through NewReader and ReadAll, which traceview and the bench diff
// run on files from disk: they must reject malformed input with an error,
// never a panic. A trace they accept must survive a round trip through the
// JSONL sink: writing its header and events back and reading them again
// gives a trace that writes out to the same bytes.
func FuzzTraceReader(f *testing.F) {
	evs := []Event{
		{Round: 1, Step: "a", Span: "setup", Sent: []int{3, 0}, Recv: []int{0, 3}, Resident: []int{9, 9}, Messages: 1, Words: 3, MaxSent: 3, MaxRecv: 3, GiniSent: 0.5, GiniRecv: 0.5},
		{Round: 2, Step: "b", Span: "sparsify", Charged: true},
		{Round: 3, Step: "c", Span: "finish", Crashes: 1, RecoveryRounds: 2, ReplayedWords: 40},
	}
	hdr := Header{Algo: "det2", Spec: "gnp:n=16,p=0.2", Seed: 7, Machines: 2, Build: []byte(`{"go":"go1.22"}`), ResumedFrom: 4}
	f.Add(writeTrace(f, &hdr, evs))
	f.Add(writeTrace(f, nil, evs))
	f.Add(writeTrace(f, &hdr, nil))
	f.Add([]byte{})
	f.Add([]byte("{\"schema\":\"mprs-trace/9\"}\n{\"round\":1}\r\n"))
	f.Add([]byte("{\"schema\":\"other/1\"}\n"))
	f.Add([]byte("null\n{\"round\":1e99}\n"))
	f.Add([]byte("{\"round\":1,\"sent\":[]}\n{\"round\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, evs, ok := readBack(data)
		if !ok {
			return
		}
		once := writeTrace(t, h, evs)
		h, evs, ok = readBack(once)
		if !ok {
			t.Fatalf("the sink wrote a trace the reader rejects, from input %q", data)
		}
		if twice := writeTrace(t, h, evs); !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the trace:\n%s\nbecame\n%s", once, twice)
		}
	})
}

// readBack decodes data with ReadAll, and with NewReader for whether it
// has a header line (h is nil when not). ok is false when data is not a
// trace.
func readBack(data []byte) (h *Header, evs []Event, ok bool) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, false
	}
	if _, evs, err = ReadAll(bytes.NewReader(data)); err != nil {
		return nil, nil, false
	}
	if hdr, has := rd.Header(); has {
		h = &hdr
	}
	return h, evs, true
}

// writeTrace renders a header (when non-nil) and events with the JSONL sink.
func writeTrace(tb testing.TB, h *Header, evs []Event) []byte {
	tb.Helper()
	var b bytes.Buffer
	w := NewJSONL(&b)
	if h != nil {
		if err := w.WriteHeader(*h); err != nil {
			tb.Fatal(err)
		}
	}
	for _, ev := range evs {
		w.Superstep(ev)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}
