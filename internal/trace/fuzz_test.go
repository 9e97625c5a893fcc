package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
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
		{Round: 2, Step: "b", Span: "sparsify"},
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

// giniSorted is the reference Gini is held to: sort every value and rank
// each one, zeros included.
func giniSorted(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	var sum, weighted int64
	for i, x := range xs {
		sum += int64(x)
		weighted += int64(i+1) * int64(x)
	}
	if sum == 0 {
		return 0
	}
	n := float64(len(xs))
	return 2*float64(weighted)/(n*float64(sum)) - (n+1)/n
}

// FuzzGini holds Gini to the full-sort reference, bit for bit, on
// non-negative loads: each pair of bytes is one value, zero when its low
// bits are, so rounds mix many silent machines with busy ones. With
// presorted set the input ascends already. Gini must leave xs sorted, as
// the reference does, so a second call gives the same answer.
func FuzzGini(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0, 0, 0, 0}, false)
	f.Add([]byte{7, 1, 0, 0, 3, 0, 9, 200}, false)
	f.Add([]byte{7, 1, 0, 0, 3, 0, 9, 200}, true)
	f.Add([]byte{255, 255, 1, 0, 0, 0, 255, 255, 128, 2}, false)
	f.Add([]byte{3, 0, 1, 0, 0, 0, 2, 0, 5, 0, 1, 0, 7, 0, 2, 0}, false) // loads below len: counted
	f.Fuzz(func(t *testing.T, data []byte, presorted bool) {
		xs := make([]int, len(data)/2)
		for i := range xs {
			if w := binary.LittleEndian.Uint16(data[2*i:]); w&3 != 0 {
				xs[i] = int(w)
			}
		}
		if presorted {
			slices.Sort(xs)
		}
		ref := slices.Clone(xs)
		want := giniSorted(ref)
		got := Gini(xs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Gini(%v) = %v, full sort gives %v", ref, got, want)
		}
		if !slices.Equal(xs, ref) {
			t.Fatalf("Gini left %v, want the sorted %v", xs, ref)
		}
		if again := Gini(xs); math.Float64bits(again) != math.Float64bits(want) {
			t.Fatalf("Gini on its own output = %v, want %v", again, want)
		}
	})
}
