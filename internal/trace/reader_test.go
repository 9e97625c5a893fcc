package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReaderRoundTripsHeaderAndEvents(t *testing.T) {
	evs := []Event{
		{Round: 1, Step: "a", Span: "setup", Sent: []int{3, 0}, Recv: []int{0, 3}, Messages: 1, Words: 3, MaxSent: 3, MaxRecv: 3, GiniSent: 0.5, GiniRecv: 0.5},
		{Round: 2, Step: "b", Span: "sparsify"},
		{Round: 3, Step: "c", Span: "finish", Crashes: 1, RecoveryRounds: 2},
	}
	var b bytes.Buffer
	w := NewJSONL(&b)
	if err := w.WriteHeader(Header{Algo: "det2", Spec: "gnp:n=16,p=0.2", Seed: 7, Machines: 2}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		w.Superstep(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	h, got, err := ReadAll(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != Schema {
		t.Errorf("header schema %q, want %q", h.Schema, Schema)
	}
	if h.Algo != "det2" || h.Spec != "gnp:n=16,p=0.2" || h.Seed != 7 || h.Machines != 2 {
		t.Errorf("header fields lost: %+v", h)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("events did not round-trip:\ngot  %+v\nwant %+v", got, evs)
	}
}

// TestReaderDecodesChargedEvents: traces written while the simulator still
// charged analytic rounds mark them "charged":true. The field is gone from
// Event, and such a trace still decodes, the mark ignored.
func TestReaderDecodesChargedEvents(t *testing.T) {
	old := `{"round":1,"step":"a","span":"sparsify","messages":1,"words":2,"max_sent":2,"max_recv":2,"gini_sent":0,"gini_recv":0}
{"round":2,"step":"beta/relabel","span":"sparsify","charged":true,"messages":0,"words":0,"max_sent":0,"max_recv":0,"gini_sent":0,"gini_recv":0}
`
	_, got, err := ReadAll(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Round: 1, Step: "a", Span: "sparsify", Messages: 1, Words: 2, MaxSent: 2, MaxRecv: 2},
		{Round: 2, Step: "beta/relabel", Span: "sparsify"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %+v, want %+v", got, want)
	}
}

func TestReaderHeaderlessTrace(t *testing.T) {
	// Pre-header traces (PR 2 output) are plain event streams; the reader
	// must treat the first line as an event, not reject it.
	var b bytes.Buffer
	w := NewJSONL(&b)
	w.Superstep(Event{Round: 1, Step: "s", Span: "setup", Words: 4})
	w.Superstep(Event{Round: 2, Step: "s", Span: "setup", Words: 5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Header(); ok {
		t.Fatal("headerless trace reported a header")
	}
	var rounds []int
	for {
		ev, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, ev.Round)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2}) {
		t.Fatalf("rounds %v, want [1 2]", rounds)
	}
}

func TestReaderEmptyTrace(t *testing.T) {
	rd, err := NewReader(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty trace Next = %v, want io.EOF", err)
	}
}

func TestReaderRejectsUnknownSchema(t *testing.T) {
	if _, err := NewReader(strings.NewReader(`{"schema":"other/9"}` + "\n")); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestReaderReportsBadLineWithNumber(t *testing.T) {
	in := `{"schema":"mprs-trace/1"}` + "\n" + `{"round":1}` + "\n" + "not json\n"
	rd, err := NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("bad line error %v, want mention of line 3", err)
	}
}

func TestWriteHeaderForcesSchemaAndStaysDeterministic(t *testing.T) {
	render := func() string {
		var b bytes.Buffer
		w := NewJSONL(&b)
		if err := w.WriteHeader(Header{Schema: "bogus", Algo: "det2", Build: json.RawMessage(`{"go_version":"go1.22.0"}`)}); err != nil {
			t.Fatal(err)
		}
		w.Superstep(Event{Round: 1})
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	if second := render(); first != second {
		t.Fatal("headered traces of identical runs differ")
	}
	if !strings.HasPrefix(first, `{"schema":"mprs-trace/1"`) {
		t.Fatalf("caller-supplied schema not overridden: %s", first)
	}
	if !strings.Contains(first, `"go_version":"go1.22.0"`) {
		t.Fatalf("build stamp dropped: %s", first)
	}
}

func TestHeaderResumedFromRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONL(&buf)
	if err := w.WriteHeader(Header{Algo: "DetRuling2", ResumedFrom: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"resumed_from":7`) {
		t.Fatalf("header line = %q", buf.String())
	}
	h, _, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.ResumedFrom != 7 {
		t.Fatalf("ResumedFrom = %d, want 7", h.ResumedFrom)
	}
	// Fresh runs omit the field entirely, keeping headers byte-identical to
	// pre-resume builds.
	buf.Reset()
	w = NewJSONL(&buf)
	if err := w.WriteHeader(Header{Algo: "DetRuling2"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "resumed_from") {
		t.Fatalf("fresh header leaks resumed_from: %q", buf.String())
	}
}

// writeTraceFile writes header (when non-nil) and evs to a JSONL file in a
// fresh temporary directory and returns its path.
func writeTraceFile(t *testing.T, header *Header, evs []Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewJSONL(f)
	if header != nil {
		if err := w.WriteHeader(*header); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range evs {
		w.Superstep(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadFile(t *testing.T) {
	evs := []Event{
		{Round: 1, Step: "a", Span: "setup", Words: 4},
		{Round: 2, Step: "b", Span: "finish", Words: 5},
	}
	path := writeTraceFile(t, &Header{Algo: "det2", Seed: 3}, evs)
	h, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != Schema || h.Algo != "det2" || h.Seed != 3 {
		t.Errorf("header %+v, want schema %q, algo det2, seed 3", h, Schema)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("events did not round-trip:\ngot  %+v\nwant %+v", got, evs)
	}
}

func TestReadFileErrors(t *testing.T) {
	t.Run("missing", func(t *testing.T) {
		_, _, err := ReadFile(filepath.Join(t.TempDir(), "absent.jsonl"))
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("err = %v, want fs.ErrNotExist", err)
		}
	})
	t.Run("bad line", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		if err := os.WriteFile(path, []byte(`{"round":1}`+"\nnot json\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, evs, err := ReadFile(path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("err = %v, want the path and line 2", err)
		}
		if len(evs) != 1 || evs[0].Round != 1 {
			t.Fatalf("events before the bad line: %+v, want round 1", evs)
		}
	})
}

// TestReaderLine checks that Line is the 1-based line of the last header or
// event returned, with or without a header line.
func TestReaderLine(t *testing.T) {
	evs := []Event{{Round: 1}, {Round: 2}}
	for _, tc := range []struct {
		name   string
		header *Header
		before int // lines before the first event
	}{
		{name: "header", header: &Header{Algo: "det2"}, before: 1},
		{name: "headerless", before: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(writeTraceFile(t, tc.header, evs))
			if err != nil {
				t.Fatal(err)
			}
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != nil && rd.Line() != 1 {
				t.Fatalf("Line() = %d after the header, want 1", rd.Line())
			}
			for i := range evs {
				if _, err := rd.Next(); err != nil {
					t.Fatal(err)
				}
				if want := tc.before + i + 1; rd.Line() != want {
					t.Fatalf("Line() = %d after event %d, want %d", rd.Line(), i+1, want)
				}
			}
		})
	}
}
