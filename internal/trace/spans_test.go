package trace

import (
	"reflect"
	"testing"
)

// TestSpansCountRoundDeltas pins the reducer: spans in first-appearance
// order, each event worth its Round minus the previous event's, so a routed
// step that commits two rounds in one event counts both, and a round without
// traffic counts too. Counters add; maxima and Gini coefficients take the
// worst round.
func TestSpansCountRoundDeltas(t *testing.T) {
	evs := []Event{
		{Round: 1, Span: "setup", Messages: 2, Words: 10, MaxSent: 5, MaxRecv: 10, GiniSent: 0.25, GiniRecv: 0.5},
		{Round: 3, Span: "gather", Messages: 4, Words: 20, MaxSent: 9, MaxRecv: 8, GiniSent: 0.75, GiniRecv: 0.125},
		{Round: 4, Span: "setup", Messages: 1, Words: 10, MaxSent: 7, MaxRecv: 2, GiniSent: 0.5, GiniRecv: 0.25},
		{Round: 5, Span: "finish"},
	}
	want := []SpanStat{
		{Span: "setup", Rounds: 2, Messages: 3, Words: 20, Share: 0.5, MaxSent: 7, MaxRecv: 10, GiniSent: 0.5, GiniRecv: 0.5},
		{Span: "gather", Rounds: 2, Messages: 4, Words: 20, Share: 0.5, MaxSent: 9, MaxRecv: 8, GiniSent: 0.75, GiniRecv: 0.125},
		{Span: "finish", Rounds: 1},
	}
	if got := Spans(0, evs); !reflect.DeepEqual(got, want) {
		t.Fatalf("Spans =\n%+v\nwant\n%+v", got, want)
	}
}

// TestSpansResumedTrace: a resumed trace's first event counts from the
// header's ResumedFrom, not from round 0.
func TestSpansResumedTrace(t *testing.T) {
	evs := []Event{{Round: 9, Span: "sparsify"}, {Round: 10, Span: "sparsify"}}
	if got := Spans(8, evs); len(got) != 1 || got[0].Rounds != 2 {
		t.Fatalf("resumed spans = %+v, want 2 rounds", got)
	}
	if got := Spans(0, nil); got != nil {
		t.Fatalf("empty trace reduced to %+v", got)
	}
}

// TestLogDropsVectors: the round log keeps every event's totals and labels
// but not its per-machine vectors.
func TestLogDropsVectors(t *testing.T) {
	var l Log
	l.Superstep(Event{Round: 1, Step: "s", Span: "setup", Sent: []int{1}, Recv: []int{1}, Resident: []int{2}, Words: 1, Crashes: 1})
	want := Log{{Round: 1, Step: "s", Span: "setup", Words: 1, Crashes: 1}}
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("log = %+v, want %+v", l, want)
	}
}
