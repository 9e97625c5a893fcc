package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestJSONLDeterministicAndShape(t *testing.T) {
	evs := []Event{
		{Round: 1, Step: "a", Span: "setup", Sent: []int{3, 0}, Recv: []int{0, 3}, Messages: 1, Words: 3, MaxSent: 3, MaxRecv: 3, GiniSent: 0.5, GiniRecv: 0.5},
		{Round: 2, Step: "b", Span: "sparsify"},
		{Round: 3, Step: "c", Span: "finish", Crashes: 1, RecoveryRounds: 2, ReplayedWords: 7},
	}
	render := func() string {
		var b bytes.Buffer
		tr := NewJSONL(&b)
		for _, ev := range evs {
			tr.Superstep(ev)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first := render()
	if second := render(); second != first {
		t.Fatalf("identical event streams encoded differently:\n%s\nvs\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), first)
	}
	if want := `{"round":1,"step":"a","span":"setup","sent":[3,0],"recv":[0,3],"messages":1,"words":3,"max_sent":3,"max_recv":3,"gini_sent":0.5,"gini_recv":0.5}`; lines[0] != want {
		t.Errorf("line 1 = %s\nwant     %s", lines[0], want)
	}
	// omitempty: an event without traffic carries no empty per-machine
	// fields, and fault counters appear only when non-zero.
	if strings.Contains(lines[1], "crashes") || strings.Contains(lines[1], `"sent"`) {
		t.Errorf("quiet event carries empty fields: %s", lines[1])
	}
	for _, want := range []string{`"crashes":1`, `"recovery_rounds":2`, `"replayed_words":7`} {
		if !strings.Contains(lines[2], want) {
			t.Errorf("line 3 missing %s: %s", lines[2], want)
		}
	}
}

type failWriter struct{ failAfter int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.failAfter <= 0 {
		return 0, errors.New("disk full")
	}
	w.failAfter--
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	tr := NewJSONL(&failWriter{failAfter: 0})
	for i := 0; i < 4100; i++ { // enough to overflow the bufio buffer
		tr.Superstep(Event{Round: i})
	}
	if err := tr.Close(); err == nil {
		t.Fatal("write error not surfaced")
	}
	if tr.Err() == nil {
		t.Fatal("Err() lost the sticky error")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	if got := r.Events(); len(got) != 0 {
		t.Fatalf("fresh ring has %d events", len(got))
	}
	for i := 1; i <= 5; i++ {
		r.Superstep(Event{Round: i})
	}
	if r.Total() != 5 {
		t.Fatalf("total %d, want 5", r.Total())
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	for i, want := range []int{3, 4, 5} {
		if got[i].Round != want {
			t.Fatalf("events %v, want rounds [3 4 5]", got)
		}
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	r.Superstep(Event{Round: 1})
	r.Superstep(Event{Round: 2})
	got := r.Events()
	if len(got) != 1 || got[0].Round != 2 {
		t.Fatalf("events %v, want just round 2", got)
	}
}

func TestMulti(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := Multi{a, nil, b}
	m.Superstep(Event{Round: 1})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("fan-out missed a sink: %d, %d", a.Total(), b.Total())
	}
}

// spanLog records the spans it is notified of.
type spanLog struct{ spans []string }

func (l *spanLog) Superstep(Event)        {}
func (l *spanLog) SpanChange(span string) { l.spans = append(l.spans, span) }

func TestMultiForwardsSpanChange(t *testing.T) {
	a, b := &spanLog{}, &spanLog{}
	m := Multi{a, NewRing(1), nil, b}
	m.SpanChange("seed-search")
	if len(a.spans) != 1 || a.spans[0] != "seed-search" || len(b.spans) != 1 || b.spans[0] != "seed-search" {
		t.Fatalf("Multi did not fan SpanChange out to observers: %v, %v", a.spans, b.spans)
	}
}

func TestGini(t *testing.T) {
	tests := []struct {
		name string
		xs   []int
		want float64
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "all zero", xs: []int{0, 0, 0}, want: 0},
		{name: "balanced", xs: []int{5, 5, 5, 5}, want: 0},
		{name: "one carries all of two", xs: []int{0, 10}, want: 0.5},
		{name: "one carries all of four", xs: []int{0, 0, 0, 8}, want: 0.75},
		{name: "unsorted input", xs: []int{8, 0, 0, 0}, want: 0.75},
	}
	for _, tt := range tests {
		if got := Gini(append([]int(nil), tt.xs...)); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("%s: Gini = %v, want %v", tt.name, got, tt.want)
		}
	}
	// n nodes, one carrying everything: G = (n-1)/n → 1.
	big := make([]int, 100)
	big[7] = 1000
	if got, want := Gini(big), 0.99; math.Abs(got-want) > 1e-12 {
		t.Errorf("concentrated: Gini = %v, want %v", got, want)
	}
}

// TestGiniExactEdgeCases pins the degenerate inputs the skew aggregation
// feeds Gini in real runs — single-machine clusters, rounds with no traffic,
// and perfectly concentrated (one-hot) rounds — and requires the closed-form
// answers exactly (==, no tolerance): 0 for the first two, (m−1)/m for a
// one-hot round over m machines. These are the boundary values the span
// aggregation's max-folding relies on.
func TestGiniExactEdgeCases(t *testing.T) {
	oneHot := func(m, hot, words int) []int {
		xs := make([]int, m)
		xs[hot] = words
		return xs
	}
	tests := []struct {
		name string
		xs   []int
		want float64
	}{
		{name: "single machine with traffic", xs: []int{42}, want: 0},
		{name: "single machine no traffic", xs: []int{0}, want: 0},
		{name: "all-zero round m=5", xs: []int{0, 0, 0, 0, 0}, want: 0},
		{name: "one-hot m=2", xs: oneHot(2, 1, 9), want: 1.0 / 2},
		{name: "one-hot m=4 first machine", xs: oneHot(4, 0, 1), want: 3.0 / 4},
		{name: "one-hot m=8 mid machine", xs: oneHot(8, 3, 1000), want: 7.0 / 8},
		{name: "one-hot m=8192 (clique gather ceiling)", xs: oneHot(8192, 0, 12345), want: 8191.0 / 8192},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Gini(append([]int(nil), tt.xs...)); got != tt.want {
				t.Errorf("Gini = %v, want exactly %v", got, tt.want)
			}
		})
	}
	// The scratch buffer is sorted in place by design; calling again on the
	// now-sorted slice must give the same answer (order invariance).
	xs := oneHot(16, 15, 7)
	first := Gini(xs)
	if second := Gini(xs); second != first {
		t.Errorf("Gini not order-invariant: %v then %v", first, second)
	}
	if want := 15.0 / 16; first != want {
		t.Errorf("one-hot m=16: Gini = %v, want exactly %v", first, want)
	}
}

func TestFromRoundSplice(t *testing.T) {
	full := NewRing(16)
	spliced := NewRing(16)
	filter := FromRound{Sink: spliced, After: 3}
	for r := 1; r <= 6; r++ {
		ev := Event{Round: r, Step: "tick", Words: r * 10}
		full.Superstep(ev)
		filter.Superstep(ev)
	}
	got := spliced.Events()
	if len(got) != 3 {
		t.Fatalf("filter kept %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Round != 4+i {
			t.Fatalf("spliced event %d has round %d, want %d", i, ev.Round, 4+i)
		}
	}
	// Concatenating the interrupted prefix (rounds 1..3) with the spliced
	// suffix reconstructs the uninterrupted stream.
	joined := append(full.Events()[:3:3], got...)
	if len(joined) != 6 {
		t.Fatalf("splice reconstruction has %d events", len(joined))
	}
	for i, ev := range joined {
		if ev.Round != i+1 || ev.Words != (i+1)*10 {
			t.Fatalf("reconstructed event %d = %+v", i, ev)
		}
	}
	// Nil sink is a no-op, not a panic.
	FromRound{After: 1}.Superstep(Event{Round: 5})
}
