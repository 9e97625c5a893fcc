// Package trace is the simulators' observability layer: per-superstep events
// carrying the per-machine communication and memory quantities the paper's
// theorems bound, plus the recovery activity of the fault layer.
//
// Both simulators (internal/mpc and internal/clique) emit one Event per
// committed superstep to a registered Tracer. Tracing is strictly passive and
// deterministic: events are a pure function of (input, options, fault plan),
// contain no wall-clock timestamps, and the built-in JSONL sink therefore
// produces byte-identical files for identical runs — proven by test. With no
// tracer registered the simulators skip event construction entirely, so the
// hot superstep path pays nothing.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sync"
)

// Event records one committed superstep.
// Slices are per-machine (per-node in the congested clique), indexed by
// machine id; they are owned by the event and never aliased by the emitting
// cluster.
type Event struct {
	// Round is the 1-based committed round index (after this superstep).
	Round int `json:"round"`
	// Step is the step name passed to Step/RouteStep.
	Step string `json:"step"`
	// Span is the algorithm phase annotation active during the superstep
	// (e.g. "sparsify", "seed-search", "gather", "finish").
	Span string `json:"span"`

	// Sent and Recv are words sent/received per machine this round.
	Sent []int `json:"sent,omitempty"`
	Recv []int `json:"recv,omitempty"`
	// Resident is the per-machine resident memory in words at the barrier
	// (MPC simulator only; the clique model has no memory budget).
	Resident []int `json:"resident,omitempty"`

	// Messages and Words total the round's delivered traffic.
	Messages int `json:"messages"`
	Words    int `json:"words"`
	// MaxSent and MaxRecv are the per-machine peaks this round.
	MaxSent int `json:"max_sent"`
	MaxRecv int `json:"max_recv"`
	// GiniSent and GiniRecv are the round's communication-imbalance
	// coefficients (0 = perfectly balanced, →1 = one machine carries all).
	GiniSent float64 `json:"gini_sent"`
	GiniRecv float64 `json:"gini_recv"`

	// Recovery activity (fault layer) that occurred while committing this
	// superstep, as deltas against the previous superstep.
	Crashes        int   `json:"crashes,omitempty"`
	RecoveryRounds int   `json:"recovery_rounds,omitempty"`
	ReplayedWords  int64 `json:"replayed_words,omitempty"`
}

// Tracer receives one event per committed superstep. Implementations must
// not retain ev's slices beyond the call unless they own them (the emitting
// simulators allocate fresh slices per event, so retaining is safe for the
// built-in sinks).
type Tracer interface {
	Superstep(ev Event)
}

// SpanObserver is implemented by tracers that want to learn of algorithm
// phase changes the moment they happen, rather than at the next superstep
// barrier. The simulators notify the registered tracer on every Span call
// when it implements this interface; Multi fans the notification out.
type SpanObserver interface {
	SpanChange(span string)
}

// JSONL is a Tracer writing one JSON object per line. Encoding is
// deterministic (fixed field order, no timestamps), so two identical runs
// produce byte-identical output.
type JSONL struct {
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONL creates a JSONL tracer over w. If w is an io.Closer (e.g. an
// *os.File), Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONL {
	t := &JSONL{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	return t
}

// Superstep implements Tracer. The first write error is retained and
// surfaced by Close; later events are dropped.
func (t *JSONL) Superstep(ev Event) {
	if t.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(data); err != nil {
		t.err = err
		return
	}
	t.err = t.bw.WriteByte('\n')
}

// Err returns the first write/encode error, if any.
func (t *JSONL) Err() error { return t.err }

// Close flushes the buffer (and closes the underlying writer when it is an
// io.Closer), returning the first error observed.
func (t *JSONL) Close() error {
	if err := t.bw.Flush(); t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Ring is an in-memory Tracer retaining the most recent Cap events — the
// "flight recorder" sink for tests, experiments and post-mortem inspection
// without unbounded memory.
type Ring struct {
	cap   int
	evs   []Event
	start int
	total int
}

// NewRing creates a ring buffer holding the last n events (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{cap: n}
}

// Superstep implements Tracer.
func (r *Ring) Superstep(ev Event) {
	if len(r.evs) < r.cap {
		r.evs = append(r.evs, ev)
	} else {
		r.evs[r.start] = ev
		r.start = (r.start + 1) % r.cap
	}
	r.total++
}

// Total returns the number of events observed (including evicted ones).
func (r *Ring) Total() int { return r.total }

// Events returns the retained events in emission order.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.evs))
	out = append(out, r.evs[r.start:]...)
	out = append(out, r.evs[:r.start]...)
	return out
}

// FromRound wraps a Tracer, forwarding only events with Round > After —
// the splice filter for resumed runs. A run resumed from durable round R
// deterministically replays rounds 1..R, which the interrupted run's trace
// already recorded; suppressing them (and stamping the header with
// ResumedFrom: R) makes the resumed trace the exact continuation of the
// interrupted one, so concatenating the two reconstructs the uninterrupted
// event stream byte-for-byte.
type FromRound struct {
	// Sink receives the surviving events.
	Sink Tracer
	// After is the last suppressed round: events with Round <= After are
	// dropped.
	After int
}

// Superstep implements Tracer.
func (f FromRound) Superstep(ev Event) {
	if f.Sink != nil && ev.Round > f.After {
		f.Sink.Superstep(ev)
	}
}

// Multi fans one event stream out to several tracers.
type Multi []Tracer

// Superstep implements Tracer.
func (m Multi) Superstep(ev Event) {
	for _, t := range m {
		if t != nil {
			t.Superstep(ev)
		}
	}
}

// SpanChange implements SpanObserver, forwarding to every tracer that
// observes spans.
func (m Multi) SpanChange(span string) {
	for _, t := range m {
		if o, ok := t.(SpanObserver); ok {
			o.SpanChange(span)
		}
	}
}

// Gini computes the Gini imbalance coefficient of the non-negative values
// in xs, sorting xs in place (callers pass scratch buffers). 0 means
// perfectly balanced load; values toward 1 mean one machine carries
// everything. Returns 0 for empty input or an all-zero round.
//
// Zeros rank first and add nothing to either sum, so only the nonzero
// values are sorted, packed at the back behind the zeros with their ranks
// offset by the zero count; input whose nonzero values already ascend is
// not sorted at all. Loads are mostly small integers, so when the largest
// value is below len(xs) the nonzero values are sorted by counting them
// instead of by comparison. The sums, and so the result, are those of a
// full sort.
func Gini(xs []int) float64 {
	z, sorted := len(xs), true
	lo, hi := math.MaxInt, 0 // the smallest and largest nonzero value
	for i := len(xs) - 1; i >= 0; i-- {
		if x := xs[i]; x != 0 {
			z--
			sorted = sorted && (z == len(xs)-1 || x <= xs[z+1])
			xs[z] = x
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	clear(xs[:z])
	nonzero := xs[z:]
	switch {
	case sorted:
	case lo > 0 && hi < len(xs):
		countingSort(nonzero, hi)
	default:
		slices.Sort(nonzero)
	}
	var sum, weighted int64
	for i, x := range nonzero {
		sum += int64(x)
		weighted += int64(z+i+1) * int64(x)
	}
	if sum == 0 {
		return 0
	}
	n := float64(len(xs))
	return 2*float64(weighted)/(n*float64(sum)) - (n+1)/n
}

// giniCounts keeps countingSort's per-value counters between calls.
var giniCounts = sync.Pool{New: func() any { return new([]int) }}

// countingSort sorts xs, whose values lie in [0, hi], by counting each
// value and writing the counts back in ascending order.
func countingSort(xs []int, hi int) {
	p := giniCounts.Get().(*[]int)
	counts := slices.Grow((*p)[:0], hi+1)[:hi+1]
	clear(counts)
	for _, x := range xs {
		counts[x]++
	}
	i := 0
	for v, k := range counts {
		for ; k > 0; k-- {
			xs[i] = v
			i++
		}
	}
	*p = counts
	giniCounts.Put(p)
}
