// Package telemetry is the wall-clock side of observability: a metrics
// registry with Prometheus text exposition and JSON snapshots, a per-run
// collector fed by the deterministic trace stream, a fleet view merging
// per-worker snapshots under the supervisor, and a crash flight recorder.
//
// The package is strictly an observer of the deterministic core. It consumes
// the committed superstep events the simulators already emit (trace.Tracer /
// trace.SpanObserver) and decorates the durable checkpoint sink, but nothing
// here ever feeds back into Stats, trace bytes or checkpoint bytes — runs
// with telemetry enabled are bit-identical to runs without it, and detflow
// keeps the package registered as a non-sink so a backflow cannot creep in
// silently. Because telemetry is advisory, it is also the one place outside
// the harnesses allowed to read the wall clock (span latencies, scrape
// timing); the determinism contract lives in the trace, not here.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is an instrument family's type, matching the Prometheus TYPE line.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name=value pair attached to a series.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Bucket is one cumulative histogram bucket: the count of observations with
// value <= LE. Points carry the finite bounds only; the terminal +Inf bucket
// is the Point's Count, left implicit because encoding/json rejects
// infinities and would fail every JSON snapshot and heartbeat payload.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Point is one gathered series — the single interchange format behind the
// Prometheus exposition, the JSON snapshot endpoint and the heartbeat wire
// payload.
type Point struct {
	Name   string  `json:"name"`
	Help   string  `json:"help,omitempty"`
	Kind   Kind    `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	// Value carries counters and gauges.
	Value float64 `json:"value,omitempty"`
	// Buckets, Sum and Count carry histograms.
	Buckets []Bucket `json:"buckets,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Count   uint64   `json:"count,omitempty"`
}

// Snapshot is the JSON document the /telemetry.json endpoint serves and the
// heartbeat payload carries.
type Snapshot struct {
	Schema string  `json:"schema"`
	Points []Point `json:"points"`
}

// SnapshotSchema identifies the telemetry snapshot JSON document.
const SnapshotSchema = "mprs-telemetry/1"

// Gatherer is anything that can produce a consistent set of points — a
// Registry, a Collector, or the supervisor's Fleet.
type Gatherer interface {
	Gather() []Point
}

// Registry holds instrument families and their labeled series. All methods
// are safe for concurrent use; Gather returns a consistent copy.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, re-sorted at Gather
}

type family struct {
	name, help string
	kind       Kind
	bounds     []float64 // histogram upper bounds, ascending, without +Inf
	series     map[string]*series
	order      []string
}

type series struct {
	labels  []Label
	value   float64
	buckets []uint64 // parallel to family.bounds
	sum     float64
	count   uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

func (f *family) get(labels []Label) *series {
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		if f.kind == KindHistogram {
			s.buckets = make([]uint64, len(f.bounds))
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// labelKey renders labels (sorted by name) into the series map key, which is
// also the Gather sort key within a family.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// Counter is a monotonically increasing series.
type Counter struct {
	r *Registry
	s *series
}

// Counter registers (or finds) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Counter{r: r, s: r.family(name, help, KindCounter, nil).get(labels)}
}

// Add increases the counter by v (negative deltas are ignored).
func (c Counter) Add(v float64) {
	if v <= 0 {
		return
	}
	c.r.mu.Lock()
	c.s.value += v
	c.r.mu.Unlock()
}

// Inc increases the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Gauge is a series that can go up and down.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge registers (or finds) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Gauge{r: r, s: r.family(name, help, KindGauge, nil).get(labels)}
}

// Set stores v.
func (g Gauge) Set(v float64) {
	g.r.mu.Lock()
	g.s.value = v
	g.r.mu.Unlock()
}

// Max raises the gauge to v when v exceeds the current value.
func (g Gauge) Max(v float64) {
	g.r.mu.Lock()
	if v > g.s.value {
		g.s.value = v
	}
	g.r.mu.Unlock()
}

// Histogram accumulates observations into fixed cumulative buckets.
type Histogram struct {
	r *Registry
	f *family
	s *series
}

// Histogram registers (or finds) the histogram series name{labels} with the
// given ascending upper bounds (the terminal +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindHistogram, bounds)
	return Histogram{r: r, f: f, s: f.get(labels)}
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	h.r.mu.Lock()
	for i, ub := range h.f.bounds {
		if v <= ub {
			h.s.buckets[i]++
		}
	}
	h.s.sum += v
	h.s.count++
	h.r.mu.Unlock()
}

// Gather implements Gatherer: a consistent copy of every series, sorted by
// family name and then label key, so two gathers of identical state render
// identical documents.
func (r *Registry) Gather() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	var out []Point
	for _, name := range names {
		f := r.families[name]
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, key := range keys {
			s := f.series[key]
			p := Point{Name: f.name, Help: f.help, Kind: f.kind, Labels: append([]Label(nil), s.labels...)}
			switch f.kind {
			case KindHistogram:
				p.Sum, p.Count = s.sum, s.count
				p.Buckets = make([]Bucket, 0, len(f.bounds))
				for i, ub := range f.bounds {
					p.Buckets = append(p.Buckets, Bucket{LE: ub, Count: s.buckets[i]})
				}
			default:
				p.Value = s.value
			}
			out = append(out, p)
		}
	}
	return out
}

// WritePrometheus renders points in the Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE pair per family, series sorted as Gather
// returns them, label values escaped per the spec.
func WritePrometheus(w io.Writer, points []Point) error {
	last := ""
	for _, p := range points {
		if p.Name != last {
			if p.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, escapeHelp(p.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", p.Name, p.Kind); err != nil {
				return err
			}
			last = p.Name
		}
		if err := writeSeries(w, p); err != nil {
			return err
		}
	}
	return nil
}

func writeSeries(w io.Writer, p Point) error {
	if p.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", p.Name, renderLabels(p.Labels, "", ""), formatValue(p.Value))
		return err
	}
	for _, b := range p.Buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", p.Name, renderLabels(p.Labels, "le", formatValue(b.LE)), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", p.Name, renderLabels(p.Labels, "le", "+Inf"), p.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", p.Name, renderLabels(p.Labels, "", ""), formatValue(p.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", p.Name, renderLabels(p.Labels, "", ""), p.Count)
	return err
}

// renderLabels renders {a="x",b="y"} with an optional extra pair appended
// (the histogram le label); empty input renders nothing.
func renderLabels(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// EncodeSnapshot renders the JSON snapshot document for g's current state.
func EncodeSnapshot(g Gatherer) ([]byte, error) {
	return json.Marshal(Snapshot{Schema: SnapshotSchema, Points: g.Gather()})
}

// DecodeSnapshot parses a snapshot document. Unknown fields are ignored and
// a missing schema is tolerated (an older peer), so snapshots survive
// version skew in both directions; a schema from a different family is
// rejected.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: %w", err)
	}
	if s.Schema != "" && !strings.HasPrefix(s.Schema, "mprs-telemetry/") {
		return Snapshot{}, fmt.Errorf("telemetry: unexpected snapshot schema %q", s.Schema)
	}
	return s, nil
}
