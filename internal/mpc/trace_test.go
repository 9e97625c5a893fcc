package mpc

import (
	"reflect"
	"sort"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

// newTracedCluster builds a small cluster with a ring sink attached.
func newTracedCluster(t *testing.T, cfg Config, n int) (*Cluster, *trace.Ring) {
	t.Helper()
	ring := trace.NewRing(1024)
	cfg.Tracer = ring
	c, err := NewCluster(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return c, ring
}

func TestTraceEventsMatchStats(t *testing.T) {
	c, ring := newTracedCluster(t, Config{Machines: 4}, 64)
	c.Span("sparsify")
	for r := 0; r < 3; r++ {
		if err := c.Step("work", func(x *Ctx) {
			// Machine m sends m words to machine 0: skewed on purpose.
			payload := make([]uint64, x.Machine)
			x.SendOwned(0, payload)
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	evs := ring.Events()
	if len(evs) != st.Rounds {
		t.Fatalf("%d events for %d rounds", len(evs), st.Rounds)
	}
	var words, msgs int
	for i, ev := range evs {
		if ev.Round != i+1 {
			t.Errorf("event %d has round %d", i, ev.Round)
		}
		if ev.Step != "work" || ev.Span != "sparsify" {
			t.Errorf("event %d labeled (%q, %q)", i, ev.Step, ev.Span)
		}
		if len(ev.Sent) != 4 || len(ev.Recv) != 4 || len(ev.Resident) != 4 {
			t.Fatalf("event %d per-machine slices sized %d/%d/%d", i, len(ev.Sent), len(ev.Recv), len(ev.Resident))
		}
		wantRecv0 := 0
		for m, sent := range ev.Sent {
			if sent != m {
				t.Errorf("event %d: machine %d sent %d, want %d", i, m, sent, m)
			}
			wantRecv0 += sent
		}
		if ev.Recv[0] != wantRecv0 {
			t.Errorf("event %d: machine 0 recv %d, want %d", i, ev.Recv[0], wantRecv0)
		}
		if ev.MaxSent != 3 || ev.MaxRecv != wantRecv0 {
			t.Errorf("event %d: maxima %d/%d", i, ev.MaxSent, ev.MaxRecv)
		}
		// All receive lands on machine 0 of 4: Gini = (n-1)/n = 0.75.
		if ev.GiniRecv != 0.75 {
			t.Errorf("event %d: GiniRecv %v, want 0.75", i, ev.GiniRecv)
		}
		words += ev.Words
		msgs += ev.Messages
	}
	if int64(words) != st.Words || int64(msgs) != st.Messages {
		t.Fatalf("event totals %d words / %d messages, stats %d / %d", words, msgs, st.Words, st.Messages)
	}
	if st.GiniRecv != 0.75 || st.SkewRecv != 4 {
		t.Fatalf("stats skew: GiniRecv %v (want 0.75), SkewRecv %v (want 4)", st.GiniRecv, st.SkewRecv)
	}
	spans := trace.Spans(0, evs)
	if len(spans) != 1 || spans[0].Span != "sparsify" || spans[0].Rounds != 3 {
		t.Fatalf("spans %+v", spans)
	}
	if spans[0].Words != st.Words || spans[0].MaxRecv != st.PeakRecv {
		t.Fatalf("span aggregate %+v does not match stats", spans[0])
	}
}

func TestTraceChargedRounds(t *testing.T) {
	c, ring := newTracedCluster(t, Config{Machines: 2}, 8)
	c.Span("gather")
	if err := c.ChargeRounds("exp", 3); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if !ev.Charged || ev.Step != "exp" || ev.Span != "gather" || ev.Round != i+1 {
			t.Fatalf("charged event %d = %+v", i, ev)
		}
		if ev.Sent != nil || ev.Words != 0 {
			t.Fatalf("charged event %d carries traffic: %+v", i, ev)
		}
	}
	spans := trace.Spans(0, evs)
	if len(spans) != 1 || spans[0].Rounds != 3 || spans[0].Charged != 3 || spans[0].Words != 0 {
		t.Fatalf("spans %+v", spans)
	}
	if st := c.Stats(); st.Rounds != 3 {
		t.Fatalf("charged %d rounds, want 3", st.Rounds)
	}
}

func TestTraceSpanTransitions(t *testing.T) {
	c, ring := newTracedCluster(t, Config{Machines: 2}, 8)
	step := func() {
		if err := c.Step("s", func(x *Ctx) { x.Send(0, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	step() // default span
	c.Span("sparsify")
	step()
	step()
	c.Span("seed-search")
	step()
	c.Span("sparsify") // revisit: merges into the existing aggregate
	step()
	spans := trace.Spans(0, ring.Events())
	want := []struct {
		span   string
		rounds int
	}{{"setup", 1}, {"sparsify", 3}, {"seed-search", 1}}
	if len(spans) != len(want) {
		t.Fatalf("spans %+v", spans)
	}
	for i, w := range want {
		if spans[i].Span != w.span || spans[i].Rounds != w.rounds {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], w)
		}
	}
	if got := ring.Events()[0].Span; got != "setup" {
		t.Fatalf("first event span %q", got)
	}
}

func TestTraceRecoveryDeltas(t *testing.T) {
	plan := &FaultPlan{Crashes: []FaultEvent{{Round: 2, Machine: 1}}}
	c, ring := newTracedCluster(t, Config{Machines: 2, Faults: plan}, 8)
	for r := 0; r < 3; r++ {
		if err := c.Step("s", func(x *Ctx) { x.Send(0, uint64(x.Machine)) }); err != nil {
			t.Fatal(err)
		}
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Crashes != 0 || evs[2].Crashes != 0 {
		t.Fatalf("crash charged to the wrong superstep: %+v", evs)
	}
	if evs[1].Crashes != 1 {
		t.Fatalf("round-2 event records %d crashes, want 1", evs[1].Crashes)
	}
	if evs[1].RecoveryRounds == 0 || evs[1].ReplayedWords == 0 {
		t.Fatalf("round-2 event misses recovery cost: %+v", evs[1])
	}
	st := c.Stats()
	if st.RecoveredCrashes != 1 {
		t.Fatalf("stats crashes %d", st.RecoveredCrashes)
	}
	// Delivered traffic identical to fault-free: events record it per round
	// (both machines send one word to machine 0, self-send included).
	for _, ev := range evs {
		if ev.Words != 2 || ev.Messages != 2 {
			t.Fatalf("delivery perturbed by recovery: %+v", ev)
		}
	}
}

// TestStepNoAllocWithoutTracer pins the zero-cost-when-disabled contract:
// with no tracer registered, the superstep commit path performs no
// per-event allocations (the only allocations are the delivery slices and
// the round-log append, which pre-date the observability layer).
func TestStepNoAllocWithoutTracer(t *testing.T) {
	c, err := NewCluster(Config{Machines: 4}, 64)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]uint64, 8)
	// Warm up the log/violation slices so append doesn't grow mid-measure.
	for i := 0; i < 64; i++ {
		if err := c.Step("warm", func(x *Ctx) { x.SendOwned((x.Machine+1)%4, payload) }); err != nil {
			t.Fatal(err)
		}
	}
	withoutTracer := testing.AllocsPerRun(32, func() {
		if err := c.Step("bench", func(x *Ctx) { x.SendOwned((x.Machine+1)%4, payload) }); err != nil {
			t.Fatal(err)
		}
	})
	ring := trace.NewRing(8)
	c.SetTracer(ring)
	withTracer := testing.AllocsPerRun(32, func() {
		if err := c.Step("bench", func(x *Ctx) { x.SendOwned((x.Machine+1)%4, payload) }); err != nil {
			t.Fatal(err)
		}
	})
	// The skew accounting itself must be allocation-free: enabling the
	// tracer may only add the event's own slices (3 allocations + the event
	// copy into the ring).
	if delta := withTracer - withoutTracer; delta > 4 {
		t.Fatalf("tracer adds %.1f allocations per step (disabled %.1f, enabled %.1f)",
			delta, withoutTracer, withTracer)
	}
}

// TestMergeStatsCoversEveryField walks Stats by reflection and fails when a
// field has no merge rule — the guard that keeps MergeStats in sync as
// fields are added. Each rule states how a merged field must relate to the
// two inputs, and the test checks it on concrete values.
func TestMergeStatsCoversEveryField(t *testing.T) {
	a := Stats{
		Rounds: 2, Messages: 10, Words: 100,
		PeakSent: 7, PeakRecv: 9, PeakResident: 30,
		Violations: []Violation{{Round: 1, Kind: "send"}},
		SkewSent:   1.5, SkewRecv: 2.5, GiniSent: 0.25, GiniRecv: 0.5,
		RecoveredCrashes: 1, RecoveryRounds: 2, ReplayedWords: 3,
		CheckpointWords: 4, CheckpointBytes: 8, ResumeReplayRounds: 9,
	}
	b := Stats{
		Rounds: 3, Messages: 20, Words: 50,
		PeakSent: 5, PeakRecv: 11, PeakResident: 20,
		Violations: []Violation{{Round: 2, Kind: "recv"}},
		SkewSent:   1.25, SkewRecv: 3.5, GiniSent: 0.75, GiniRecv: 0.25,
		RecoveredCrashes: 10, RecoveryRounds: 20, ReplayedWords: 30,
		CheckpointWords: 40, CheckpointBytes: 80, ResumeReplayRounds: 90,
	}
	m := MergeStats(a, b)

	// One check per Stats field. Adding a field to Stats without a merge
	// rule (and a check here) fails the reflection sweep below.
	checks := map[string]func() bool{
		"Rounds":       func() bool { return m.Rounds == 5 },
		"Messages":     func() bool { return m.Messages == 30 },
		"Words":        func() bool { return m.Words == 150 },
		"PeakSent":     func() bool { return m.PeakSent == 7 },
		"PeakRecv":     func() bool { return m.PeakRecv == 11 },
		"PeakResident": func() bool { return m.PeakResident == 30 },
		"Violations": func() bool {
			// b's violation rounds are offset by a.Rounds so the merged
			// stats read as one continuous run (the PR-1 audit fix).
			return len(m.Violations) == 2 && m.Violations[0].Round == 1 && m.Violations[1].Round == 4
		},
		"SkewSent":           func() bool { return m.SkewSent == 1.5 },
		"SkewRecv":           func() bool { return m.SkewRecv == 3.5 },
		"GiniSent":           func() bool { return m.GiniSent == 0.75 },
		"GiniRecv":           func() bool { return m.GiniRecv == 0.5 },
		"RecoveredCrashes":   func() bool { return m.RecoveredCrashes == 11 },
		"RecoveryRounds":     func() bool { return m.RecoveryRounds == 22 },
		"ReplayedWords":      func() bool { return m.ReplayedWords == 33 },
		"CheckpointWords":    func() bool { return m.CheckpointWords == 44 },
		"CheckpointBytes":    func() bool { return m.CheckpointBytes == 88 },
		"ResumeReplayRounds": func() bool { return m.ResumeReplayRounds == 99 },
	}
	sweep := func(typ reflect.Type, rules map[string]func() bool) {
		t.Helper()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			check, ok := rules[name]
			if !ok {
				t.Errorf("%s.%s has no merge rule: extend MergeStats and this test", typ.Name(), name)
				continue
			}
			if !check() {
				t.Errorf("%s.%s merged wrong (merged value in %+v)", typ.Name(), name, m)
			}
			delete(rules, name)
		}
		leftover := make([]string, 0, len(rules))
		for name := range rules {
			leftover = append(leftover, name)
		}
		sort.Strings(leftover)
		for _, name := range leftover {
			t.Errorf("check %q matches no %s field (renamed?)", name, typ.Name())
		}
	}
	sweep(reflect.TypeOf(Stats{}), checks)
}

// TestMergeStatsEqualsSingleRun merges per-segment stats of a run split
// across two clusters and compares against the same work on one cluster.
func TestMergeStatsEqualsSingleRun(t *testing.T) {
	work := func(c *Cluster, from, to int) {
		for r := from; r < to; r++ {
			if err := c.Step("w", func(x *Ctx) {
				payload := make([]uint64, r+1)
				x.SendOwned((x.Machine+1)%2, payload)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	single, err := NewCluster(Config{Machines: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	single.Span("sparsify")
	work(single, 0, 4)
	want := single.Stats()

	c1, err := NewCluster(Config{Machines: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1.Span("sparsify")
	work(c1, 0, 2)
	c2, err := NewCluster(Config{Machines: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	c2.Span("sparsify")
	work(c2, 2, 4)
	got := MergeStats(c1.Stats(), c2.Stats())

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged stats diverge from single run:\n got %+v\nwant %+v", got, want)
	}
}
