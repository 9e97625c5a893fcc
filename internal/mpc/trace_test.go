package mpc

import (
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
		if err := c.Step("work", func(x Ctx) {
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

func TestTraceSpanTransitions(t *testing.T) {
	c, ring := newTracedCluster(t, Config{Machines: 2}, 8)
	step := func() {
		if err := c.Step("s", func(x Ctx) { x.Send(0, 1) }); err != nil {
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
		if err := c.Step("s", func(x Ctx) { x.Send(0, uint64(x.Machine)) }); err != nil {
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
		if err := c.Step("warm", func(x Ctx) { x.SendOwned((x.Machine+1)%4, payload) }); err != nil {
			t.Fatal(err)
		}
	}
	withoutTracer := testing.AllocsPerRun(32, func() {
		if err := c.Step("bench", func(x Ctx) { x.SendOwned((x.Machine+1)%4, payload) }); err != nil {
			t.Fatal(err)
		}
	})
	ring := trace.NewRing(8)
	c.SetTracer(ring)
	withTracer := testing.AllocsPerRun(32, func() {
		if err := c.Step("bench", func(x Ctx) { x.SendOwned((x.Machine+1)%4, payload) }); err != nil {
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
