package clique

import (
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

func newTracedClique(t *testing.T, cfg Config, n int) (*Cluster, *trace.Ring) {
	t.Helper()
	ring := trace.NewRing(1024)
	cfg.Tracer = ring
	c, err := NewCluster(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return c, ring
}

func TestCliqueTraceEventsMatchStats(t *testing.T) {
	c, ring := newTracedClique(t, Config{PairWords: 8}, 4)
	c.Span("sparsify")
	for r := 0; r < 3; r++ {
		if err := c.Step("work", func(x *Ctx) {
			// Every node sends one word to node 0: receive-skewed on purpose.
			x.Send(0, uint64(x.Machine))
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events for 3 steps", len(evs))
	}
	var words, msgs int
	for i, ev := range evs {
		if ev.Round != i+1 {
			t.Errorf("event %d has round %d", i, ev.Round)
		}
		if ev.Step != "work" || ev.Span != "sparsify" {
			t.Errorf("event %d labeled (%q, %q)", i, ev.Step, ev.Span)
		}
		if len(ev.Sent) != 4 || len(ev.Recv) != 4 {
			t.Fatalf("event %d per-node slices sized %d/%d", i, len(ev.Sent), len(ev.Recv))
		}
		// The clique model has no memory budget: Resident stays nil.
		if ev.Resident != nil {
			t.Fatalf("event %d carries resident memory: %v", i, ev.Resident)
		}
		if ev.Recv[0] != 4 || ev.MaxRecv != 4 || ev.MaxSent != 1 {
			t.Errorf("event %d traffic shape: recv0=%d max=%d/%d", i, ev.Recv[0], ev.MaxSent, ev.MaxRecv)
		}
		// All receive lands on 1 of 4 nodes: Gini = (n-1)/n = 0.75; sends are
		// perfectly balanced.
		if ev.GiniRecv != 0.75 || ev.GiniSent != 0 {
			t.Errorf("event %d: Gini %v/%v", i, ev.GiniSent, ev.GiniRecv)
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

func TestCliqueTraceRoutedAndCharged(t *testing.T) {
	c, ring := newTracedClique(t, Config{PairWords: 1}, 4)
	c.Span("gather")
	if err := c.RouteStep("route", func(x *Ctx) { x.Send((x.Machine+1)%4, 7) }); err != nil {
		t.Fatal(err)
	}
	c.Span("finish")
	if err := c.Step("notify", func(x *Ctx) {}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Rounds != LenzenRounds+1 {
		t.Fatalf("rounds %d, want %d", st.Rounds, LenzenRounds+1)
	}
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2 (1 routed + 1 plain)", len(evs))
	}
	if evs[0].Step != "route" || evs[0].Round != LenzenRounds {
		t.Fatalf("routed event %+v", evs[0])
	}
	if ev := evs[1]; ev.Round != LenzenRounds+1 || ev.Span != "finish" || ev.Words != 0 {
		t.Fatalf("plain event = %+v", ev)
	}
	// Span accounting: the routed exchange bills LenzenRounds to "gather",
	// the silent round bills one round to "finish" with no traffic.
	spans := trace.Spans(0, evs)
	if len(spans) != 2 || spans[0].Span != "gather" || spans[0].Rounds != LenzenRounds {
		t.Fatalf("spans %+v", spans)
	}
	if spans[1].Span != "finish" || spans[1].Rounds != 1 || spans[1].Words != 0 {
		t.Fatalf("spans %+v", spans)
	}
}

func TestCliqueTraceRecoveryDeltas(t *testing.T) {
	plan := &mpc.FaultPlan{Crashes: []mpc.FaultEvent{{Round: 2, Machine: 1}}}
	c, ring := newTracedClique(t, Config{PairWords: 4, Faults: plan}, 3)
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
	if evs[1].Crashes != 1 || evs[1].RecoveryRounds == 0 {
		t.Fatalf("round-2 event misses the recovery: %+v", evs[1])
	}
	// Delivered traffic identical to fault-free on every round.
	for i, ev := range evs {
		if ev.Words != 3 || ev.Messages != 3 {
			t.Fatalf("event %d delivery perturbed by recovery: %+v", i, ev)
		}
	}
}

// TestCliqueStepNoAllocWithoutTracer pins the zero-cost-when-disabled
// contract on the clique simulator's commit path: the skew/span accounting
// added by the observability layer must not allocate.
func TestCliqueStepNoAllocWithoutTracer(t *testing.T) {
	c, err := NewCluster(Config{PairWords: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		if err := c.Step("bench", func(x *Ctx) { x.Send((x.Machine+1)%4, 1, 2) }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		step() // warm up log/inbox slices
	}
	base := testing.AllocsPerRun(32, step)
	ring := trace.NewRing(8)
	c.SetTracer(ring)
	withTracer := testing.AllocsPerRun(32, step)
	if delta := withTracer - base; delta > 3 {
		t.Fatalf("tracer adds %.1f allocations per step (disabled %.1f, enabled %.1f)",
			delta, base, withTracer)
	}
}
