package mpc

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

func newTestCluster(t *testing.T, machines, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Machines: machines}, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGather(t *testing.T) {
	c := newTestCluster(t, 5, 50)
	parts, err := c.Gather("g", func(x Ctx) []uint64 {
		return []uint64{uint64(x.Machine), uint64(x.Hi - x.Lo)}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for m, part := range parts {
		if len(part) != 2 || part[0] != uint64(m) {
			t.Fatalf("machine %d part = %v", m, part)
		}
		total += int(part[1])
	}
	if total != 50 {
		t.Fatalf("ranges gathered %d", total)
	}
	if c.Stats().Rounds != 1 {
		t.Fatalf("gather cost %d rounds", c.Stats().Rounds)
	}
}

// TestGatherReturnsDeliveredPayload pins Gather's result: a source that sent
// one message gets that delivered payload itself, not a copy; a source that
// sent two gets their concatenation in a fresh slice, leaving the first
// payload's spare capacity untouched; a source that sent no words gets nil.
func TestGatherReturnsDeliveredPayload(t *testing.T) {
	c := newTestCluster(t, 4, 16)
	one := []uint64{10, 11, 0, 0}[:2]
	first := []uint64{20, 0, 0, 0}[:1]
	parts, err := c.Gather("g", func(x Ctx) []uint64 {
		switch x.Machine {
		case 1:
			return one
		case 2:
			x.SendOwned(0, first)
			return []uint64{21, 22}
		case 3:
			return []uint64{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[1]) != 2 || &parts[1][0] != &one[0] {
		t.Fatalf("single-message source: got %v, want the delivered payload %v itself", parts[1], one)
	}
	if !slices.Equal(parts[2], []uint64{20, 21, 22}) {
		t.Fatalf("two-message source: got %v, want [20 21 22]", parts[2])
	}
	if !slices.Equal(first[:cap(first)], []uint64{20, 0, 0, 0}) {
		t.Fatalf("concatenation wrote into the first payload's spare capacity: %v", first[:cap(first)])
	}
	if parts[0] != nil || parts[3] != nil {
		t.Fatalf("sources without words: got %v and %v, want nil", parts[0], parts[3])
	}
}

func TestBroadcast(t *testing.T) {
	c := newTestCluster(t, 4, 16)
	payload := []uint64{3, 1, 4}
	got, err := c.Broadcast("b", payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 4 {
		t.Fatalf("broadcast returned %v", got)
	}
	st := c.Stats()
	if st.Rounds != 1 {
		t.Fatalf("broadcast cost %d rounds", st.Rounds)
	}
	if st.Words != int64(3*(c.Machines()-1)) {
		t.Fatalf("broadcast words = %d", st.Words)
	}
}

// TestScatterToOwners checks that every item travels once, to its owner:
// one round of len(items) words, one message per owning machine, and the
// largest owner receiving its whole share.
func TestScatterToOwners(t *testing.T) {
	c := newTestCluster(t, 4, 16) // machine m owns [4m, 4m+4)
	var events trace.Log
	c.SetTracer(&events)
	if err := c.ScatterToOwners("s", []int32{13, 0, 5, 2, 14, 3}); err != nil {
		t.Fatal(err)
	}
	want := trace.Event{Round: 1, Step: "s", MaxSent: 6, MaxRecv: 3, Messages: 3, Words: 6}
	if st := c.Stats(); st.Rounds != 1 || len(events) != 1 {
		t.Fatalf("scatter cost %d rounds in %d events", st.Rounds, len(events))
	}
	got := events[0]
	got.Span, got.GiniSent, got.GiniRecv = "", 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scatter round %+v, want %+v", got, want)
	}
	for m := range c.inboxes {
		if len(c.inboxes[m]) != 0 {
			t.Fatalf("machine %d kept %d messages", m, len(c.inboxes[m]))
		}
	}
}

// boxTransport records every destination's delivered (source, payload)
// sequence of each exchanged round.
type boxTransport struct{ rounds [][][]Message }

func (b *boxTransport) Exchange(_ int, boxes [][]Message) error {
	round := make([][]Message, len(boxes))
	for d, box := range boxes {
		for _, msg := range box {
			round[d] = append(round[d], Message{Src: msg.Src, Payload: slices.Clone(msg.Payload)})
		}
	}
	b.rounds = append(b.rounds, round)
	return nil
}

// TestAllGather pins the one-round all-gather: every machine's slab reaches
// every machine, itself included, in machine order, so the round moves
// M·Σ|part| words in M·(non-empty slabs) messages; a machine with an empty
// slab sends nothing and its part is nil. Parts, round log and delivered
// boxes are bit-identical at parallelism 1 and 4 and under a machine crash.
func TestAllGather(t *testing.T) {
	const M, n = 5, 50
	slab := func(m int) []uint64 {
		if m == 3 {
			return nil
		}
		out := make([]uint64, m+1)
		for i := range out {
			out[i] = uint64(100*m + i)
		}
		return out
	}
	type run struct {
		parts [][]uint64
		log   trace.Log
		boxes [][][]Message
	}
	gather := func(par int, faults *FaultPlan) run {
		bt := &boxTransport{}
		var events trace.Log
		c, err := NewCluster(Config{Machines: M, Parallelism: par, Faults: faults, Transport: bt, Tracer: &events}, n)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := c.AllGather("ag", func(x Ctx) []uint64 { return slab(x.Machine) })
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Rounds != 1 {
			t.Fatalf("all-gather cost %d rounds", st.Rounds)
		}
		if crashed := st.RecoveredCrashes == 1; crashed != (faults != nil) {
			t.Fatalf("recovered %d crashes under faults %v", st.RecoveredCrashes, faults)
		}
		for m := range c.inboxes {
			if len(c.inboxes[m]) != 0 {
				t.Fatalf("machine %d kept %d messages", m, len(c.inboxes[m]))
			}
		}
		// The round log compares across fault plans without the recovery
		// a crash charges to its event.
		for i := range events {
			events[i].Crashes, events[i].RecoveryRounds, events[i].ReplayedWords = 0, 0, 0
		}
		return run{parts: parts, log: events, boxes: bt.rounds}
	}
	base := gather(1, nil)
	words := 0
	for m, part := range base.parts {
		if !slices.Equal(part, slab(m)) || (part == nil) != (m == 3) {
			t.Fatalf("machine %d part = %v, want %v", m, part, slab(m))
		}
		words += len(part)
	}
	want := trace.Event{Round: 1, Step: "ag", Span: "setup", MaxSent: M * 5, MaxRecv: words, Messages: M * (M - 1), Words: M * words}
	got := base.log[0]
	got.GiniSent, got.GiniRecv = 0, 0
	if len(base.log) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("all-gather round %+v, want %+v", got, want)
	}
	for d, box := range base.boxes[0] {
		var srcs []int
		for _, msg := range box {
			srcs = append(srcs, msg.Src)
			if !slices.Equal(msg.Payload, slab(msg.Src)) {
				t.Fatalf("machine %d received %v from %d", d, msg.Payload, msg.Src)
			}
		}
		if !slices.Equal(srcs, []int{0, 1, 2, 4}) {
			t.Fatalf("machine %d received from %v, want every non-empty slab in machine order", d, srcs)
		}
	}
	crash := &FaultPlan{Seed: 1, Crashes: []FaultEvent{{Round: 1, Machine: 2}}}
	for _, tc := range []struct {
		par    int
		faults *FaultPlan
	}{{4, nil}, {1, crash}, {4, crash}} {
		t.Run(fmt.Sprintf("p=%d/crash=%v", tc.par, tc.faults != nil), func(t *testing.T) {
			if got := gather(tc.par, tc.faults); !reflect.DeepEqual(got, base) {
				t.Fatalf("all-gather differs from the serial fault-free run:\n%+v\n%+v", got, base)
			}
		})
	}
}

// TestAllGatherStrictViolationAborts: an all-gather whose M·|slab| words
// overflow S fails in Strict mode with ErrBudget, returns no parts and
// leaves every inbox empty.
func TestAllGatherStrictViolationAborts(t *testing.T) {
	c, err := NewCluster(Config{Machines: 4, Regime: RegimeExplicit, MemoryWords: 7, Strict: true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := c.AllGather("ag", func(x Ctx) []uint64 { return []uint64{1, 2} })
	if !errors.Is(err, ErrBudget) || parts != nil {
		t.Fatalf("parts %v, err %v; want ErrBudget and no parts", parts, err)
	}
	for m := range c.inboxes {
		if len(c.inboxes[m]) != 0 {
			t.Fatalf("machine %d kept %d messages after the abort", m, len(c.inboxes[m]))
		}
	}
	if v := c.Stats().Violations; len(v) == 0 || v[0].Words != 8 {
		t.Fatalf("violations %v, want the 8-word sends over budget 7", v)
	}
}

func TestAllReduceSumUint(t *testing.T) {
	c := newTestCluster(t, 6, 60)
	sum, err := c.AllReduceSumUint("s", func(x Ctx) []uint64 {
		return []uint64{uint64(x.Hi - x.Lo), 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum[0] != 60 || sum[1] != 6 {
		t.Fatalf("sum = %v", sum)
	}
	if c.Stats().Rounds != 1 {
		t.Fatalf("allreduce cost %d rounds, want 1", c.Stats().Rounds)
	}
}

func TestAllReduceMaxUint(t *testing.T) {
	c := newTestCluster(t, 5, 25)
	maxVal, err := c.AllReduceMaxUint("m", func(x Ctx) uint64 {
		return uint64(x.Machine * 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxVal != 28 {
		t.Fatalf("max = %d", maxVal)
	}
}

func TestAllReduceLengthMismatch(t *testing.T) {
	c := newTestCluster(t, 3, 9)
	_, err := c.AllReduceSumUint("bad", func(x Ctx) []uint64 {
		return make([]uint64, x.Machine+1)
	})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSingleMachineCollectives(t *testing.T) {
	c := newTestCluster(t, 1, 10)
	sum, err := c.AllReduceSumUint("s", func(x Ctx) []uint64 { return []uint64{42} })
	if err != nil || sum[0] != 42 {
		t.Fatalf("single machine: %v %v", sum, err)
	}
}
