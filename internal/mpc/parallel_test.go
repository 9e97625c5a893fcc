package mpc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

// TestStableSortBySrcTotalOrder pins the tie-breaking contract directly:
// sorting a destination box with duplicate sender ids orders by ascending
// src while preserving each sender's send sequence (stability). A non-stable
// sort would scramble the within-src order and break the canonical delivery
// order the simulators promise.
func TestStableSortBySrcTotalOrder(t *testing.T) {
	// Three senders' messages interleaved out of src order, each sender's
	// payloads numbered in its own send sequence.
	box := []Message{
		{Src: 2, Payload: []uint64{20}},
		{Src: 0, Payload: []uint64{0}},
		{Src: 2, Payload: []uint64{21}},
		{Src: 1, Payload: []uint64{10}},
		{Src: 0, Payload: []uint64{1}},
		{Src: 1, Payload: []uint64{11}},
		{Src: 0, Payload: []uint64{2}},
	}
	stableSortBySrc(box)
	want := []uint64{0, 1, 2, 10, 11, 20, 21}
	for i, msg := range box {
		if msg.Payload[0] != want[i] {
			t.Fatalf("position %d: got payload %d, want %d (box %v)", i, msg.Payload[0], want[i], box)
		}
	}
}

// TestDuplicateSrcFanIn is the end-to-end regression for duplicate-src
// fan-in: every machine sends several separate messages to one destination
// in one step, so the destination's box holds runs of equal Src values. The
// committed inbox must order them (src ascending, then send sequence) — and
// identically at every parallelism level.
func TestDuplicateSrcFanIn(t *testing.T) {
	const M, K = 5, 4
	run := func(parallelism int) []Message {
		c, err := NewCluster(Config{Machines: M, Parallelism: parallelism}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Step("fanin", func(x *Ctx) {
			for k := 0; k < K; k++ {
				// Distinct payloads encode (src, send sequence) so ordering
				// violations are visible, not just miscounts.
				x.Send(0, uint64(x.Machine), uint64(k))
			}
		}); err != nil {
			t.Fatal(err)
		}
		var got []Message
		if err := c.Step("inspect", func(x *Ctx) {
			if x.Machine == 0 {
				got = append([]Message(nil), x.Inbox()...)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}

	serial := run(1)
	if len(serial) != M*K {
		t.Fatalf("machine 0 received %d messages, want %d", len(serial), M*K)
	}
	for i, msg := range serial {
		if wantSrc, wantSeq := i/K, uint64(i%K); msg.Src != wantSrc || msg.Payload[1] != wantSeq {
			t.Fatalf("position %d: got src=%d seq=%d, want src=%d seq=%d",
				i, msg.Src, msg.Payload[1], wantSrc, wantSeq)
		}
	}
	for _, p := range []int{2, 3, M, M + 3} {
		if got := run(p); !reflect.DeepEqual(got, serial) {
			t.Errorf("parallelism %d delivery order diverges from serial:\n got %v\nwant %v", p, got, serial)
		}
	}
}

// TestJoinedSenderGoroutinesStaySorted exercises the documented escape
// hatch: a step closure may spawn its own sender goroutines as long as it
// joins them before returning. Same-machine concurrent sends interleave
// nondeterministically (so each goroutine here sends exactly one message),
// but the per-worker outbox mutex must keep the box intact, and the merge's
// defensive stableSortBySrc fallback must still produce the canonical
// src-ascending order. Run under -race this also proves Send is safe to call
// from closure-spawned goroutines.
func TestJoinedSenderGoroutinesStaySorted(t *testing.T) {
	const M = 4
	c, err := NewCluster(Config{Machines: M, Parallelism: M}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step("spawned", func(x *Ctx) {
		var wg sync.WaitGroup
		for dst := 0; dst < M; dst++ {
			wg.Add(1)
			go func(dst int) {
				defer wg.Done()
				x.Send(dst, uint64(x.Machine))
			}(dst)
		}
		wg.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Step("inspect", func(x *Ctx) {
		inbox := x.Inbox()
		if len(inbox) != M {
			panic(fmt.Sprintf("machine %d: got %d messages, want %d", x.Machine, len(inbox), M))
		}
		for i, msg := range inbox {
			if msg.Src != i || msg.Payload[0] != uint64(i) {
				panic(fmt.Sprintf("machine %d position %d: src=%d payload=%d", x.Machine, i, msg.Src, msg.Payload[0]))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrossMachineSendIsSorted: a machine that sends on the context of an
// earlier machine of its block puts that machine's message after its own
// in their shared log. Pathological but legal within the step, and the
// only way a log leaves sender order, so the merge must restore the box.
func TestCrossMachineSendIsSorted(t *testing.T) {
	c, err := NewCluster(Config{Machines: 4, Parallelism: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	var first *Ctx
	if err := c.Step("cross", func(x *Ctx) {
		if x.Machine == 1 {
			first = x
			x.Send(0, 10)
		}
		if x.Machine == 2 {
			x.Send(0, 20)
			first.Send(0, 11)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var got []Message
	for _, msg := range c.Drain(0) {
		got = append(got, Message{Src: msg.Src, Payload: msg.Payload})
	}
	want := []Message{{Src: 1, Payload: []uint64{10}}, {Src: 1, Payload: []uint64{11}}, {Src: 2, Payload: []uint64{20}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("machine 0 received %v, want %v", got, want)
	}
}

// TestSpanSwitchDuringStep pins the barrier-pinned span rule: a driver
// goroutine flipping Span labels while a step's workers are mid-flight must
// neither race (this test runs under -race in CI) nor split the in-flight
// round's accounting — the whole round lands on the label current when its
// barrier began.
func TestSpanSwitchDuringStep(t *testing.T) {
	ring := trace.NewRing(8)
	c, err := NewCluster(Config{Machines: 4, Parallelism: 4, Tracer: ring}, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.Span("pinned")
	release := make(chan struct{})
	switched := make(chan struct{})
	var once sync.Once
	if err := c.Step("mid", func(x *Ctx) {
		once.Do(func() {
			go func() {
				c.Span("late") // concurrent with the running step
				close(switched)
			}()
			<-switched
			close(release)
		})
		<-release
		x.Send((x.Machine+1)%4, 1)
	}); err != nil {
		t.Fatal(err)
	}
	spans := trace.Spans(0, ring.Events())
	if len(spans) != 1 || spans[0].Span != "pinned" || spans[0].Rounds != 1 || spans[0].Words != 4 {
		t.Fatalf("round not attributed to the span pinned at its barrier: %+v", spans)
	}
	if got := c.CurrentSpan(); got != "late" {
		t.Fatalf("CurrentSpan = %q, want the switched label", got)
	}
}
