package clique

import (
	"reflect"
	"sync"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

// The engine's ordering and span regressions (see internal/mpc's tests of
// the same names), run through the clique's configuration of it: one
// machine per vertex and the clique budget policy.

// TestDuplicateSrcFanIn: several messages from every node to one
// destination are delivered by sender, then send order — identically at
// every parallelism level, for plain and Lenzen-routed exchanges.
func TestDuplicateSrcFanIn(t *testing.T) {
	const n, K = 5, 4
	run := func(parallelism int, routed bool) []Message {
		c, err := NewCluster(Config{PairWords: 2 * K, Parallelism: parallelism}, n)
		if err != nil {
			t.Fatal(err)
		}
		step := c.Step
		if routed {
			step = c.RouteStep
		}
		if err := step("fanin", func(x *Ctx) {
			for k := 0; k < K; k++ {
				x.Send(0, uint64(x.Machine), uint64(k))
			}
		}); err != nil {
			t.Fatal(err)
		}
		if v := c.Stats().Violations; len(v) != 0 {
			t.Fatalf("legal fan-in flagged: %v", v)
		}
		return c.Drain(0)
	}
	for _, routed := range []bool{false, true} {
		serial := run(1, routed)
		if len(serial) != n*K {
			t.Fatalf("routed=%v: node 0 received %d messages, want %d", routed, len(serial), n*K)
		}
		for i, msg := range serial {
			if wantSrc, wantSeq := i/K, uint64(i%K); msg.Src != wantSrc || msg.Payload[1] != wantSeq {
				t.Fatalf("routed=%v position %d: got src=%d seq=%d, want src=%d seq=%d",
					routed, i, msg.Src, msg.Payload[1], wantSrc, wantSeq)
			}
		}
		for _, p := range []int{2, 3, n, n + 3} {
			if got := run(p, routed); !reflect.DeepEqual(got, serial) {
				t.Errorf("routed=%v parallelism %d delivery order diverges from serial:\n got %v\nwant %v", routed, p, got, serial)
			}
		}
	}
}

// TestJoinedSenderGoroutinesStaySorted: a node's step closure may send from
// goroutines it joins before returning; every inbox still arrives sorted by
// sender.
func TestJoinedSenderGoroutinesStaySorted(t *testing.T) {
	const n = 4
	c, err := NewCluster(Config{Parallelism: n}, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step("spawned", func(x *Ctx) {
		var wg sync.WaitGroup
		for dst := 0; dst < n; dst++ {
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
	for v := 0; v < n; v++ {
		inbox := c.Drain(v)
		if len(inbox) != n {
			t.Fatalf("node %d: got %d messages, want %d", v, len(inbox), n)
		}
		for i, msg := range inbox {
			if msg.Src != i || msg.Payload[0] != uint64(i) {
				t.Fatalf("node %d position %d: src=%d payload=%d", v, i, msg.Src, msg.Payload[0])
			}
		}
	}
}

// TestSpanSwitchDuringStep: a Span switch racing a running round neither
// races nor splits the round's accounting — it lands on the label pinned at
// its barrier.
func TestSpanSwitchDuringStep(t *testing.T) {
	const n = 4
	ring := trace.NewRing(8)
	c, err := NewCluster(Config{Parallelism: n, Tracer: ring}, n)
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
				c.Span("late") // concurrent with the running round
				close(switched)
			}()
			<-switched
			close(release)
		})
		<-release
		x.Send((x.Machine+1)%n, 1)
	}); err != nil {
		t.Fatal(err)
	}
	spans := trace.Spans(0, ring.Events())
	if len(spans) != 1 || spans[0].Span != "pinned" || spans[0].Rounds != 1 || spans[0].Words != n {
		t.Fatalf("round not attributed to the span pinned at its barrier: %+v", spans)
	}
	if got := c.CurrentSpan(); got != "late" {
		t.Fatalf("CurrentSpan = %q, want the switched label", got)
	}
}
