package mpc

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

// prefixRun is what one run of prefixRounds observed: every round's
// delivered words per machine, the final Stats and the trace events.
type prefixRun struct {
	boxes  [][][]uint64
	stats  Stats
	events []trace.Event
}

// prefixRounds runs four rounds on a fresh cluster in which only machines
// below k send: each sends its worker block to a machine that moves with
// the round and answers every message in its inbox. With first set the
// rounds run through StepFirst(k), otherwise through Step with a closure
// that does nothing from machine k on.
func prefixRounds(t *testing.T, cfg Config, k int, first bool) prefixRun {
	t.Helper()
	ring := trace.NewRing(64)
	cfg.Tracer = ring
	c, err := NewCluster(cfg, 4*cfg.Machines)
	if err != nil {
		t.Fatal(err)
	}
	M := cfg.Machines
	var run prefixRun
	for r := 1; r <= 4; r++ {
		send := func(x Ctx) {
			m := x.Machine
			x.Send((3*m+r)%M, uint64(m), uint64(r), uint64(x.Block()))
			for _, msg := range x.Inbox() {
				x.Send(msg.Src, msg.Payload[0]+1)
			}
		}
		if first {
			err = c.StepFirst("prefix", k, send)
		} else {
			err = c.Step("prefix", func(x Ctx) {
				if x.Machine < k {
					send(x)
				}
			})
		}
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		boxes := make([][]uint64, M)
		for m := range boxes {
			boxes[m] = inboxWords(c.inboxes[m])
		}
		run.boxes = append(run.boxes, boxes)
	}
	run.stats, run.events = c.Stats(), ring.Events()
	return run
}

// TestStepFirstMatchesStep: a step run on the first k machines delivers,
// meters and traces exactly what Step does with a closure that does
// nothing from machine k on, at every parallelism and under crashes of
// machines on both sides of k (a crashed machine that runs nothing still
// costs its recovery).
func TestStepFirstMatchesStep(t *testing.T) {
	const M = 8
	crashes := &FaultPlan{Crashes: []FaultEvent{{Round: 2, Machine: 1}, {Round: 2, Machine: 6}, {Round: 3, Machine: 7}}}
	for _, p := range []int{1, 4} {
		for _, faults := range []*FaultPlan{nil, crashes} {
			for _, k := range []int{0, 1, 3, M} {
				t.Run(fmt.Sprintf("p=%d/faults=%v/k=%d", p, faults.Enabled(), k), func(t *testing.T) {
					cfg := Config{Machines: M, Parallelism: p, Faults: faults}
					want := prefixRounds(t, cfg, k, false)
					got := prefixRounds(t, cfg, k, true)
					if !reflect.DeepEqual(got.boxes, want.boxes) {
						t.Errorf("StepFirst delivered %v, Step %v", got.boxes, want.boxes)
					}
					if !reflect.DeepEqual(got.stats, want.stats) {
						t.Errorf("StepFirst stats %+v, Step %+v", got.stats, want.stats)
					}
					if !reflect.DeepEqual(got.events, want.events) {
						t.Errorf("StepFirst trace %+v, Step %+v", got.events, want.events)
					}
					if faults.Enabled() && got.stats.RecoveredCrashes != 3 {
						t.Errorf("RecoveredCrashes = %d, want 3", got.stats.RecoveredCrashes)
					}
				})
			}
		}
	}
}

// TestStepFirstRejectsBadPrefix: a prefix longer than the cluster, or
// negative, is an error and commits no round.
func TestStepFirstRejectsBadPrefix(t *testing.T) {
	c, err := NewCluster(Config{Machines: 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{-1, 5} {
		if err := c.StepFirst("bad", k, echoStep); err == nil {
			t.Errorf("StepFirst(k=%d) on 4 machines returned nil", k)
		}
	}
	if r := c.Stats().Rounds; r != 0 {
		t.Fatalf("rejected steps committed %d rounds", r)
	}
}

// TestStaleCtxFromPrefixStep: a context leaked from a step that ran only
// the first machines sends while the next round's closures run. Prefix
// steps make fresh contexts too, so it reaches its own sealed outbox: the
// sends are dropped, and the Step after the next round reports them.
func TestStaleCtxFromPrefixStep(t *testing.T) {
	const M = 4
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			checkStale(t, func(stale bool) staleRun {
				c, err := NewCluster(Config{Machines: M, Parallelism: p}, 16)
				if err != nil {
					t.Fatal(err)
				}
				var leaked Ctx
				if err := c.StepFirst("leak", 2, func(x Ctx) {
					ringStep(x, M)
					if x.Machine == 1 {
						leaked = x
					}
				}); err != nil {
					t.Fatal(err)
				}
				if err := c.Step("next", func(x Ctx) {
					ringStep(x, M)
					if stale && x.Machine == 2 {
						sendStale(leaked)
					}
				}); err != nil {
					t.Fatalf("round with stale sends: %v", err)
				}
				r := staleRun{stats: c.Stats(), boxes: drainAll(c)}
				r.next = c.Step("after", func(x Ctx) { ringStep(x, M) })
				return r
			}, 1, 1)
		})
	}
}
