package mpc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

// rangePlan is one machine's batched send in one round: a slab and its
// range ends, len(end) <= M, with empty ranges mixed in.
type rangePlan struct {
	slab []uint64
	end  []int
}

func randomRangePlans(M, rounds int, rng *rand.Rand) [][]rangePlan {
	plans := make([][]rangePlan, rounds)
	for r := range plans {
		plans[r] = make([]rangePlan, M)
		for m := range plans[r] {
			end := make([]int, rng.Intn(M+1))
			total := 0
			for d := range end {
				if rng.Intn(3) > 0 { // a third of the ranges are empty
					total += 1 + rng.Intn(4)
				}
				end[d] = total
			}
			slab := make([]uint64, total)
			for i := range slab {
				slab[i] = rng.Uint64()
			}
			plans[r][m] = rangePlan{slab: slab, end: end}
		}
	}
	return plans
}

// TestSendOwnedRangesMatchesSendOwnedLoop: one SendOwnedRanges call
// delivers, counts and traces exactly what the SendOwned loop over its
// non-empty ranges does, around other sends of the same machine, at every
// parallelism level. A third of the planned ranges are empty and send no
// message.
func TestSendOwnedRangesMatchesSendOwnedLoop(t *testing.T) {
	const M, rounds = 8, 6
	plans := randomRangePlans(M, rounds, rand.New(rand.NewSource(7)))
	type outcome struct {
		boxes  [][][][]uint64 // round, machine, message, payload
		srcs   [][][]int
		stats  Stats
		events []trace.Event
	}
	run := func(p int, batched bool) outcome {
		c, ring := newTracedCluster(t, Config{Machines: M, Parallelism: p}, 64)
		var out outcome
		for r := 0; r < rounds; r++ {
			if err := c.Step(fmt.Sprintf("r%d", r), func(x *Ctx) {
				pl := plans[r][x.Machine]
				x.Send(0, uint64(x.Machine))
				if batched {
					x.SendOwnedRanges(pl.slab, pl.end)
				} else {
					lo := 0
					for d, hi := range pl.end {
						if hi > lo {
							x.SendOwned(d, pl.slab[lo:hi:hi])
						}
						lo = hi
					}
				}
				x.Send(M-1, uint64(x.Machine))
			}); err != nil {
				t.Fatal(err)
			}
			boxes, srcs := make([][][]uint64, M), make([][]int, M)
			for d := 0; d < M; d++ {
				for _, msg := range c.Drain(d) {
					boxes[d] = append(boxes[d], msg.Payload)
					srcs[d] = append(srcs[d], msg.Src)
				}
			}
			out.boxes = append(out.boxes, boxes)
			out.srcs = append(out.srcs, srcs)
		}
		out.stats, out.events = c.Stats(), ring.Events()
		return out
	}
	want := run(1, false)
	for _, p := range []int{1, 2, 8} {
		if got := run(p, true); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: SendOwnedRanges diverges from the SendOwned loop:\n got %+v\nwant %+v", p, got.stats, want.stats)
		}
	}
}

// TestSendOwnedRangesInvalid: more ranges than machines, or ranges that
// decrease or run past the slab, fail in the sender's closure as its
// *MachineError, deliver nothing, and leave the sender's outbox usable by
// the next step.
func TestSendOwnedRangesInvalid(t *testing.T) {
	const M, bad = 4, 1
	for _, tc := range []struct {
		name string
		slab []uint64
		end  []int
	}{
		{"too-many", make([]uint64, M+1), []int{1, 2, 3, 4, 5}},
		{"decreasing", make([]uint64, 4), []int{2, 1, 4}},
		{"past-slab", make([]uint64, 2), []int{1, 3}},
	} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				c, err := NewCluster(Config{Machines: M, Parallelism: p}, 16)
				if err != nil {
					t.Fatal(err)
				}
				err = c.Step("bad-ranges", func(x *Ctx) {
					x.Send(0, uint64(x.Machine))
					if x.Machine == bad {
						x.SendOwnedRanges(tc.slab, tc.end)
					}
				})
				var me *MachineError
				if !errors.As(err, &me) || me.Machine != bad || me.Round != 1 {
					t.Fatalf("err = %v, want a round-1 *MachineError from machine %d", err, bad)
				}
				if st := c.Stats(); st.Rounds != 0 || st.Messages != 0 {
					t.Fatalf("failed step was committed: %+v", st)
				}
				if err := c.Step("after", echoStep); err != nil {
					t.Fatalf("step after the failed one: %v", err)
				}
				if got := inboxWords(c.Drain(0)); len(got) != M {
					t.Fatalf("delivery after the failed step = %v", got)
				}
			})
		}
	}
}

// TestSendOwnedRangesLate: a batched send on a context whose step has
// completed is dropped and surfaces as ErrStaleCtx, with its total word
// count, from the next Step.
func TestSendOwnedRangesLate(t *testing.T) {
	c, err := NewCluster(Config{Machines: 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	var leaked *Ctx
	if err := c.Step("leak", func(x *Ctx) {
		if x.Machine == 2 {
			leaked = x
		}
	}); err != nil {
		t.Fatal(err)
	}
	leaked.SendOwnedRanges([]uint64{1, 2, 3, 4, 5}, []int{2, 2, 5})
	err = c.Step("next", func(x *Ctx) {
		if len(x.Inbox()) != 0 {
			t.Errorf("machine %d: stale batched send leaked into inbox: %v", x.Machine, x.Inbox())
		}
	})
	if !errors.Is(err, ErrStaleCtx) || !strings.Contains(err.Error(), "machine 2 sent 5 words") {
		t.Fatalf("late batched send err = %v, want ErrStaleCtx for machine 2's 5 words", err)
	}
	if st := c.Stats(); st.Messages != 0 {
		t.Fatalf("late batched send was delivered: %+v", st)
	}
}

// vetoTransport fails the first exchange of one round and accepts every
// other.
type vetoTransport struct {
	round int
	fired bool
}

func (v *vetoTransport) Exchange(round int, _ [][]Message) error {
	if round == v.round && !v.fired {
		v.fired = true
		return errors.New("vetoed")
	}
	return nil
}

// TestAbortAfterMergeEmptiesInboxes pins the inbox-lifetime rule's abort
// case: the merge overwrites the delivery arena, so a step that aborts
// after it (strict budget error, transport veto) leaves every inbox empty,
// including inboxes the previous round filled and nobody drained, and the
// next step's closures see empty inboxes.
func TestAbortAfterMergeEmptiesInboxes(t *testing.T) {
	const M = 4
	for _, tc := range []struct {
		name string
		cfg  func() Config
		want func(error) bool
	}{
		{"strict", func() Config { return Config{Regime: RegimeExplicit, MemoryWords: 8, Strict: true} },
			func(err error) bool { return errors.Is(err, ErrBudget) }},
		{"veto", func() Config { return Config{Transport: &vetoTransport{round: 2}} },
			func(err error) bool { var te *TransportError; return errors.As(err, &te) }},
	} {
		for _, p := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				cfg := tc.cfg()
				cfg.Machines, cfg.Parallelism = M, p
				c, err := NewCluster(cfg, 16)
				if err != nil {
					t.Fatal(err)
				}
				// Round 1 fills every inbox and is left undrained.
				if err := c.Step("fill", func(x *Ctx) {
					for d := 0; d < M; d++ {
						x.Send(d, uint64(x.Machine))
					}
				}); err != nil {
					t.Fatal(err)
				}
				// Round 2 aborts after its merge: machine 0 sends past the
				// strict budget, or the transport vetoes the exchange.
				err = c.Step("abort", func(x *Ctx) {
					if len(x.Inbox()) != M {
						t.Errorf("machine %d sees %d messages of round 1, want %d", x.Machine, len(x.Inbox()), M)
					}
					if x.Machine == 0 {
						x.SendOwned(1, make([]uint64, 9))
					}
				})
				if !tc.want(err) {
					t.Fatalf("err = %v, want the %s abort", err, tc.name)
				}
				for m, box := range c.inboxes {
					if len(box) != 0 {
						t.Fatalf("machine %d inbox %v after the aborted step", m, box)
					}
				}
				if err := c.Step("after", func(x *Ctx) {
					if len(x.Inbox()) != 0 {
						t.Errorf("machine %d sees inbox %v after the aborted step", x.Machine, x.Inbox())
					}
				}); err != nil {
					t.Fatalf("step after the abort: %v", err)
				}
			})
		}
	}
}

// TestStepReusesDeliveryArena: a repeated step of the same shape delivers
// into the cluster's one delivery arena, so it allocates no []Message: the
// bytes it allocates stay far below the bytes of the headers it delivers.
func TestStepReusesDeliveryArena(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const M, k = 4, 512
	c, err := NewCluster(Config{Machines: M, Parallelism: 1}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]uint64, 1)
	step := func() {
		if err := c.Step("k", func(x *Ctx) {
			for i := 0; i < k; i++ {
				x.SendOwned((x.Machine+i)%M, payload)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	perStep := int64(after.TotalAlloc-before.TotalAlloc) / runs
	headers := int64(M * k * 24) // one 24-byte Message per delivered message
	if perStep > headers/4 {
		t.Fatalf("a repeated step allocates %d bytes against %d bytes of delivered headers: the delivery arena was not reused",
			perStep, headers)
	}
}

// TestStepAllocsPerMachine pins what a superstep allocates per machine: at
// M = 4096 a warmed-up Step allocates at most 40 bytes per machine, room for
// the attempt's 32-byte contexts but not for state that grows with M beyond
// them.
func TestStepAllocsPerMachine(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const M, maxPerMachine = 4096, 40
	c, err := NewCluster(Config{Machines: M, Parallelism: 1}, M)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]uint64, M)
	step := func() {
		if err := c.Step("ring", func(x *Ctx) {
			m := x.Machine
			slab[m] = uint64(m)
			x.SendOwned((m+1)%M, slab[m:m+1:m+1])
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if perMachine := float64(after.TotalAlloc-before.TotalAlloc) / runs / M; perMachine > maxPerMachine {
		t.Fatalf("a Step allocates %.1f bytes per machine, want at most %d", perMachine, maxPerMachine)
	}
}
