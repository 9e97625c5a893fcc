package mpc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestSendInvalidDestination pins the out-of-range destination contract: a
// Send or SendOwned to dst < 0 or dst >= M fails inside the sender's own
// closure, so the step returns a *MachineError naming the sender, delivers
// nothing, and the cluster keeps running — at every parallelism level.
func TestSendInvalidDestination(t *testing.T) {
	const M, bad = 4, 2
	for _, p := range []int{1, 4} {
		for _, owned := range []bool{false, true} {
			for _, dst := range []int{-1, M, M + 5} {
				t.Run(fmt.Sprintf("p=%d/owned=%v/dst=%d", p, owned, dst), func(t *testing.T) {
					c, err := NewCluster(Config{Machines: M, Parallelism: p}, 16)
					if err != nil {
						t.Fatal(err)
					}
					err = c.Step("bad-dst", func(x Ctx) {
						x.Send((x.Machine+1)%M, uint64(x.Machine))
						if x.Machine == bad {
							if owned {
								x.SendOwned(dst, []uint64{7})
							} else {
								x.Send(dst, 7)
							}
						}
						x.Send(0, uint64(x.Machine))
					})
					var me *MachineError
					if !errors.As(err, &me) || me.Machine != bad || me.Round != 1 {
						t.Fatalf("err = %v, want a round-1 *MachineError from machine %d", err, bad)
					}
					if st := c.Stats(); st.Rounds != 0 || st.Messages != 0 || st.Words != 0 {
						t.Fatalf("failed step was committed: %+v", st)
					}
					if err := c.Step("after", func(x Ctx) {
						if len(x.Inbox()) != 0 {
							panic(fmt.Sprintf("machine %d inbox %v after the failed step", x.Machine, x.Inbox()))
						}
						x.Send(0, uint64(x.Machine))
					}); err != nil {
						t.Fatalf("step after the failed one: %v", err)
					}
					if got := inboxWords(c.Drain(0)); len(got) != M {
						t.Fatalf("delivery after the failed step = %v", got)
					}
				})
			}
		}
	}
}

// plannedSend is one message of a randomized step plan.
type plannedSend struct {
	dst     int
	payload []uint64
	owned   bool
}

// mergeRound is one superstep of a randomized merge scenario: every
// machine's sends in order, which machines fan their sends out over joined
// goroutines, and how the round must end.
type mergeRound struct {
	sends  [][]plannedSend
	spawn  []bool
	abort  bool // strict budget violation: nothing delivered
	panics int  // machine that panics after sending, or -1
}

const mergeBudget = 4096

func randomMergeRounds(M int, rng *rand.Rand) []mergeRound {
	rounds := make([]mergeRound, 7)
	for r := range rounds {
		rd := &rounds[r]
		rd.sends = make([][]plannedSend, M)
		rd.spawn = make([]bool, M)
		rd.panics = -1
		for m := 0; m < M; m++ {
			rd.spawn[m] = rng.Intn(4) == 0
			for k := rng.Intn(7); k > 0; k-- {
				p := make([]uint64, rng.Intn(6)) // zero-length payloads included
				for i := range p {
					p[i] = rng.Uint64()
				}
				rd.sends[m] = append(rd.sends[m], plannedSend{dst: rng.Intn(M), payload: p, owned: rng.Intn(2) == 0})
			}
		}
	}
	// Round 3 breaks the strict send budget with one payload past the
	// largest Send chunk; round 5 has a machine panic after its sends.
	big := make([]uint64, mergeBudget+1)
	rounds[2].sends[M-1] = append(rounds[2].sends[M-1], plannedSend{dst: 0, payload: big})
	rounds[2].abort = true
	rounds[4].panics = M / 2
	return rounds
}

// run executes machine m's planned sends. Owned payloads are sub-slices of
// one slab built by this attempt; a spawning machine gives each goroutine a
// disjoint set of destinations, so per-(src, dst) send order stays defined.
func (rd *mergeRound) run(x Ctx) {
	sends := rd.sends[x.Machine]
	var slab []uint64
	for _, s := range sends {
		if s.owned {
			slab = append(slab, s.payload...)
		}
	}
	owned := make([][]uint64, len(sends))
	at := 0
	for i, s := range sends {
		if s.owned {
			owned[i] = slab[at : at+len(s.payload) : at+len(s.payload)]
			at += len(s.payload)
		}
	}
	sendSome := func(keep func(dst int) bool) {
		for i, s := range sends {
			if !keep(s.dst) {
				continue
			}
			if s.owned {
				x.SendOwned(s.dst, owned[i])
			} else {
				x.Send(s.dst, s.payload...)
			}
		}
	}
	if rd.spawn[x.Machine] {
		const G = 3
		var wg sync.WaitGroup
		for g := 0; g < G; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sendSome(func(dst int) bool { return dst%G == g })
			}(g)
		}
		wg.Wait()
	} else {
		sendSome(func(int) bool { return true })
	}
	if x.Machine == rd.panics {
		panic("planned")
	}
}

// want is the brute-force reference delivery: for each destination, every
// planned message by ascending sender, then in that sender's send order.
func (rd *mergeRound) want(M int) [][]Message {
	boxes := make([][]Message, M)
	if rd.abort || rd.panics >= 0 {
		return boxes
	}
	for src, sends := range rd.sends {
		for _, s := range sends {
			boxes[s.dst] = append(boxes[s.dst], Message{Src: src, Payload: s.payload})
		}
	}
	return boxes
}

func sameBox(a, b []Message) bool {
	return slices.EqualFunc(a, b, func(x, y Message) bool {
		return x.Src == y.Src && slices.Equal(x.Payload, y.Payload)
	})
}

// TestMergeMatchesReference is the property test of the send-log merge:
// randomized closures mixing Send and SendOwned (zero-length payloads, a
// payload larger than a Send chunk, fan-out from joined goroutines) under
// crash faults, a strict abort and a machine panic. Every delivered inbox
// must equal the brute-force reference, Stats must be identical at every
// parallelism level, and no reused log may deliver a stale entry from an
// aborted attempt or round.
func TestMergeMatchesReference(t *testing.T) {
	var replayed int64
	for _, M := range []int{1, 3, 8, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			rounds := randomMergeRounds(M, rand.New(rand.NewSource(seed*1000+int64(M))))
			var serial Stats
			for _, p := range []int{1, 2, 3, 8} {
				plan := &FaultPlan{Seed: seed, CrashRate: 0.15, Crashes: []FaultEvent{{Round: 1, Machine: M - 1}, {Round: 3, Machine: 0}}}
				c, err := NewCluster(Config{
					Machines: M, Parallelism: p, Faults: plan,
					Regime: RegimeExplicit, MemoryWords: mergeBudget, Strict: true,
				}, 64)
				if err != nil {
					t.Fatal(err)
				}
				for r := range rounds {
					rd := &rounds[r]
					err := c.Step(fmt.Sprintf("r%d", r), rd.run)
					var me *MachineError
					switch {
					case rd.abort && !errors.Is(err, ErrBudget):
						t.Fatalf("M=%d seed=%d p=%d round %d: err = %v, want a strict abort", M, seed, p, r, err)
					case rd.panics >= 0 && (!errors.As(err, &me) || me.Machine != rd.panics):
						t.Fatalf("M=%d seed=%d p=%d round %d: err = %v, want machine %d's panic", M, seed, p, r, err, rd.panics)
					case !rd.abort && rd.panics < 0 && err != nil:
						t.Fatalf("M=%d seed=%d p=%d round %d: %v", M, seed, p, r, err)
					}
					want := rd.want(M)
					for d := 0; d < M; d++ {
						if got := c.Drain(d); !sameBox(got, want[d]) {
							t.Fatalf("M=%d seed=%d p=%d round %d: machine %d got\n%v\nwant\n%v", M, seed, p, r, d, got, want[d])
						}
					}
				}
				st := c.Stats()
				if st.RecoveredCrashes == 0 {
					t.Fatalf("M=%d seed=%d p=%d: no crash was recovered: %+v", M, seed, p, st)
				}
				replayed += st.ReplayedWords
				if p == 1 {
					serial = st
				} else if !reflect.DeepEqual(st, serial) {
					t.Fatalf("M=%d seed=%d: Stats at parallelism %d diverge from serial:\n got %+v\nwant %+v", M, seed, p, st, serial)
				}
			}
		}
	}
	if replayed == 0 {
		t.Fatal("no crash discarded buffered traffic: the retry path went untested")
	}
}

// TestStepAllocsIndependentOfMessageCount pins the exact-size merge: once
// the send logs have grown, a step in which every machine sends k messages
// allocates the same number of times for every k. SendOwned runs k up to
// 256; Send runs k up to what fills the worker's first copy chunk, which
// also catches a variadic payload escaping to the heap at every call.
func TestStepAllocsIndependentOfMessageCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const M = 4
	payload := make([]uint64, 3)
	allocs := func(k int, owned bool) float64 {
		c, err := NewCluster(Config{Machines: M, Parallelism: 1}, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := c.Step("k", func(x Ctx) {
				for i := 0; i < k; i++ {
					if owned {
						x.SendOwned((x.Machine+i)%M, payload)
					} else {
						x.Send((x.Machine+i)%M, uint64(i))
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			step()
		}
		return testing.AllocsPerRun(32, step)
	}
	for _, tc := range []struct {
		owned bool
		ks    []int
	}{{true, []int{16, 256}}, {false, []int{minSendChunk / M}}} {
		base := allocs(1, tc.owned)
		for _, k := range tc.ks {
			if got := allocs(k, tc.owned); got != base {
				t.Errorf("owned=%v: %v allocations per step at k=%d, %v at k=1", tc.owned, got, k, base)
			}
		}
	}
}
