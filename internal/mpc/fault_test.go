package mpc

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// echoStep has every machine send its id to machine 0.
func echoStep(x Ctx) {
	x.Send(0, uint64(x.Machine))
}

func inboxWords(msgs []Message) []uint64 {
	var out []uint64
	for _, m := range msgs {
		out = append(out, m.Payload...)
	}
	return out
}

func TestPanicBecomesMachineError(t *testing.T) {
	c, err := NewCluster(Config{Machines: 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Step("boom", func(x Ctx) {
		if x.Machine == 2 {
			panic("injected bug")
		}
		x.Send(0, uint64(x.Machine))
	})
	var me *MachineError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *MachineError", err)
	}
	if me.Machine != 2 || me.Round != 1 || me.Panic != "injected bug" {
		t.Fatalf("MachineError = %+v", me)
	}
	if !strings.Contains(me.Error(), "machine 2 panicked in round 1") {
		t.Fatalf("Error() = %q", me.Error())
	}
	if len(me.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	// The failed superstep delivers nothing and the cluster survives: the
	// next step runs normally with empty inboxes.
	err = c.Step("after", func(x Ctx) {
		if len(x.Inbox()) != 0 {
			t.Errorf("machine %d inbox = %v after failed step", x.Machine, x.Inbox())
		}
		echoStep(x)
	})
	if err != nil {
		t.Fatalf("step after panic: %v", err)
	}
	if got := inboxWords(c.inboxes[0]); len(got) != 4 {
		t.Fatalf("delivery after recovery = %v", got)
	}
}

func TestCrashRecoveryIdenticalDelivery(t *testing.T) {
	run := func(plan *FaultPlan) ([]uint64, Stats) {
		c, err := NewCluster(Config{Machines: 4, Faults: plan}, 16)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if err := c.Step("echo", echoStep); err != nil {
				t.Fatal(err)
			}
		}
		return inboxWords(c.inboxes[0]), c.Stats()
	}

	base, baseStats := run(nil)
	plan := &FaultPlan{Seed: 7, Crashes: []FaultEvent{{Round: 1, Machine: 0}, {Round: 2, Machine: 3}}}
	faulty, st := run(plan)

	if len(base) != 4 {
		t.Fatalf("baseline delivery = %v", base)
	}
	for i := range base {
		if base[i] != faulty[i] {
			t.Fatalf("delivery differs under crashes: %v vs %v", base, faulty)
		}
	}
	if st.RecoveredCrashes != 2 || st.RecoveryRounds < 2 {
		t.Fatalf("recovery stats = %+v", st)
	}
	if st.ReplayedWords == 0 {
		t.Fatal("discarded superstep traffic not charged to ReplayedWords")
	}
	// Core accounting is bit-identical to the fault-free run.
	if st.Rounds != baseStats.Rounds || st.Words != baseStats.Words || st.Messages != baseStats.Messages {
		t.Fatalf("core stats diverged: faulty %+v vs base %+v", st, baseStats)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Crashes: []FaultEvent{{Round: 4, Machine: 1}}}
	c, err := NewCluster(Config{Machines: 2, Faults: plan, CheckpointEvery: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Driver state: one counter per machine, bumped after each step (the
	// repo's driver discipline: mutate only after Step returns).
	state := []uint64{100, 200}
	var restores int
	err = c.SetCheckpointer(FuncCheckpointer{
		SnapshotFn: func(m int) []uint64 { return []uint64{state[m]} },
		RestoreFn: func(m int, data []uint64) {
			restores++
			if len(data) != 1 {
				t.Errorf("restore payload = %v", data)
			}
			state[m] = data[0]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 5; r++ {
		if err := c.Step("tick", echoStep); err != nil {
			t.Fatal(err)
		}
		for m := range state {
			state[m]++
		}
	}
	if state[0] != 105 || state[1] != 205 {
		t.Fatalf("state corrupted by recovery: %v", state)
	}
	st := c.Stats()
	if restores != 1 || st.RecoveredCrashes != 1 {
		t.Fatalf("restores = %d, stats = %+v", restores, st)
	}
	// Checkpoints at rounds 1, 3 and 5 write 2 machines × 1 word each.
	if st.CheckpointWords != 6 {
		t.Fatalf("CheckpointWords = %d", st.CheckpointWords)
	}
	// Crash at round 4, last checkpoint before round 3 → replay distance ≥ 1
	// plus restored state charged.
	if st.RecoveryRounds < 1 || st.ReplayedWords == 0 {
		t.Fatalf("recovery accounting = %+v", st)
	}
}

func TestLateSendErrors(t *testing.T) {
	c, err := NewCluster(Config{Machines: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var leaked Ctx
	if err := c.Step("leak", func(x Ctx) {
		if x.Machine == 1 {
			leaked = x
		}
	}); err != nil {
		t.Fatal(err)
	}
	leaked.Send(0, 42) // stale: dropped, recorded
	err = c.Step("next", func(x Ctx) {
		if x.Machine == 0 && len(x.Inbox()) != 0 {
			t.Errorf("stale send leaked into inbox: %v", x.Inbox())
		}
	})
	if !errors.Is(err, ErrStaleCtx) {
		t.Fatalf("late send err = %v, want ErrStaleCtx", err)
	}
	// The error is one-shot: subsequent steps are clean.
	if err := c.Step("clean", func(x Ctx) {}); err != nil {
		t.Fatalf("step after stale-send report: %v", err)
	}
}

// staleRun is one run of a stale-context scenario: the Stats after the step
// the stale sends ran in, every machine's delivered words, and the error of
// the Step after it.
type staleRun struct {
	stats Stats
	boxes [][]uint64
	next  error
}

// ringStep has every machine send its id to the next machine.
func ringStep(x Ctx, M int) {
	x.Send((x.Machine+1)%M, uint64(x.Machine))
}

// sendStale sends on a context whose step is over, with each send primitive.
func sendStale(x Ctx) {
	x.Send(0, 99)
	x.SendOwned(2, []uint64{98, 97})
	x.SendOwnedRanges([]uint64{96, 95, 94}, []int{1, 1, 3})
}

// drainAll drains and returns every machine's delivered words.
func drainAll(c *Cluster) [][]uint64 {
	boxes := make([][]uint64, c.Machines())
	for m := range boxes {
		boxes[m] = inboxWords(c.Drain(m))
	}
	return boxes
}

// checkStale compares a scenario run with stale sends against the same run
// without them: the stale words are never delivered, no Stats counter moves,
// and only the Step after the stale sends fails, with ErrStaleCtx naming the
// leaked context's machine and round.
func checkStale(t *testing.T, run func(stale bool) staleRun, machine, round int) {
	t.Helper()
	ref, got := run(false), run(true)
	if ref.next != nil {
		t.Fatalf("reference run: next step err = %v", ref.next)
	}
	if !reflect.DeepEqual(got.boxes, ref.boxes) {
		t.Errorf("delivered %v, want %v: a stale send was delivered", got.boxes, ref.boxes)
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		t.Errorf("stats with stale sends %+v, want %+v", got.stats, ref.stats)
	}
	want := fmt.Sprintf("machine %d sent 1 words after its step (round %d)", machine, round)
	if !errors.Is(got.next, ErrStaleCtx) || !strings.Contains(got.next.Error(), want) {
		t.Errorf("next step err = %v, want ErrStaleCtx with %q", got.next, want)
	}
}

// TestStaleCtxSendsDuringNextRound: a context leaked from round 1 sends
// while round 2's closures run. Its outbox was sealed at round 1's barrier,
// so the sends are dropped rather than routed into round 2, and the Step
// after round 2 reports them.
func TestStaleCtxSendsDuringNextRound(t *testing.T) {
	const M = 4
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			checkStale(t, func(stale bool) staleRun {
				c, err := NewCluster(Config{Machines: M, Parallelism: p}, 16)
				if err != nil {
					t.Fatal(err)
				}
				var leaked Ctx
				if err := c.Step("leak", func(x Ctx) {
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

// TestStaleCtxSendsDuringCrashRetry: a context leaked from an attempt that
// a crash aborted sends while the retry's closures run. The aborted
// attempt's outboxes were sealed before the retry, so the sends are dropped
// rather than merged into the retried round, and the Step after it reports
// them.
func TestStaleCtxSendsDuringCrashRetry(t *testing.T) {
	const M = 4
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			checkStale(t, func(stale bool) staleRun {
				plan := &FaultPlan{Crashes: []FaultEvent{{Round: 2, Machine: 3}}}
				c, err := NewCluster(Config{Machines: M, Parallelism: p, Faults: plan}, 16)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Step("first", func(x Ctx) { ringStep(x, M) }); err != nil {
					t.Fatal(err)
				}
				// runs[m] counts machine m's executions of round 2: 1 is the
				// aborted attempt, 2 the retry.
				var runs [M]int
				var leaked Ctx
				if err := c.Step("crashy", func(x Ctx) {
					runs[x.Machine]++
					ringStep(x, M)
					if x.Machine == 1 && runs[1] == 1 {
						leaked = x
					}
					if stale && x.Machine == 2 && runs[2] == 2 {
						sendStale(leaked)
					}
				}); err != nil {
					t.Fatalf("crashed round: %v", err)
				}
				if runs[1] != 2 || runs[3] != 1 {
					t.Fatalf("round 2 ran %v times per machine, want one crash retry", runs)
				}
				r := staleRun{stats: c.Stats(), boxes: drainAll(c)}
				if r.stats.RecoveredCrashes != 1 {
					t.Fatalf("RecoveredCrashes = %d, want 1", r.stats.RecoveredCrashes)
				}
				r.next = c.Step("after", func(x Ctx) { ringStep(x, M) })
				return r
			}, 1, 2)
		})
	}
}

func TestStrictAbortDeliversNothing(t *testing.T) {
	c, err := NewCluster(Config{Machines: 2, Regime: RegimeExplicit, MemoryWords: 2, Strict: true}, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Step("burst", func(x Ctx) {
		if x.Machine == 0 {
			x.Send(1, 1, 2, 3)
		}
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("strict violation err = %v, want ErrBudget", err)
	}
	if got := c.inboxes[1]; len(got) != 0 {
		t.Fatalf("aborted step delivered %v", got)
	}
}

// TestFaultPlanEnabled: a plan injects something iff it has a positive
// crash rate or a pinned crash, and its String names both.
func TestFaultPlanEnabled(t *testing.T) {
	for _, tc := range []struct {
		plan *FaultPlan
		want string
	}{
		{nil, "faults(off)"},
		{&FaultPlan{Seed: 5}, "faults(off)"},
		{&FaultPlan{Seed: 5, CrashRate: 0.25}, "faults(seed=5 crash=0.25 explicit=0)"},
		{&FaultPlan{Seed: -1, Crashes: []FaultEvent{{Round: 2, Machine: 1}, {Round: 3, Machine: 0}}}, "faults(seed=-1 crash=0 explicit=2)"},
	} {
		if got := tc.plan.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
		if on := tc.plan.Enabled(); on != (tc.want != "faults(off)") {
			t.Errorf("%s: Enabled = %t", tc.want, on)
		}
	}
	if (*FaultPlan)(nil).CrashesAt(1, 0) || (&FaultPlan{Seed: 5}).CrashesAt(1, 0) {
		t.Error("a disabled plan crashed a machine")
	}
	if all := (&FaultPlan{CrashRate: 1}); !all.CrashesAt(7, 3) {
		t.Error("crash rate 1 skipped a machine")
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	p := &FaultPlan{Seed: 42, CrashRate: 0.3}
	q := &FaultPlan{Seed: 42, CrashRate: 0.3}
	other := &FaultPlan{Seed: 43, CrashRate: 0.3}
	same, diff := 0, 0
	for r := 1; r <= 50; r++ {
		for m := 0; m < 8; m++ {
			if p.CrashesAt(r, m) != q.CrashesAt(r, m) {
				t.Fatalf("equal plans disagree at round %d machine %d", r, m)
			}
			if p.CrashesAt(r, m) {
				same++
			}
			if p.CrashesAt(r, m) != other.CrashesAt(r, m) {
				diff++
			}
		}
	}
	if same == 0 || same == 400 {
		t.Fatalf("crash rate 0.3 fired %d/400 times", same)
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestCrashSchedulePinned pins the (round, machine) pairs a seeded crash
// rate fires on, for rounds 1..40 and 8 machines. It guards the crash
// roll's identity hash: any change to the packed event identity or the seed
// derivation moves every seeded crash schedule, and with it every faulted
// oracle digest and checkpoint fingerprint.
func TestCrashSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		rate float64
		want [][2]int
	}{
		{1, 0.05, [][2]int{{4, 4}, {6, 4}, {6, 6}, {9, 0}, {9, 4}, {11, 5}, {12, 0}, {16, 4}, {16, 7},
			{20, 0}, {25, 5}, {29, 2}, {31, 3}, {33, 7}, {37, 1}}},
		{7, 0.1, [][2]int{{1, 3}, {3, 0}, {4, 2}, {4, 7}, {5, 5}, {8, 1}, {10, 2}, {18, 4}, {19, 0},
			{23, 3}, {23, 7}, {25, 0}, {28, 5}, {31, 7}, {32, 0}, {33, 5}, {34, 7}, {36, 7}, {37, 2},
			{37, 7}, {40, 4}, {40, 5}}},
		{42, 0.02, [][2]int{{6, 2}, {8, 4}, {14, 2}, {18, 4}, {18, 7}, {24, 0}, {25, 5}, {32, 6}}},
	} {
		p := &FaultPlan{Seed: tc.seed, CrashRate: tc.rate}
		var got [][2]int
		for r := 1; r <= 40; r++ {
			for m := 0; m < 8; m++ {
				if p.CrashesAt(r, m) {
					got = append(got, [2]int{r, m})
				}
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("seed %d rate %g fired %v, want %v", tc.seed, tc.rate, got, tc.want)
		}
	}
}

// TestResidentAccountingRace is the -race regression for the satellite fix:
// resident-memory accounting is reachable from concurrent machine code.
func TestResidentAccountingRace(t *testing.T) {
	c, err := NewCluster(Config{Machines: 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for m := 0; m < 8; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := c.AddResident(m, 1); err != nil {
					t.Error(err)
					return
				}
				_ = c.Resident(m)
			}
		}(m)
	}
	wg.Wait()
	if err := c.SetResident(0, 7); err != nil {
		t.Fatal(err)
	}
	if c.Resident(0) != 7 {
		t.Fatalf("resident = %d", c.Resident(0))
	}
}
