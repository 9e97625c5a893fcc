package clique

import (
	"errors"
	"runtime"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

func newTestClique(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{}, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(Config{}, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewCluster(Config{PairWords: -1}, 4); err == nil {
		t.Error("negative bandwidth accepted")
	}
	c, err := NewCluster(Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().PairWords != 1 {
		t.Errorf("default pair bandwidth = %d", c.Config().PairWords)
	}
}

func TestStepDeliveryAndOrdering(t *testing.T) {
	c := newTestClique(t, 5)
	if err := c.Step("ring", func(x *Ctx) {
		x.Send((x.Machine+1)%5, uint64(x.Machine))
	}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		msgs := c.Drain(v)
		if len(msgs) != 1 {
			t.Fatalf("node %d received %d messages", v, len(msgs))
		}
		want := (v + 4) % 5
		if msgs[0].Src != want || msgs[0].Payload[0] != uint64(want) {
			t.Fatalf("node %d got %+v", v, msgs[0])
		}
	}
	if c.Stats().Rounds != 1 || c.Stats().Messages != 5 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestInboxSortedBySender(t *testing.T) {
	c := newTestClique(t, 8)
	if err := c.Step("fanin", func(x *Ctx) {
		if x.Machine != 0 {
			x.Send(0, uint64(x.Machine))
		}
	}); err != nil {
		t.Fatal(err)
	}
	msgs := c.Drain(0)
	if len(msgs) != 7 {
		t.Fatalf("received %d", len(msgs))
	}
	for i, msg := range msgs {
		if msg.Src != i+1 {
			t.Fatalf("inbox[%d].Src = %d", i, msg.Src)
		}
	}
}

func TestPairBandwidthViolation(t *testing.T) {
	c := newTestClique(t, 3)
	if err := c.Step("burst", func(x *Ctx) {
		if x.Machine == 0 {
			x.Send(1, 7, 8) // two words on one pair link
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if len(st.Violations) != 1 || st.Violations[0].Kind != "pair" {
		t.Fatalf("violations = %v", st.Violations)
	}
	// Fan-in of one word per pair is legal (the clique's defining power).
	c2 := newTestClique(t, 64)
	if err := c2.Step("fanin", func(x *Ctx) {
		x.Send(0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if len(c2.Stats().Violations) != 0 {
		t.Fatalf("legal fan-in flagged: %v", c2.Stats().Violations)
	}
}

func TestStrictMode(t *testing.T) {
	c, err := NewCluster(Config{Strict: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Step("burst", func(x *Ctx) {
		if x.Machine == 0 {
			x.Send(1, 1, 2)
		}
	})
	if !errors.Is(err, mpc.ErrBudget) {
		t.Fatalf("err = %v", err)
	}
	// A strict violation aborts the round cleanly: nothing is delivered.
	if got := c.Drain(1); len(got) != 0 {
		t.Fatalf("strict violation delivered %v to node 1", got)
	}
}

func TestRouteStepBudgets(t *testing.T) {
	const n = 6
	c := newTestClique(t, n)
	// A many-words-to-one pattern within Lenzen budgets: node 1 sends n
	// words to node 0.
	if err := c.RouteStep("route", func(x *Ctx) {
		if x.Machine == 1 {
			for i := 0; i < n; i++ {
				x.Send(0, uint64(i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Rounds != LenzenRounds {
		t.Fatalf("routed step charged %d rounds, want %d", st.Rounds, LenzenRounds)
	}
	if len(st.Violations) != 0 {
		t.Fatalf("legal routing flagged: %v", st.Violations)
	}
	// Exceeding the per-node budget must be flagged.
	c2 := newTestClique(t, 3)
	if err := c2.RouteStep("overflow", func(x *Ctx) {
		if x.Machine == 1 {
			for i := 0; i < 10; i++ { // 10 > n·PairWords = 3
				x.Send(0, uint64(i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(c2.Stats().Violations) == 0 {
		t.Fatal("routing overflow not flagged")
	}
}

// TestSumAndMaxToZero: both folds are right, and a node whose word is 0
// sends nothing.
func TestSumAndMaxToZero(t *testing.T) {
	c := newTestClique(t, 10)
	sum, err := c.SumToZero("s", func(v int) uint64 { return uint64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Fatalf("sum = %d", sum)
	}
	if st := c.Stats(); st.Words != 9 || st.Messages != 9 {
		t.Fatalf("SumToZero sent %d words in %d messages, want 9 (node 0's word is 0)", st.Words, st.Messages)
	}
	best, err := c.MaxToZero("m", func(v int) uint64 { return uint64(v%2) * uint64(v*3) })
	if err != nil {
		t.Fatal(err)
	}
	if best != 27 {
		t.Fatalf("max = %d", best)
	}
	st := c.Stats()
	if st.Rounds != 2 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.Words != 9+5 || st.Messages != 9+5 {
		t.Fatalf("%d words in %d messages, want 14 (MaxToZero: the 5 odd nodes)", st.Words, st.Messages)
	}
	// Every word 0: nothing is sent, and both folds read 0.
	for _, reduce := range []func(string, func(int) uint64) (uint64, error){c.SumToZero, c.MaxToZero} {
		got, err := reduce("zero", func(int) uint64 { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("fold of zeros = %d", got)
		}
	}
	if st := c.Stats(); st.Rounds != 4 || st.Words != 14 {
		t.Fatalf("all-zero reductions: %d rounds, %d words, want 4 and 14", st.Rounds, st.Words)
	}
}

func TestBroadcastWord(t *testing.T) {
	c := newTestClique(t, 6)
	if err := c.BroadcastWord("b", 42); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Rounds != 1 || st.Words != 5 || len(st.Violations) != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBroadcastWordAllocs pins a coordinator round's host cost to the one
// node that sends: once warm, a BroadcastWord on 4096 nodes allocates under
// 2 KB, far below the 32 bytes per node a context for every node would take.
func TestBroadcastWordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n, maxBytes = 4096, 2048
	c, err := NewCluster(Config{Parallelism: 4}, n)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		if err := c.BroadcastWord("b", 42); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if perRound := (after.TotalAlloc - before.TotalAlloc) / runs; perRound >= maxBytes {
		t.Fatalf("a BroadcastWord round on %d nodes allocates %d bytes, want under %d", n, perRound, maxBytes)
	}
}

func TestScatterAggregate(t *testing.T) {
	const n, nExt = 9, 4
	c := newTestClique(t, n)
	sums, err := c.ScatterAggregate("sa", nExt, func(v int, vals []int64) {
		for e := range vals {
			vals[e] = -3 * int64(e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < nExt; e++ {
		if want := -3 * int64(e) * n; sums[e] != want {
			t.Fatalf("sums[%d] = %v, want %v", e, sums[e], want)
		}
	}
	st := c.Stats()
	if st.Rounds != 2 {
		t.Fatalf("scatter-aggregate cost %d rounds, want 2 (O(1) regardless of width)", st.Rounds)
	}
	if len(st.Violations) != 0 {
		t.Fatalf("violations: %v", st.Violations)
	}
	// Coordinate 0 is zero everywhere: n·(nExt−1) scatter words, and
	// nExt−1 aggregators forward a sum.
	if want := int64(n*(nExt-1) + nExt - 1); st.Words != want || st.Messages != want {
		t.Fatalf("%d words in %d messages, want %d", st.Words, st.Messages, want)
	}
	if _, err := c.ScatterAggregate("too-wide", n+1, func(int, []int64) {}); err == nil {
		t.Fatal("over-capacity scatter accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		c := newTestClique(t, 16)
		if err := c.Step("all-to-all", func(x *Ctx) {
			for d := 0; d < 16; d++ {
				if d != x.Machine {
					x.Send(d, uint64(x.Machine*100+d))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for v := 0; v < 16; v++ {
			for _, msg := range c.Drain(v) {
				out = append(out, msg.Payload...)
			}
		}
		return out
	}
	want := run()
	for i := 0; i < 10; i++ {
		got := run()
		for k := range want {
			if got[k] != want[k] {
				t.Fatal("nondeterministic delivery")
			}
		}
	}
}
