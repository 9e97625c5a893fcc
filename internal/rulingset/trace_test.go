package rulingset

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/bitset"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// tracedRun executes one algorithm with a JSONL tracer attached and returns
// the raw trace bytes.
func tracedRun(t *testing.T, run func(*graph.Graph, Options) (Result, error), g *graph.Graph, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.NewJSONL(&buf)
	o.Tracer = tr
	if _, err := run(g, o); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteDeterminism is the bit-determinism contract of the
// observability layer: running any algorithm twice with identical inputs
// produces byte-identical JSONL traces — with and without an active fault
// plan (recovery is deterministic too, and metered in the same events).
func TestTraceByteDeterminism(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	for _, a := range allAlgorithms() {
		for _, faulty := range []bool{false, true} {
			a, faulty := a, faulty
			name := a.name
			if faulty {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opts := Options{Seed: 5}
				if faulty {
					opts.Faults = faultTestPlan()
				}
				first := tracedRun(t, a.run, g, opts)
				if len(first) == 0 {
					t.Fatal("empty trace")
				}
				second := tracedRun(t, a.run, g, opts)
				if !bytes.Equal(first, second) {
					t.Fatal("traces of identical runs differ byte-for-byte")
				}
				// Every event carries a span annotation, and the phase spans
				// show up on every MPC algorithm. (Luby's finish phase is
				// purely local — no superstep carries that span there.)
				if !bytes.Contains(first, []byte(`"span":"sparsify"`)) {
					t.Error("trace missing sparsify span")
				}
				if !strings.Contains(a.name, "Luby") && !bytes.Contains(first, []byte(`"span":"finish"`)) {
					t.Error("trace missing finish span")
				}
				if faulty && !bytes.Contains(first, []byte(`"crashes":`)) {
					t.Error("faulty trace records no crash recovery")
				}
			})
		}
	}
}

// TestTraceAccountsForStats holds every Algorithms entry's trace to its
// Stats, with and without faults: event rounds strictly increase and end at
// Stats.Rounds (chained drivers continue the numbering across levels), the
// reduced spans' rounds, messages and words sum to the run's, and their
// maxima and Gini coefficients are the run's peaks. The trace is the one
// per-round record, so it must account for every round the run bills.
func TestTraceAccountsForStats(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	for _, a := range Algorithms {
		for _, faulty := range []bool{false, true} {
			name := a.Name
			opts := Options{Seed: 5}
			if faulty {
				name += "/faults"
				opts.Faults = faultTestPlan()
			}
			t.Run(name, func(t *testing.T) {
				var events trace.Log
				opts.Tracer = &events
				res, err := a.Run(g, 3, opts)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				prev := 0
				for _, ev := range events {
					if ev.Round <= prev {
						t.Fatalf("event %q at round %d follows round %d", ev.Step, ev.Round, prev)
					}
					prev = ev.Round
				}
				if prev != st.Rounds {
					t.Fatalf("last event at round %d, Stats.Rounds %d", prev, st.Rounds)
				}
				var sum trace.SpanStat
				for _, sp := range trace.Spans(0, events) {
					sum.Rounds += sp.Rounds
					sum.Messages += sp.Messages
					sum.Words += sp.Words
					sum.MaxSent = max(sum.MaxSent, sp.MaxSent)
					sum.MaxRecv = max(sum.MaxRecv, sp.MaxRecv)
					sum.GiniSent = max(sum.GiniSent, sp.GiniSent)
					sum.GiniRecv = max(sum.GiniRecv, sp.GiniRecv)
				}
				want := trace.SpanStat{
					Rounds: st.Rounds, Messages: st.Messages, Words: st.Words,
					MaxSent: st.PeakSent, MaxRecv: st.PeakRecv, GiniSent: st.GiniSent, GiniRecv: st.GiniRecv,
				}
				if sum != want {
					t.Fatalf("spans total %+v, stats %+v", sum, want)
				}
			})
		}
	}
}

// TestLevelsShareOneCluster: every level of a β or adaptive run commits on
// the one cluster, so the one tracer sees rounds 1…Rounds with no gap. The
// schedule is split from one maxdeg round; each later β level starts with
// one beta/view round. The adaptive driver measures every level in one
// adaptive/size round and starts each later level with one adaptive/view
// round.
func TestLevelsShareOneCluster(t *testing.T) {
	g := gen.MustBuild("gnp:n=1000,p=0.01", 41)
	cases := []struct {
		name string
		beta int // 0: adaptive, which reports its own
		run  func(Options) (Result, error)
	}{
		{"DetRulingBeta3", 3, func(o Options) (Result, error) { return DetRulingBeta(g, 3, o) }},
		{"RandRulingBeta4", 4, func(o Options) (Result, error) { return RandRulingBeta(g, 4, o) }},
		{"DetRulingBeta4", 4, func(o Options) (Result, error) { return DetRulingBeta(g, 4, o) }},
		{"DetRulingAdaptive", 0, func(o Options) (Result, error) {
			o.ResidualBudget = (g.N() + 2*g.M()) / 200
			return DetRulingAdaptive(g, o)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log trace.Log
			res, err := tc.run(Options{Seed: 2, ChunkBits: 4, Tracer: &log})
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(g, res); err != nil {
				t.Fatal(err)
			}
			steps := map[string]int{}
			for i, ev := range log {
				if ev.Round != i+1 {
					t.Fatalf("event %d (%s) at round %d, want %d", i, ev.Step, ev.Round, i+1)
				}
				steps[ev.Step]++
			}
			if len(log) != res.Stats.Rounds {
				t.Fatalf("%d events, Stats.Rounds %d", len(log), res.Stats.Rounds)
			}
			type count struct {
				step string
				n    int
			}
			want := []count{{"maxdeg", 1}, {"beta/view", tc.beta - 2}}
			if tc.beta == 0 {
				if res.Beta < 3 {
					t.Fatalf("adaptive chose beta %d; the budget should force two levels", res.Beta)
				}
				want = []count{{"maxdeg", 0}, {"adaptive/size", res.Beta}, {"adaptive/view", res.Beta - 1}}
			}
			for _, w := range want {
				if steps[w.step] != w.n {
					t.Errorf("%d %s events, want %d", steps[w.step], w.step, w.n)
				}
			}
		})
	}
}

// TestCliqueTraceByteDeterminism covers the congested-clique simulator end of
// the same contract.
func TestCliqueTraceByteDeterminism(t *testing.T) {
	g := gen.MustBuild("gnp:n=200,p=0.03", 23)
	algos := []struct {
		name string
		run  func(*graph.Graph, Options) (Result, error)
	}{
		{name: "CliqueRandRuling2", run: CliqueRandRuling2},
		{name: "CliqueDetRuling2", run: CliqueDetRuling2},
	}
	for _, a := range algos {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			render := func() string {
				var buf bytes.Buffer
				tr := trace.NewJSONL(&buf)
				if _, err := a.run(g, Options{Seed: 5, Tracer: tr}); err != nil {
					t.Fatal(err)
				}
				if err := tr.Close(); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			first := render()
			if first == "" {
				t.Fatal("empty trace")
			}
			if second := render(); second != first {
				t.Fatal("traces of identical runs differ byte-for-byte")
			}
			for _, span := range []string{`"span":"sparsify"`, `"span":"gather"`} {
				if !strings.Contains(first, span) {
					t.Errorf("trace missing %s", span)
				}
			}
		})
	}
}

// TestViewCarriedAcrossPhases pins the marking loops' view exchange: a
// fresh loop marks its first phase on the graph's own rows, so no view
// round runs before the loop's first dominate (Luby: knockout) round, and
// each later phase refreshes the view once, so a loop of k phases runs
// k − 1 view rounds and k dominate rounds.
//
// In MPC each view round must also take the direction its counts pick and
// cost exactly that direction's words. The MPC runs checkpoint every round
// into memory, so the test reads the active set and the joined or
// candidate set each view round starts from, and those of the last view
// round (the full set before the first): when more than half of the last
// set survives, the knocked-out vertices that did not join announce
// themselves, and otherwise the survivors do, each once per machine that
// owns one of its active neighbours in the last set.
func TestViewCarriedAcrossPhases(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.03", 19)
	cases := []struct {
		name, view, dominate string
		mpc                  bool
		run                  func(o Options) ([]PhaseStat, error)
	}{
		{"LubyMIS", "luby/view", "luby/knockout", true, func(o Options) ([]PhaseStat, error) {
			r, err := LubyMIS(g, o)
			return r.Phases, err
		}},
		{"DetRuling2", "sparsify/view", "sparsify/dominate", true, func(o Options) ([]PhaseStat, error) {
			r, err := DetRuling2(g, o)
			return r.Phases, err
		}},
		{"CliqueDetRuling2", "view", "dominate", false, func(o Options) ([]PhaseStat, error) {
			r, err := CliqueDetRuling2(g, o)
			return r.Phases, err
		}},
	}
	directions := map[bool]int{} // MPC view rounds by whether departures announced
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ring := trace.NewRing(1 << 16)
			o := Options{Seed: 3, Tracer: ring}
			sink := &memSink{}
			if tc.mpc {
				o.CheckpointEvery, o.CheckpointSink = 1, sink
			}
			phases, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(phases) < 2 {
				t.Fatalf("%d phases: the graph does not exercise a refresh", len(phases))
			}
			views, dominates := 0, 0
			lastRound := 0 // the last view round; 0 before the first phase
			for _, ev := range ring.Events() {
				switch ev.Step {
				case tc.view:
					if dominates == 0 {
						t.Fatalf("round %d: %s runs before the first %s", ev.Round, tc.view, tc.dominate)
					}
					if tc.mpc {
						ps := phases[views]
						departures := 2*ps.ActiveAfter > ps.ActiveBefore
						directions[departures]++
						checkViewRound(t, g, sink, lastRound, ev, ps, departures)
						lastRound = ev.Round
					}
					views++
				case tc.dominate:
					dominates++
				}
			}
			if views != len(phases)-1 || dominates != len(phases) {
				t.Fatalf("%d phases ran %d %s and %d %s rounds, want %d and %d",
					len(phases), views, tc.view, dominates, tc.dominate, len(phases)-1, len(phases))
			}
		})
	}
	if directions[true] == 0 || directions[false] == 0 {
		t.Fatalf("the MPC view rounds took one direction only (%d departures, %d survivors announcing)", directions[true], directions[false])
	}
}

// checkViewRound checks one MPC view round against the checkpoints taken
// before the last view round (lastRound; the full set before the first
// phase when it is 0) and before this one: the active counts must be ps's,
// and the round must carry exactly the words of the direction departures
// names.
func checkViewRound(t *testing.T, g *graph.Graph, sink *memSink, lastRound int, ev trace.Event, ps PhaseStat, departures bool) {
	t.Helper()
	prev, prevJoined := bitset.New(g.N()), bitset.New(g.N())
	prev.Fill()
	if lastRound > 0 {
		prev, prevJoined = snapshotSets(t, g.N(), sink, lastRound-1)
	}
	active, joined := snapshotSets(t, g.N(), sink, ev.Round-1)
	if prev.Count() != ps.ActiveBefore || active.Count() != ps.ActiveAfter {
		t.Fatalf("round %d: checkpoints hold %d then %d active vertices, phase stats %d then %d",
			ev.Round, prev.Count(), active.Count(), ps.ActiveBefore, ps.ActiveAfter)
	}
	announce := active
	if departures {
		// The knocked-out vertices: the ones that left without joining.
		announce = prev.Clone()
		announce.Subtract(active)
		joined.Subtract(prevJoined)
		announce.Subtract(joined)
	}
	c, err := mpc.NewCluster(mpc.Config{Machines: len(sink.states[ev.Round-1])}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	announce.ForEach(func(u int) bool {
		owners := map[int]bool{}
		for _, v := range g.Neighbors(u) {
			if prev.Contains(int(v)) {
				owners[c.Owner(int(v))] = true
			}
		}
		want += len(owners)
		return true
	})
	if ev.Words != want {
		t.Fatalf("round %d (%d of %d active survive, departures announce: %v): %d words, want %d",
			ev.Round, ps.ActiveAfter, ps.ActiveBefore, departures, ev.Words, want)
	}
}

// snapshotSets decodes the driver's two checkpointed sets (active, then
// joined or candidates) as they stood after round.
func snapshotSets(t *testing.T, n int, sink *memSink, round int) (*bitset.Set, *bitset.Set) {
	t.Helper()
	state, ok := sink.states[round]
	if !ok {
		t.Fatalf("no checkpoint after round %d", round)
	}
	c, err := mpc.NewCluster(mpc.Config{Machines: len(state)}, n)
	if err != nil {
		t.Fatal(err)
	}
	sets := []*bitset.Set{bitset.New(n), bitset.New(n)}
	for m, words := range state {
		lo, hi := c.Range(m)
		per := (hi - lo + 63) / 64
		for i, s := range sets {
			s.UnpackRange(lo, hi, words[i*per:(i+1)*per])
		}
	}
	return sets[0], sets[1]
}

// TestLubyRoundPattern pins what each Luby iteration sends. Randomized Luby
// runs no luby/degrees or luby/maxdeg round: its luby/rivals round carries
// one degree per marked–marked edge end, and its luby/resolve round, the
// iteration's view refreshed to the marks, one id per (marked v, distinct
// owner of v's active neighbours), with owner(u) = u / ⌈n/M⌉ on the default
// M machines. A sequential replay of the same marks counts both.
// DetLubyMIS, whose estimator reads every neighbour's degree, still runs
// luby/degrees and the one-round luby/maxdeg all-reduce every iteration,
// and no luby/resolve or luby/rivals round: it reads its marked rivals
// from the fixed seed and its luby/degrees rows.
func TestLubyRoundPattern(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.03", 19)
	const seed = 3
	defaults, err := Options{}.withDefaults(g.N())
	if err != nil {
		t.Fatal(err)
	}
	machines := defaults.Machines
	per := (g.N() + machines - 1) / machines // ⌈n/M⌉

	// The replay: same marking draws, same (degree, id) rule.
	var resolveWords, rivalWords []int
	var members []int32
	rng := rand.New(rand.NewSource(seed))
	active := make([]bool, g.N())
	for v := range active {
		active[v] = true
	}
	deg := make([]int, g.N())
	for remaining := g.N(); remaining > 0; {
		for v := range deg {
			deg[v] = 0
			if active[v] {
				for _, u := range g.Neighbors(v) {
					if active[u] {
						deg[v]++
					}
				}
			}
		}
		marked := make([]bool, g.N())
		for v, a := range active {
			if a && deg[v] > 0 && rng.Float64() < math.Ldexp(1, -lubyJ(deg[v])) {
				marked[v] = true
			}
		}
		var joiners []int
		resolved, rivals := 0, 0
		for v := range active {
			if !active[v] || (deg[v] > 0 && !marked[v]) {
				continue
			}
			wins := true
			owners := map[int]bool{}
			for _, u := range g.Neighbors(v) {
				if !active[u] {
					continue
				}
				if marked[v] {
					owners[int(u)/per] = true
				}
				if marked[u] {
					rivals++
					if deg[u] > deg[v] || (deg[u] == deg[v] && int(u) > v) {
						wins = false
					}
				}
			}
			resolved += len(owners)
			if wins {
				joiners = append(joiners, v)
			}
		}
		resolveWords = append(resolveWords, resolved)
		rivalWords = append(rivalWords, rivals)
		for _, v := range joiners {
			members = append(members, int32(v))
			active[v] = false
			for _, u := range g.Neighbors(v) {
				active[u] = false
			}
		}
		remaining = 0
		for _, a := range active {
			if a {
				remaining++
			}
		}
	}
	slices.Sort(members)

	ring := trace.NewRing(1 << 16)
	res, err := LubyMIS(g, Options{Seed: seed, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Members, members) {
		t.Fatalf("LubyMIS members differ from the sequential replay's")
	}
	if len(res.Phases) != len(rivalWords) || len(rivalWords) < 2 {
		t.Fatalf("%d iterations, the replay ran %d", len(res.Phases), len(rivalWords))
	}
	var gotResolve, gotRivals []int
	for _, ev := range ring.Events() {
		switch {
		case ev.Step == "luby/resolve":
			gotResolve = append(gotResolve, ev.Words)
		case ev.Step == "luby/rivals":
			gotRivals = append(gotRivals, ev.Words)
		case ev.Step == "luby/degrees", strings.HasPrefix(ev.Step, "luby/maxdeg"):
			t.Fatalf("round %d: LubyMIS runs %s", ev.Round, ev.Step)
		}
	}
	if !slices.Equal(gotResolve, resolveWords) {
		t.Errorf("luby/resolve words %v, want one per (marked vertex, distinct owner of its active neighbours): %v", gotResolve, resolveWords)
	}
	if !slices.Equal(gotRivals, rivalWords) {
		t.Errorf("luby/rivals words %v, want one per marked–marked edge end: %v", gotRivals, rivalWords)
	}

	ring = trace.NewRing(1 << 16)
	det, err := DetLubyMIS(g, Options{Seed: seed, Tracer: ring})
	if err != nil {
		t.Fatal(err)
	}
	degrees, maxdeg := 0, 0
	for _, ev := range ring.Events() {
		switch ev.Step {
		case "luby/degrees":
			degrees++
		case "luby/maxdeg":
			maxdeg++
		case "luby/resolve", "luby/rivals":
			t.Fatalf("round %d: DetLubyMIS runs %s", ev.Round, ev.Step)
		}
	}
	if k := len(det.Phases); degrees != k || maxdeg != k {
		t.Fatalf("%d iterations ran %d luby/degrees and %d luby/maxdeg rounds", k, degrees, maxdeg)
	}
}
