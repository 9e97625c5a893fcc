package rulingset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/trace"
)

// goldenFile holds the pinned sha256 digests of the oracle outputs (members,
// canonical Stats, JSONL trace bytes, persisted checkpoint bytes). Unlike the
// equivalence matrix, which compares two runs of the same binary, these
// digests pin engine output across commits: a refactor that keeps the oracle
// leaves the file untouched. UPDATE_GOLDEN=1 rewrites it after an intentional
// change.
const goldenFile = "testdata/oracle_digests.golden"

// goldenRun executes one configuration of a and returns the members, the
// canonical Stats as JSON, the JSONL trace bytes and the per-phase records
// (estimator trajectory included) as JSON.
func goldenRun(t *testing.T, a algo, g *graph.Graph, o Options) (members []int32, stats, tr, phases []byte) {
	t.Helper()
	var buf bytes.Buffer
	jl := trace.NewJSONL(&buf)
	o.Tracer = jl
	res, err := a.run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err = json.Marshal(res.Stats.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	phases, err = json.Marshal(res.Phases)
	if err != nil {
		t.Fatal(err)
	}
	return res.Members, stats, buf.Bytes(), phases
}

// encodingSink records the exact bytes a durable checkpoint store writes for
// every persisted barrier, in persist order.
type encodingSink struct{ buf bytes.Buffer }

func (s *encodingSink) Persist(round int, state [][]uint64) (int64, error) {
	return durable.Encode(&s.buf, durable.Meta{Round: round, Fingerprint: "golden"}, state)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func membersBytes(members []int32) []byte {
	var b bytes.Buffer
	for _, v := range members {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.Bytes()
}

// TestOracleGolden pins members, canonical Stats, trace bytes and per-phase
// records (SeedSteps and the estimator's initial and final values) of every
// equivAlgorithms entry with and without faultTestPlan, the persisted
// checkpoint bytes of a checkpointed faulty run, and scripted clique and MPC
// runs that record budget violations (so their order and round stamps are
// pinned).
func TestOracleGolden(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	got := map[string]string{}
	record := func(name string, members []int32, stats, tr, phases []byte) {
		got[name+"/members"] = digest(membersBytes(members))
		got[name+"/stats"] = digest(stats)
		got[name+"/trace"] = digest(tr)
		got[name+"/phases"] = digest(phases)
	}
	for _, a := range equivAlgorithms() {
		for _, faulty := range []bool{false, true} {
			name := a.name
			opts := Options{Seed: 5}
			if faulty {
				name += "/faults"
				opts.Faults = faultTestPlan()
			}
			members, stats, tr, phases := goldenRun(t, a, g, opts)
			record(name, members, stats, tr, phases)
		}
	}

	// Durable checkpoint bytes of a checkpointed run under faults.
	sink := &encodingSink{}
	ck := algo{name: "DetRuling2", run: DetRuling2}
	members, stats, tr, phases := goldenRun(t, ck, g, Options{Seed: 5, Faults: faultTestPlan(), CheckpointEvery: 2, CheckpointSink: sink})
	if sink.buf.Len() == 0 {
		t.Fatal("checkpointed run persisted nothing")
	}
	record("DetRuling2/checkpointed", members, stats, tr, phases)
	got["DetRuling2/checkpointed/checkpoints"] = digest(sink.buf.Bytes())

	// The MPC budget runs: resident overflows at the power-law gather,
	// flushed in machine order by the MPC budget policy, and the star, which
	// records none since its residual members travel to their owners
	// instead of being broadcast to every machine.
	for _, v := range []struct {
		name, spec string
		violates   bool
	}{
		{"DetRuling2/violations-star", "star:n=256", false},
		{"DetRuling2/violations-powerlaw", "powerlaw:n=512,gamma=2.5,avg=8", true},
	} {
		vg := gen.MustBuild(v.spec, 1)
		opts := Options{Seed: 1, Machines: 8, ChunkBits: 4}
		members, stats, tr, phases := goldenRun(t, algo{name: "DetRuling2", run: DetRuling2}, vg, opts)
		if got := bytes.Contains(stats, []byte(`"Kind":`)); got != v.violates {
			t.Fatalf("%s recorded budget violations: %v, want %v", v.name, got, v.violates)
		}
		record(v.name, members, stats, tr, phases)
	}

	// The clique drivers stay within their budgets, so the clique budget
	// policy's violation kinds, order and round stamps are pinned on a
	// scripted cluster: pair overflows, a per-node receive overflow, and a
	// Lenzen-routed send overflow, under a fault plan and a tracer.
	stats, tr = cliqueViolationScript(t)
	if !bytes.Contains(stats, []byte(`"routed"`)) || !bytes.Contains(stats, []byte(`"pair"`)) || !bytes.Contains(stats, []byte(`"received"`)) {
		t.Fatalf("scripted clique run misses a violation kind: %s", stats)
	}
	got["clique-script/stats"] = digest(stats)
	got["clique-script/trace"] = digest(tr)

	// The MPC budget policy's send and receive kinds, which no driver run
	// above records, and in-step resident overflows flushed in machine order,
	// pinned the same way on a scripted cluster.
	stats, tr = mpcViolationScript(t)
	if !bytes.Contains(stats, []byte(`"send"`)) || !bytes.Contains(stats, []byte(`"recv"`)) || !bytes.Contains(stats, []byte(`"resident"`)) {
		t.Fatalf("scripted MPC run misses a violation kind: %s", stats)
	}
	got["mpc-script/stats"] = digest(stats)
	got["mpc-script/trace"] = digest(tr)

	checkGolden(t, got)
}

func checkGolden(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[k] = v
	}
	wantKeys := make([]string, 0, len(want))
	for k := range want {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	if !slices.Equal(keys, wantKeys) {
		t.Fatalf("golden cases drifted:\n got %v\nwant %v", keys, wantKeys)
	}
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %s, golden %s (UPDATE_GOLDEN=1 refreshes after intentional changes)", k, got[k], want[k])
		}
	}
}

// cliqueViolationScript runs a fixed sequence of clique steps that breach
// every clique budget and returns the Stats JSON and trace bytes.
func cliqueViolationScript(t *testing.T) (stats, tr []byte) {
	t.Helper()
	const n = 6
	var buf bytes.Buffer
	jl := trace.NewJSONL(&buf)
	plan := &mpc.FaultPlan{Seed: 3, Crashes: []mpc.FaultEvent{{Round: 2, Machine: 4}}}
	c, err := clique.NewCluster(clique.Config{PairWords: 1, Faults: plan, Tracer: jl}, n)
	if err != nil {
		t.Fatal(err)
	}
	c.Span("pairs")
	if err := c.Step("pairs", func(x clique.Ctx) {
		// Every node sends two words to its two successors: 2n pair
		// violations, reported destination by destination.
		for d := 1; d <= 2; d++ {
			x.Send((x.Machine+d)%n, uint64(x.Machine), uint64(d))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Step("fanin", func(x clique.Ctx) {
		// n+1 words into node 0: a receive overflow plus one doubled pair.
		x.Send(0, uint64(x.Machine))
		if x.Machine == 5 {
			x.Send(0, 9)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c.Span("route")
	if err := c.RouteStep("route", func(x clique.Ctx) {
		if x.Machine >= 2 {
			for i := 0; i < n+x.Machine; i++ {
				x.Send((x.Machine+i)%n, uint64(i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err = json.Marshal(c.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return stats, buf.Bytes()
}

// mpcViolationScript runs a fixed sequence of MPC steps that breach every
// per-machine budget (send, receive and resident memory) and returns the
// Stats JSON and trace bytes.
func mpcViolationScript(t *testing.T) (stats, tr []byte) {
	t.Helper()
	const machines = 4
	var buf bytes.Buffer
	jl := trace.NewJSONL(&buf)
	plan := &mpc.FaultPlan{Seed: 3, Crashes: []mpc.FaultEvent{{Round: 2, Machine: 1}}}
	c, err := mpc.NewCluster(mpc.Config{Machines: machines, Regime: mpc.RegimeExplicit, MemoryWords: 4, Faults: plan, Tracer: jl}, 16)
	if err != nil {
		t.Fatal(err)
	}
	c.Span("scatter")
	if err := c.Step("scatter", func(x mpc.Ctx) {
		// Machine 0 sends two words to each peer: six sent words, a send
		// overflow, while every peer receives only two.
		if x.Machine == 0 {
			for d := 1; d < machines; d++ {
				x.Send(d, uint64(d), uint64(2*d))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	c.Span("fanin")
	if err := c.Step("fanin", func(x mpc.Ctx) {
		// Every peer sends two words to machine 0: a receive overflow.
		if x.Machine > 0 {
			x.Send(0, uint64(x.Machine), 7)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c.Span("resident")
	if err := c.Step("resident", func(x mpc.Ctx) {
		// Machines 1 and 3 grow past the budget from inside the step; the
		// overflows are flushed in machine order at the barrier.
		if x.Machine%2 == 1 {
			if err := c.AddResident(x.Machine, 4+x.Machine); err != nil {
				panic(err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err = json.Marshal(c.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return stats, buf.Bytes()
}
