package rulingset

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
)

func TestCliqueRuling2Valid(t *testing.T) {
	workloads := map[string]*graph.Graph{
		"gnp":      gen.MustBuild("gnp:n=400,p=0.02", 23),
		"powerlaw": gen.MustBuild("powerlaw:n=400,gamma=2.5,avg=6", 24),
		"grid":     gen.MustBuild("grid:rows=16,cols=16", 0),
		"star":     gen.MustBuild("star:n=120", 0),
		"path1":    gen.MustBuild("path:n=1", 0),
		"edgeless": graph.MustNew(30, nil),
	}
	for _, name := range sortedNames(workloads) {
		g := workloads[name]
		for _, det := range []bool{false, true} {
			label := name + "/rand"
			run := CliqueRandRuling2
			if det {
				label = name + "/det"
				run = CliqueDetRuling2
			}
			t.Run(label, func(t *testing.T) {
				res, err := run(g, Options{Seed: 3, ChunkBits: 4})
				if err != nil {
					t.Fatal(err)
				}
				if !IsRulingSet(g, res.Members, 2) {
					t.Fatal("output is not a 2-ruling set")
				}
				if res.Beta != 2 {
					t.Fatalf("beta = %d", res.Beta)
				}
			})
		}
	}
}

func TestCliqueEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	res, err := CliqueDetRuling2(g, Options{})
	if err != nil || len(res.Members) != 0 {
		t.Fatalf("empty graph: %v %v", res.Members, err)
	}
}

func TestCliqueDetDeterministic(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.03", 25)
	a, err := CliqueDetRuling2(g, Options{Seed: 1, ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CliqueDetRuling2(g, Options{Seed: 777, ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members, b.Members) {
		t.Fatal("clique deterministic algorithm varied with seed")
	}
}

// TestCliqueChunkRoundsConstant verifies the congested clique's headline
// collective property: a conditional-expectation chunk costs O(1) rounds (3:
// scatter, collect, broadcast) regardless of chunk width, so doubling z
// roughly halves the deterministic round count instead of trading bandwidth.
func TestCliqueChunkRoundsConstant(t *testing.T) {
	g := gen.MustBuild("gnp:n=512,p=0.02", 26)
	r2, err := CliqueDetRuling2(g, Options{ChunkBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := CliqueDetRuling2(g, Options{ChunkBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Stats.Rounds >= r2.Stats.Rounds {
		t.Fatalf("z=8 used %d rounds, z=2 used %d — wider chunks must be cheaper in the clique",
			r8.Stats.Rounds, r2.Stats.Rounds)
	}
	// No bandwidth violations at either width: the scatter spreads the 2^z
	// evaluations across aggregators.
	if len(r8.Stats.Violations) != 0 {
		t.Fatalf("violations at z=8: %v", r8.Stats.Violations[0])
	}
}

// TestCliqueNoBandwidthViolations: the whole algorithm respects the
// one-word-per-pair budget (the residual stage uses Lenzen routing).
func TestCliqueNoBandwidthViolations(t *testing.T) {
	g := gen.MustBuild("gnp:n=600,p=0.01", 27)
	for _, det := range []bool{false, true} {
		run := CliqueRandRuling2
		if det {
			run = CliqueDetRuling2
		}
		res, err := run(g, Options{Seed: 5, ChunkBits: 4, Strict: true})
		if err != nil {
			t.Fatalf("det=%v: %v", det, err)
		}
		if len(res.Stats.Violations) != 0 {
			t.Fatalf("det=%v: %v", det, res.Stats.Violations[0])
		}
	}
}

// TestCliqueGuarantee: the conditional-expectation certainty holds in the
// clique implementation too.
func TestCliqueGuarantee(t *testing.T) {
	g := gen.MustBuild("gnp:n=500,p=0.025", 28)
	res, err := CliqueDetRuling2(g, Options{ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range res.Phases {
		if ps.EstimatorFinal > ps.EstimatorInitial {
			t.Fatalf("phase %d: realized %v > expectation %v", ps.Phase, ps.EstimatorFinal, ps.EstimatorInitial)
		}
	}
}

// TestCliqueMatchesMPCPhases: the clique and MPC implementations run the
// same schedule, so their phase counts agree on the same graph.
func TestCliqueMatchesMPCPhases(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.03", 29)
	cliqueRes, err := CliqueDetRuling2(g, Options{ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	mpcRes, err := DetRuling2(g, Options{ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cliqueRes.Phases) != len(mpcRes.Phases) {
		t.Fatalf("phase counts differ: clique %d vs mpc %d", len(cliqueRes.Phases), len(mpcRes.Phases))
	}
}

// nopTransport accepts every exchange.
type nopTransport struct{}

func (nopTransport) Exchange(int, [][]mpc.Message) error { return nil }

// TestCliqueRejectsTransport checks that the clique drivers refuse a
// multi-process transport instead of running without it.
func TestCliqueRejectsTransport(t *testing.T) {
	g := gen.MustBuild("gnp:n=100,p=0.05", 1)
	if _, err := CliqueDetRuling2(g, Options{Transport: nopTransport{}}); !errors.Is(err, errCliqueTransport) {
		t.Fatalf("err = %v, want errCliqueTransport", err)
	}
}

// TestCliqueMaxPhases checks that the clique drivers honor Options.MaxPhases
// like the MPC drivers do.
func TestCliqueMaxPhases(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.05", 2)
	full, err := CliqueDetRuling2(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Phases) < 2 {
		t.Fatalf("only %d phases; the cap check needs at least two", len(full.Phases))
	}
	for _, run := range []func(*graph.Graph, Options) (Result, error){CliqueRandRuling2, CliqueDetRuling2} {
		if _, err := run(g, Options{MaxPhases: 1}); err == nil || !strings.Contains(err.Error(), "phase cap 1") {
			t.Errorf("MaxPhases 1: err = %v, want the phase cap error", err)
		}
	}
}
