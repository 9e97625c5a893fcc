package rulingset

import (
	"reflect"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
)

func TestAdaptiveHugeBudgetIsExactMIS(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.02", 31)
	for _, det := range []bool{false, true} {
		run := RandRulingAdaptive
		if det {
			run = DetRulingAdaptive
		}
		res, err := run(g, Options{ResidualBudget: 1 << 30, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Beta != 1 {
			t.Fatalf("det=%v: huge budget chose beta %d, want 1 (exact MIS)", det, res.Beta)
		}
		if err := Check(g, res); err != nil {
			t.Fatal(err)
		}
		if res.ResidualN != g.N() {
			t.Fatalf("det=%v: residual n = %d, want the whole graph", det, res.ResidualN)
		}
	}
}

func TestAdaptiveBetaGrowsAsBudgetShrinks(t *testing.T) {
	g := gen.MustBuild("gnp:n=2000,p=0.008", 32)
	inputWords := g.N() + 2*g.M()
	budgets := []int{inputWords * 2, inputWords / 4, inputWords / 40}
	prevBeta := 0
	for _, budget := range budgets {
		res, err := DetRulingAdaptive(g, Options{ResidualBudget: budget, ChunkBits: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(g, res); err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		if res.Beta < prevBeta {
			t.Fatalf("budget=%d: beta %d decreased below %d as budget shrank", budget, res.Beta, prevBeta)
		}
		// The fit criterion must actually hold for the shipped instance.
		if got := res.ResidualN + 2*res.ResidualM; got > budget && res.Beta <= _maxAdaptiveLevels {
			t.Fatalf("budget=%d: shipped %d words", budget, got)
		}
		prevBeta = res.Beta
	}
	if prevBeta < 2 {
		t.Fatalf("smallest budget still solved at beta %d; test graph too small", prevBeta)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	g := gen.MustBuild("powerlaw:n=800,gamma=2.5,avg=8", 33)
	budget := (g.N() + 2*g.M()) / 8
	a, err := DetRulingAdaptive(g, Options{ResidualBudget: budget, ChunkBits: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DetRulingAdaptive(g, Options{ResidualBudget: budget, ChunkBits: 4, Seed: 99, Machines: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members, b.Members) || a.Beta != b.Beta {
		t.Fatal("adaptive deterministic run varied with seed/machines")
	}
}

func TestAdaptiveDefaultBudgetIsClusterS(t *testing.T) {
	// With the default linear-regime budget S = 4n >= n + 2m on a sparse
	// graph, the adaptive algorithm should solve immediately (beta 1).
	g := gen.MustBuild("gnp:n=500,p=0.002", 34)
	if g.N()+2*g.M() > 4*g.N() {
		t.Skip("workload denser than expected")
	}
	res, err := DetRulingAdaptive(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Beta != 1 {
		t.Fatalf("beta = %d, want 1", res.Beta)
	}
	if err := Check(g, res); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveStallForcesSolve(t *testing.T) {
	// An edgeless graph never fits the unreachable budget, and its
	// candidate set is the whole graph after any level: every vertex
	// either joins or stays active and is absorbed. The stall detector must
	// force the solve on the next level (β = 2) instead of recursing to the
	// level cap.
	g := graph.MustNew(300, nil)
	res, err := DetRulingAdaptive(g, Options{ResidualBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, res); err != nil {
		t.Fatal(err)
	}
	if res.Beta != 2 {
		t.Fatalf("stall not detected on the first level: beta %d, want 2", res.Beta)
	}
}

func TestAdaptiveEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	res, err := DetRulingAdaptive(g, Options{})
	if err != nil || len(res.Members) != 0 {
		t.Fatalf("empty graph: %v %v", res.Members, err)
	}
}
