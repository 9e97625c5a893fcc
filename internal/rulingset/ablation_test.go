package rulingset

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/trace"
)

func TestEstimatorAlphaVariants(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.02", 15)
	for _, alpha := range []float64{0.5, 1, 2, 8} {
		res, err := DetRuling2(g, Options{EstimatorAlpha: alpha, ChunkBits: 4})
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if err := Check(g, res); err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
	}
}

// TestEstimatorAlphaRejectsNonDyadic: the estimator scores in integer units
// of a power of two, so α must be a power of two too. Any other α is an
// error that names it from every driver, randomized ones and both models
// included, before any round runs: no trace event, no committed round.
func TestEstimatorAlphaRejectsNonDyadic(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.02", 15)
	type driver struct {
		name  string
		solve func(*graph.Graph, Options) (Result, error)
	}
	drivers := []driver{{"RandRulingAdaptive", RandRulingAdaptive}, {"DetRulingAdaptive", DetRulingAdaptive}}
	for _, a := range Algorithms {
		drivers = append(drivers, driver{a.Title, func(g *graph.Graph, o Options) (Result, error) { return a.Run(g, 3, o) }})
	}
	for _, name := range []string{"RandRuling2", "CliqueRandRuling2", "DetRuling2", "CliqueDetRuling2"} {
		if !slices.ContainsFunc(drivers, func(d driver) bool { return d.name == name }) {
			t.Fatalf("driver %s is not in the Algorithms table", name)
		}
	}
	for _, alpha := range []float64{1.3, 0.7, 3, -2, math.Inf(1), math.NaN()} {
		for _, d := range drivers {
			name := d.name
			ring := trace.NewRing(1)
			res, err := d.solve(g, Options{EstimatorAlpha: alpha, ChunkBits: 4, Tracer: ring})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(alpha)) {
				t.Errorf("%s α=%v: err = %v, want a rejection naming α", name, alpha, err)
			}
			if ring.Total() != 0 || res.Stats.Rounds != 0 {
				t.Errorf("%s α=%v: %d trace events and %d rounds before the rejection, want none", name, alpha, ring.Total(), res.Stats.Rounds)
			}
		}
	}
}

func TestBenefitCapVariants(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.03", 16)
	for _, cap := range []int{1, 2, 8, 64} {
		res, err := DetRuling2(g, Options{BenefitCap: cap, ChunkBits: 4})
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if err := Check(g, res); err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
	}
}
