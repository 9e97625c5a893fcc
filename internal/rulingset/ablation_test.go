package rulingset

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
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
// of a power of two, so α must be a power of two too; any other α, on either
// model, is an error that names it.
func TestEstimatorAlphaRejectsNonDyadic(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.02", 15)
	for _, alpha := range []float64{1.3, 0.7, 3, -2, math.Inf(1), math.NaN()} {
		for _, solve := range []func(*graph.Graph, Options) (Result, error){DetRuling2, CliqueDetRuling2} {
			_, err := solve(g, Options{EstimatorAlpha: alpha, ChunkBits: 4})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(alpha)) {
				t.Errorf("α=%v: err = %v, want a rejection naming α", alpha, err)
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
