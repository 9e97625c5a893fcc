package rulingset

import (
	"testing"

	"github.com/rulingset/mprs/internal/gen"
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
