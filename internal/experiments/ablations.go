package experiments

import (
	"fmt"

	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/rulingset"
)

// The A-series experiments are ablations of the sparsification potential's
// design choices (DESIGN.md §3a): how the pessimistic estimator's cap and
// cost weight shape the phases.

// A2BenefitCap varies the Bonferroni neighborhood cap of the sparsification
// estimator. The cap controls the estimator's *guaranteed* progress: each
// neighbor added to N'(v) (up to ⌊1/p⌋) raises the deactivation lower bound
// by p − p²·|N'| > 0, so the phase-1 potential E[Φ] = α·E[cost] − E[benefit]
// decreases monotonically in the cap, bottoming out at the analysis-dictated
// ⌊1/p⌋. (Realized survivor counts are similar across caps on benign random
// workloads — concentration helps even a blinded estimator — which is
// exactly why the guarantee, not the average case, is the quantity to
// ablate.)
func A2BenefitCap(cfg Config) (Report, error) {
	n := 2048
	if cfg.Quick {
		n = 512
	}
	g := mustGNP(n, 16, cfg.Seed)
	table := metrics.NewTable("A2: estimator neighborhood cap (DetRuling2, z=4)",
		"cap", "phase-1 E[Φ] (lower is stronger)", "survivors after phases", "residual m", "members")
	var initials []float64
	caps := []int{1, 2, 8, 0} // 0 = the full ⌊1/p⌋
	for _, benefitCap := range caps {
		res, err := rulingset.DetRuling2(g, rulingset.Options{BenefitCap: benefitCap, ChunkBits: 4})
		if err != nil {
			return Report{}, err
		}
		if err := rulingset.Check(g, res); err != nil {
			return Report{}, fmt.Errorf("cap=%d: %w", benefitCap, err)
		}
		last := res.Phases[len(res.Phases)-1]
		label := fmt.Sprint(benefitCap)
		if benefitCap == 0 {
			label = "1/p (paper)"
		}
		table.AddRow(label, res.Phases[0].EstimatorInitial, last.ActiveAfter, res.ResidualM, len(res.Members))
		initials = append(initials, res.Phases[0].EstimatorInitial)
	}
	monotone := true
	for i := 1; i < len(initials); i++ {
		if initials[i] > initials[i-1] {
			monotone = false
		}
	}
	return Report{
		ID:     "A2",
		Title:  "ablation: estimator neighborhood cap",
		Tables: []*metrics.Table{table},
		Notes: []string{fmt.Sprintf(
			"shape: guaranteed phase-1 potential strengthens monotonically with the cap: %v", monotone)},
	}, nil
}

// A3AlphaWeight varies the cost weight α of Φ = α·cost − benefit. Predicted
// shape: larger α suppresses candidate-internal edges (the seed avoids
// marked-adjacent pairs harder) at the price of weaker deactivation; very
// small α buys kills but lets the candidate graph grow.
func A3AlphaWeight(cfg Config) (Report, error) {
	n := 2048
	if cfg.Quick {
		n = 512
	}
	g := mustGNP(n, 16, cfg.Seed)
	table := metrics.NewTable("A3: estimator cost weight α (DetRuling2, z=4)",
		"alpha", "cand edges total", "survivors after phases", "residual m", "members")
	var candAt []int
	alphas := []float64{0.5, 1, 2, 4, 8}
	for _, alpha := range alphas {
		res, err := rulingset.DetRuling2(g, rulingset.Options{EstimatorAlpha: alpha, ChunkBits: 4})
		if err != nil {
			return Report{}, err
		}
		if err := rulingset.Check(g, res); err != nil {
			return Report{}, fmt.Errorf("alpha=%v: %w", alpha, err)
		}
		cand := 0
		for _, ps := range res.Phases {
			cand += ps.CandidateEdges
		}
		last := res.Phases[len(res.Phases)-1]
		table.AddRow(alpha, cand, last.ActiveAfter, res.ResidualM, len(res.Members))
		candAt = append(candAt, cand)
	}
	return Report{
		ID:     "A3",
		Title:  "ablation: estimator cost weight",
		Tables: []*metrics.Table{table},
		Notes: []string{fmt.Sprintf(
			"shape: heaviest cost weight yields no more candidate edges than the lightest: %v",
			candAt[len(candAt)-1] <= candAt[0])},
	}, nil
}
