package experiments

import (
	"fmt"

	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/rulingset"
)

// T8CliqueVsMPC compares the congested-clique implementation against the MPC
// simulator on the same graph and schedule. Predicted shape: both run the
// identical Θ(log log Δ) phases, but the clique's scatter-aggregate makes a
// conditional-expectation chunk O(1) rounds for any width up to log₂ n — so
// deterministic clique rounds *fall* as z grows with no bandwidth cliff,
// while the MPC gather's payload grows like 2^z per machine until it blows
// the budget (the T3 cliff).
func T8CliqueVsMPC(cfg Config) (Report, error) {
	n := 2048
	if cfg.Quick {
		n = 512
	}
	g := mustGNP(n, 12, cfg.Seed)
	table := metrics.NewTable("T8: congested clique vs MPC (DetRuling2)",
		"z", "clique rounds", "clique violations", "mpc rounds", "mpc peak recv", "phases")
	clDet, err := rulingset.LookupAlgorithm("cliquedet2")
	if err != nil {
		return Report{}, err
	}
	clRand, err := rulingset.LookupAlgorithm("clique2")
	if err != nil {
		return Report{}, err
	}
	var cliqueRounds []int
	cliffless := true
	for _, z := range []int{2, 4, 8} {
		cl, err := clDet.Run(g, 0, rulingset.Options{ChunkBits: z})
		if err != nil {
			return Report{}, err
		}
		if !rulingset.IsRulingSet(g, cl.Members, 2) {
			return Report{}, fmt.Errorf("clique output invalid at z=%d", z)
		}
		mp, err := rulingset.DetRuling2(g, rulingset.Options{ChunkBits: z})
		if err != nil {
			return Report{}, err
		}
		table.AddRow(z, cl.Stats.Rounds, len(cl.Stats.Violations), mp.Stats.Rounds, mp.Stats.PeakRecv, len(cl.Phases))
		cliqueRounds = append(cliqueRounds, cl.Stats.Rounds)
		if len(cl.Stats.Violations) != 0 {
			cliffless = false
		}
	}
	monotone := true
	for i := 1; i < len(cliqueRounds); i++ {
		if cliqueRounds[i] > cliqueRounds[i-1] {
			monotone = false
		}
	}
	// Baseline comparison: the randomized algorithm costs about the same in
	// both models (no seed search to pay for).
	clRandRes, err := clRand.Run(g, 0, rulingset.Options{Seed: cfg.Seed})
	if err != nil {
		return Report{}, err
	}
	mpRand, err := rulingset.RandRuling2(g, rulingset.Options{Seed: cfg.Seed})
	if err != nil {
		return Report{}, err
	}
	return Report{
		ID:     "T8",
		Title:  "congested clique vs MPC",
		Tables: []*metrics.Table{table},
		Notes: []string{
			fmt.Sprintf("shape: clique deterministic rounds non-increasing in z with zero bandwidth violations (O(1)-round chunks): %v", monotone && cliffless),
			fmt.Sprintf("randomized baseline: clique %d rounds vs MPC %d rounds (both Θ(log log Δ) phases)",
				clRandRes.Stats.Rounds, mpRand.Stats.Rounds),
		},
	}, nil
}
