package experiments

import (
	"fmt"
	"reflect"

	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
)

// R1FaultRecovery measures the fault-injection layer (EXPERIMENTS.md R1).
// Predicted shape, in two parts:
//
//  1. Output invariance: because every injected crash is recovered at the
//     superstep barrier, each algorithm's ruling set under a pinned crash
//     schedule is bit-identical to its fault-free run — the paper's
//     determinism claim surviving adverse execution. Core rounds/words are
//     likewise unchanged; only the recovery fields of Stats grow.
//
//  2. Overhead linearity: with one pinned crash per superstep and no
//     checkpoint replay, each crash costs exactly one re-executed superstep,
//     so RecoveryRounds grows linearly (slope 1) in the crash count.
func R1FaultRecovery(cfg Config) (Report, error) {
	n := 2048
	if cfg.Quick {
		n = 512
	}
	g := mustGNP(n, 12, cfg.Seed)
	plan := &mpc.FaultPlan{
		Seed:    cfg.Seed + 1,
		Crashes: []mpc.FaultEvent{{Round: 1, Machine: 0}, {Round: 3, Machine: 2}},
	}

	invariance := metrics.NewTable(
		fmt.Sprintf("R1: output invariance under %s (G(n=%d), 8 machines, checkpoint every 4)", plan, n),
		"algorithm", "identical output", "rounds", "recovered crashes", "recovery rounds", "replayed words")
	allIdentical := true
	for _, a := range mpcDrivers {
		base, err := a.Run(g, 0, rulingset.Options{Seed: cfg.Seed, ChunkBits: 4})
		if err != nil {
			return Report{}, err
		}
		faulty, err := a.Run(g, 0, rulingset.Options{
			Seed: cfg.Seed, ChunkBits: 4, Faults: plan, CheckpointEvery: 4,
		})
		if err != nil {
			return Report{}, err
		}
		identical := reflect.DeepEqual(base.Members, faulty.Members) &&
			base.Stats.Rounds == faulty.Stats.Rounds &&
			base.Stats.Words == faulty.Stats.Words
		allIdentical = allIdentical && identical
		invariance.AddRow(a.Title, identical, faulty.Stats.Rounds, faulty.Stats.RecoveredCrashes,
			faulty.Stats.RecoveryRounds, faulty.Stats.ReplayedWords)
	}

	// The clique implementation rides the same plan (node crashes re-execute
	// the round from the barrier).
	cliqueBase, err := rulingset.CliqueDetRuling2(g, rulingset.Options{ChunkBits: 4})
	if err != nil {
		return Report{}, err
	}
	cliqueFaulty, err := rulingset.CliqueDetRuling2(g, rulingset.Options{ChunkBits: 4, Faults: plan})
	if err != nil {
		return Report{}, err
	}
	cliqueIdentical := reflect.DeepEqual(cliqueBase.Members, cliqueFaulty.Members) &&
		cliqueBase.Stats.Rounds == cliqueFaulty.Stats.Rounds
	allIdentical = allIdentical && cliqueIdentical
	invariance.AddRow("CliqueDetRuling2", cliqueIdentical, cliqueFaulty.Stats.Rounds,
		cliqueFaulty.Stats.RecoveredCrashes, cliqueFaulty.Stats.RecoveryRounds,
		cliqueFaulty.Stats.ReplayedWords)

	// Overhead sweep: k pinned crashes at distinct supersteps, no checkpoint
	// replay → RecoveryRounds should equal k exactly.
	crashCounts := []int{0, 2, 4, 8, 16}
	overhead := metrics.NewTable("R1: recovery overhead vs crash count (DetRuling2, z=4)",
		"crashes", "recovery rounds", "replayed words", "rounds", "identical output")
	var series metrics.Series
	series.Name = "recovery rounds"
	linear := true
	var reference []int32
	for _, k := range crashCounts {
		var kp *mpc.FaultPlan
		if k > 0 {
			kp = &mpc.FaultPlan{Seed: cfg.Seed}
			for i := 0; i < k; i++ {
				kp.Crashes = append(kp.Crashes, mpc.FaultEvent{Round: i + 1, Machine: i % 8})
			}
		}
		res, err := rulingset.DetRuling2(g, rulingset.Options{ChunkBits: 4, Faults: kp})
		if err != nil {
			return Report{}, err
		}
		if reference == nil {
			reference = res.Members
		}
		identical := reflect.DeepEqual(reference, res.Members)
		allIdentical = allIdentical && identical
		if res.Stats.RecoveryRounds != k {
			linear = false
		}
		overhead.AddRow(k, res.Stats.RecoveryRounds, res.Stats.ReplayedWords, res.Stats.Rounds, identical)
		series.X = append(series.X, float64(k))
		series.Y = append(series.Y, float64(res.Stats.RecoveryRounds))
	}

	return Report{
		ID:      "R1",
		Title:   "fault injection and superstep recovery",
		Tables:  []*metrics.Table{invariance, overhead},
		Figures: []Figure{{Title: "R1: recovery rounds vs crash count", Series: []metrics.Series{series}}},
		Notes: []string{
			fmt.Sprintf("shape: every algorithm's output bit-identical under faults: %v", allIdentical),
			fmt.Sprintf("shape: recovery rounds == crash count (linear, slope 1): %v", linear),
		},
	}, nil
}
