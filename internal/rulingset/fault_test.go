package rulingset

import (
	"errors"
	"reflect"
	"strconv"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
)

// faultTestPlan is a non-empty recoverable schedule: two pinned crashes early
// in the run (guaranteeing RecoveryRounds > 0 on every algorithm, all of
// which run well past two supersteps).
func faultTestPlan() *mpc.FaultPlan {
	return &mpc.FaultPlan{
		Seed:    11,
		Crashes: []mpc.FaultEvent{{Round: 1, Machine: 0}, {Round: 2, Machine: 1}},
	}
}

// TestFaultInvariance is the acceptance criterion of the fault layer: for
// every algorithm, a run under a non-empty recoverable FaultPlan returns the
// bit-identical ruling set of the fault-free run, with recovery recorded.
func TestFaultInvariance(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	for _, a := range allAlgorithms() {
		for _, ckpt := range []int{0, 2} {
			a, ckpt := a, ckpt
			name := a.name
			if ckpt > 0 {
				name += "/checkpointed"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				base, err := a.run(g, Options{Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				faulty, err := a.run(g, Options{Seed: 5, Faults: faultTestPlan(), CheckpointEvery: ckpt})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base.Members, faulty.Members) {
					t.Fatalf("members diverged under faults:\nbase   %v\nfaulty %v", base.Members, faulty.Members)
				}
				if base.Stats.Rounds != faulty.Stats.Rounds || base.Stats.Words != faulty.Stats.Words {
					t.Fatalf("core stats diverged: base rounds=%d words=%d, faulty rounds=%d words=%d",
						base.Stats.Rounds, base.Stats.Words, faulty.Stats.Rounds, faulty.Stats.Words)
				}
				if faulty.Stats.RecoveryRounds == 0 {
					t.Fatal("no recovery recorded under a plan with pinned crashes")
				}
				if faulty.Stats.RecoveredCrashes < 2 {
					t.Fatalf("RecoveredCrashes = %d, want >= 2", faulty.Stats.RecoveredCrashes)
				}
				if base.Stats.RecoveryRounds != 0 || base.Stats.RecoveredCrashes != 0 {
					t.Fatalf("fault-free run recorded recovery: %+v", base.Stats)
				}
				if ckpt > 0 && faulty.Stats.CheckpointWords == 0 {
					t.Fatal("checkpointing enabled but no checkpoint words charged")
				}
			})
		}
	}
}

// TestCliqueFaultInvariance mirrors TestFaultInvariance for the congested
// clique implementations.
func TestCliqueFaultInvariance(t *testing.T) {
	g := gen.MustBuild("gnp:n=150,p=0.04", 23)
	for _, tc := range []struct {
		name string
		run  func(*graph.Graph, Options) (Result, error)
	}{
		{"CliqueRandRuling2", CliqueRandRuling2},
		{"CliqueDetRuling2", CliqueDetRuling2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base, err := tc.run(g, Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			faulty, err := tc.run(g, Options{Seed: 5, Faults: faultTestPlan()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Members, faulty.Members) {
				t.Fatalf("members diverged under faults:\nbase   %v\nfaulty %v", base.Members, faulty.Members)
			}
			if base.Stats.Rounds != faulty.Stats.Rounds || base.Stats.Words != faulty.Stats.Words {
				t.Fatalf("core stats diverged: base %+v faulty %+v", base.Stats, faulty.Stats)
			}
			if faulty.Stats.RecoveryRounds == 0 || faulty.Stats.RecoveredCrashes < 2 {
				t.Fatalf("no recovery recorded: %+v", faulty.Stats)
			}
		})
	}
}

// TestFaultPanicSurfaces verifies the driver-visible failure mode: a panic in
// machine code surfaces as a *MachineError through the algorithm's error
// return, and the process survives.
func TestFaultPanicSurfaces(t *testing.T) {
	c, err := mpc.NewCluster(mpc.Config{Machines: 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	stepErr := c.Step("boom", func(x mpc.Ctx) {
		if x.Machine == 1 {
			panic("bug in machine code")
		}
	})
	var me *mpc.MachineError
	if !errors.As(stepErr, &me) || me.Machine != 1 {
		t.Fatalf("err = %v, want MachineError{Machine: 1}", stepErr)
	}
}

// FuzzFaultDeterminism asserts the reproducibility contract: two runs with
// identical (graph, Options, FaultPlan) produce identical members, rounds
// and violation logs — and the members match the fault-free run's.
func FuzzFaultDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(40), float64(0.05), uint8(1), uint8(0))
	f.Add(int64(7), uint8(80), float64(0.3), uint8(2), uint8(2))
	f.Add(int64(42), uint8(15), float64(0.0), uint8(0), uint8(3))
	f.Add(int64(-3), uint8(60), float64(1.0), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, crashRate float64, algoPick, ckptRaw uint8) {
		if crashRate < 0 || crashRate > 1 {
			t.Skip()
		}
		n := int(nRaw)%60 + 2
		g := gen.MustBuild("gnp:n="+strconv.Itoa(n)+",p=0.1", seed)
		plan := &mpc.FaultPlan{
			Seed:      seed,
			CrashRate: crashRate / 4, // keep retry loops short
			Crashes:   []mpc.FaultEvent{{Round: 1, Machine: 0}},
		}
		algos := allAlgorithms()
		a := algos[int(algoPick)%len(algos)]
		opts := Options{Seed: seed, Machines: 4, Faults: plan, CheckpointEvery: int(ckptRaw) % 4}

		r1, err1 := a.run(g, opts)
		r2, err2 := a.run(g, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("determinism broken in error path: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("errors differ: %v vs %v", err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(r1.Members, r2.Members) {
			t.Fatalf("members differ between identical runs: %v vs %v", r1.Members, r2.Members)
		}
		if r1.Stats.Rounds != r2.Stats.Rounds {
			t.Fatalf("rounds differ: %d vs %d", r1.Stats.Rounds, r2.Stats.Rounds)
		}
		if !reflect.DeepEqual(r1.Stats.Violations, r2.Stats.Violations) {
			t.Fatalf("violation logs differ: %v vs %v", r1.Stats.Violations, r2.Stats.Violations)
		}
		if r1.Stats.RecoveredCrashes != r2.Stats.RecoveredCrashes ||
			r1.Stats.RecoveryRounds != r2.Stats.RecoveryRounds ||
			r1.Stats.ReplayedWords != r2.Stats.ReplayedWords {
			t.Fatalf("recovery accounting differs: %+v vs %+v", r1.Stats, r2.Stats)
		}

		// And the faulty output is the fault-free output.
		clean, err := a.run(g, Options{Seed: seed, Machines: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clean.Members, r1.Members) {
			t.Fatalf("faulty members diverge from fault-free: %v vs %v", r1.Members, clean.Members)
		}
	})
}
