// Benchmark harness: one benchmark per evaluation table/figure (T1–T6, T8,
// F1–F3, ablations A2 and A3, R1, R2 and O1 — see DESIGN.md §3 and
// EXPERIMENTS.md), plus
// micro-benchmarks of the substrate hot paths. Each experiment benchmark regenerates its table(s)
// and reports the headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Run with -short for reduced scale.
package mprs_test

import (
	"io"
	"math/rand"
	"testing"

	mprs "github.com/rulingset/mprs"
	"github.com/rulingset/mprs/internal/clique"
	"github.com/rulingset/mprs/internal/experiments"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Quick: testing.Short(), Seed: 1}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows := 0
			for _, t := range rep.Tables {
				rows += len(t.Rows)
			}
			b.ReportMetric(float64(rows), "table-rows")
		}
	}
}

// BenchmarkT1RoundsVsN regenerates Table T1 (MPC rounds vs n, all four MPC
// algorithms).
func BenchmarkT1RoundsVsN(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkT2Families regenerates Table T2 (rounds vs Δ across families).
func BenchmarkT2Families(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkT3ChunkSize regenerates Table T3 (seed-search cost vs chunk z).
func BenchmarkT3ChunkSize(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkT4Quality regenerates Table T4 (determinism and quality).
func BenchmarkT4Quality(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkT5ModelCompliance regenerates Table T5 (budget compliance).
func BenchmarkT5ModelCompliance(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkT6Estimator regenerates Table T6 (derandomization guarantee).
func BenchmarkT6Estimator(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkT8CliqueVsMPC regenerates Table T8 (congested clique vs MPC).
func BenchmarkT8CliqueVsMPC(b *testing.B) { benchExperiment(b, "T8") }

// BenchmarkF1Sparsification regenerates Figure F1 (per-phase collapse).
func BenchmarkF1Sparsification(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkF2BetaTradeoff regenerates Figure F2 (β tradeoff).
func BenchmarkF2BetaTradeoff(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkF3AdaptiveRadius regenerates Figure F3 (adaptive radius vs
// budget).
func BenchmarkF3AdaptiveRadius(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkA2BenefitCap regenerates ablation A2 (estimator neighborhood cap).
func BenchmarkA2BenefitCap(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkA3AlphaWeight regenerates ablation A3 (estimator cost weight).
func BenchmarkA3AlphaWeight(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkR1FaultRecovery regenerates experiment R1 (output invariance and
// recovery overhead under the deterministic fault schedule).
func BenchmarkR1FaultRecovery(b *testing.B) { benchExperiment(b, "R1") }

// BenchmarkR2DurableResume regenerates experiment R2 (durable checkpoint
// cost vs cadence and resume bit-identity).
func BenchmarkR2DurableResume(b *testing.B) { benchExperiment(b, "R2") }

// BenchmarkO1CommunicationSkew regenerates experiment O1 (per-phase
// communication skew through the trace spans).
func BenchmarkO1CommunicationSkew(b *testing.B) { benchExperiment(b, "O1") }

// BenchmarkTracedDetRuling2 measures the cost of running DetRuling2 with a
// JSONL tracer streaming to io.Discard, versus BenchmarkDetRuling2's
// untraced baseline.
func BenchmarkTracedDetRuling2(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := mprs.NewJSONLTrace(io.Discard)
		if _, err := mprs.DetRulingSet2(g, mprs.Options{Tracer: tr}); err != nil {
			b.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultedDetRuling2 measures the simulator overhead of running
// DetRuling2 under an active fault plan with checkpointing, versus
// BenchmarkDetRuling2's fault-free baseline.
func BenchmarkFaultedDetRuling2(b *testing.B) {
	g := benchGraph(b, 4096)
	plan := &mprs.FaultPlan{
		Seed:      1,
		CrashRate: 0.001,
		Crashes:   []mprs.FaultEvent{{Round: 1, Machine: 0}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mprs.DetRulingSet2(g, mprs.Options{Faults: plan, CheckpointEvery: 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.RecoveryRounds), "recovery-rounds")
		}
	}
}

// ---- substrate micro-benchmarks ----

func benchGraph(b *testing.B, n int) *mprs.Graph {
	b.Helper()
	g, err := mprs.BuildGraph("gnp:n=4096,p=0.004", 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = n
	return g
}

func BenchmarkGreedyMIS(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(mprs.GreedyMIS(g)) == 0 {
			b.Fatal("empty MIS")
		}
	}
}

func BenchmarkLubyMIS(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mprs.MIS(g, mprs.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandRuling2(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mprs.RulingSet2(g, mprs.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetRuling2(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mprs.DetRulingSet2(g, mprs.Options{ChunkBits: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetLubyMIS(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mprs.DetMIS(g, mprs.Options{ChunkBits: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashMarkProb(b *testing.B) {
	fam, err := hash.NewBits(1<<20, 8)
	if err != nil {
		b.Fatal(err)
	}
	seed := fam.NewSeed()
	seed.SetChunk(0, 40, 0x1234567890)
	seed.SetFixed(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.MarkProb(seed, i&0xFFFFF)
	}
}

func BenchmarkHashPairMarkProb(b *testing.B) {
	fam, err := hash.NewBits(1<<20, 8)
	if err != nil {
		b.Fatal(err)
	}
	seed := fam.NewSeed()
	seed.SetChunk(0, 40, 0x1234567890)
	seed.SetFixed(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.PairMarkProb(seed, i&0xFFFFF, (i+7919)&0xFFFFF|1)
	}
}

func BenchmarkGNPGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.GNP(1<<14, 0.001, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyRulingSet(b *testing.B) {
	g := benchGraph(b, 4096)
	res, err := mprs.RulingSet2(g, mprs.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !mprs.IsRulingSet(g, res.Members, 2) {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkCliqueDetRuling2(b *testing.B) {
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rulingset.CliqueDetRuling2(g, rulingset.Options{ChunkBits: 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
		}
	}
}

// BenchmarkCliqueScatterAggregate runs one 256-coordinate scatter-aggregate
// on 1024 nodes. In "dense" almost every value is nonzero; "sparse" is the
// mix cliquedet2's seed search sends, with 71% of the nodes all zero and
// about 28% of the scatter words nonzero. words/op counts what travels.
func BenchmarkCliqueScatterAggregate(b *testing.B) {
	for _, tc := range []struct {
		name string
		zero func(v int) bool
	}{
		{"dense", func(int) bool { return false }},
		{"sparse", func(v int) bool { return v%100 < 71 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := clique.NewCluster(clique.Config{}, 1024)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ScatterAggregate("bench", 256, func(v int, vals []int64) {
					if tc.zero(v) {
						return
					}
					for e := range vals {
						vals[e] = int64(v ^ e)
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Stats().Words)/float64(b.N), "words/op")
		})
	}
}

// BenchmarkCliqueRound times one round of each kind the clique seed search
// runs, on 4096 nodes: idle (no node sends), broadcast (node 0 sends one
// word to every node) and scatter16 (a 16-aggregator ScatterAggregate, its
// scatter and collect rounds). B/op is the engine's host cost per round.
func BenchmarkCliqueRound(b *testing.B) {
	const n = 4096
	for _, tc := range []struct {
		name  string
		round func(c *clique.Cluster) error
	}{
		{"idle", func(c *clique.Cluster) error { return c.Step("idle", func(*clique.Ctx) {}) }},
		{"broadcast", func(c *clique.Cluster) error { return c.BroadcastWord("broadcast", 42) }},
		{"scatter16", func(c *clique.Cluster) error {
			_, err := c.ScatterAggregate("scatter16", 16, func(v int, vals []int64) {
				vals[v%16] = int64(v)
			})
			return err
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, err := clique.NewCluster(clique.Config{}, n)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4; i++ { // grow the kept send logs and arena
				if err := tc.round(c); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.round(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMPCStepBarrier(b *testing.B) {
	c, err := mpc.NewCluster(mpc.Config{Machines: 8}, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step("bench", func(x *mpc.Ctx) {
			x.Send((x.Machine+1)%8, uint64(i))
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLubySimulation(b *testing.B) {
	// One full Luby iteration's worth of exchanges, isolating simulator
	// overhead from algorithm logic.
	g := benchGraph(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rulingset.LubyMIS(g, rulingset.Options{Seed: 1, MaxIterations: 64})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Members) == 0 {
			b.Fatal("empty")
		}
	}
}
