package rulingset

import (
	"reflect"
	"testing"

	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/hash"
	"github.com/rulingset/mprs/internal/trace"
)

func TestSeedPolicyString(t *testing.T) {
	tests := []struct {
		p    SeedPolicy
		want string
	}{
		{p: SeedConditionalExpectations, want: "cond-exp"},
		{p: SeedRandomFamily, want: "random-family"},
		{p: SeedZero, want: "zero"},
		{p: SeedPolicy(42), want: "seedpolicy(42)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.p), got, tt.want)
		}
	}
}

// TestSeedPolicyRandomFamily runs the random-family ablation of both
// seed-policy drivers: equal seeds reproduce the output, and no seed-search
// step runs.
func TestSeedPolicyRandomFamily(t *testing.T) {
	g := gen.MustBuild("gnp:n=400,p=0.02", 13)
	for _, a := range []algo{
		{name: "DetRuling2", run: DetRuling2},
		{name: "DetLubyMIS", run: DetLubyMIS},
	} {
		t.Run(a.name, func(t *testing.T) {
			first, err := a.run(g, Options{SeedPolicy: SeedRandomFamily, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(g, first); err != nil {
				t.Fatal(err)
			}
			// Reproducible for equal seeds...
			second, err := a.run(g, Options{SeedPolicy: SeedRandomFamily, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.Members, second.Members) {
				t.Fatal("same seed, different outputs under random-family policy")
			}
			// ...but no conditional-expectation trajectory guarantee is
			// claimed: the run must still record estimator values for the
			// ablation reports.
			for _, ps := range first.Phases {
				if ps.SeedSteps != 0 {
					t.Fatal("random-family policy must not run seed-search steps")
				}
			}
		})
	}
}

// TestSeedPolicyBroadcastsSeed checks that a seed fixed without a search is
// charged as what it is: the first phase's seed broadcast carries all
// ⌈L/64⌉ words of its L-bit seed to every other machine, for both drivers.
func TestSeedPolicyBroadcastsSeed(t *testing.T) {
	g := gen.MustBuild("gnp:n=1000,p=0.1", 3)
	delta := 0
	for v := 0; v < g.N(); v++ {
		delta = max(delta, g.Degree(v))
	}
	for _, tc := range []struct {
		a    algo
		step string
		j    int // the first phase's marking exponent
	}{
		{algo{name: "DetRuling2", run: DetRuling2}, "sparsify/seed", schedule(delta)[0]},
		{algo{name: "DetLubyMIS", run: DetLubyMIS}, "luby/seed", lubyJ(delta)},
	} {
		t.Run(tc.a.name, func(t *testing.T) {
			fam, err := hash.NewBits(g.N(), tc.j)
			if err != nil {
				t.Fatal(err)
			}
			words := (fam.NewSeed().Total() + 63) / 64
			if words < 2 {
				t.Fatalf("seed of %d bits fits one word; the check needs a longer one", fam.NewSeed().Total())
			}
			ring := trace.NewRing(1 << 12)
			const machines = 8
			if _, err := tc.a.run(g, Options{Machines: machines, SeedPolicy: SeedRandomFamily, Seed: 2, Tracer: ring}); err != nil {
				t.Fatal(err)
			}
			for _, ev := range ring.Events() {
				if ev.Step != tc.step {
					continue
				}
				if want := (machines - 1) * words; ev.Sent[0] != want {
					t.Fatalf("%s sent %d words from the coordinator, want %d (%d seed words to %d machines)", tc.step, ev.Sent[0], want, words, machines-1)
				}
				return
			}
			t.Fatalf("no %s step traced", tc.step)
		})
	}
}

// TestSeedPolicyZeroMakesNoProgress documents why seed selection matters:
// the all-zero seed marks nothing, so the sparsifier makes zero progress and
// the entire graph lands in the residual instance.
func TestSeedPolicyZeroMakesNoProgress(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.03", 14)
	res, err := DetRuling2(g, Options{SeedPolicy: SeedZero})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, res); err != nil {
		t.Fatal(err) // still correct — just not parallel
	}
	for _, ps := range res.Phases {
		if ps.Marked != 0 {
			t.Fatalf("phase %d marked %d vertices under the zero seed", ps.Phase, ps.Marked)
		}
	}
	if res.ResidualN != g.N() {
		t.Fatalf("residual n = %d, want the whole graph (%d)", res.ResidualN, g.N())
	}
}

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

func TestLubyExactThresholds(t *testing.T) {
	g := gen.MustBuild("gnp:n=300,p=0.02", 17)
	res, err := DetLubyMIS(g, Options{LubyExactThresholds: true, ChunkBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(g, res); err != nil {
		t.Fatal(err)
	}
	// Deterministic too: repeated runs agree.
	res2, err := DetLubyMIS(g, Options{LubyExactThresholds: true, ChunkBits: 4, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Members, res2.Members) {
		t.Fatal("exact-threshold Luby not deterministic")
	}
	// The guarantee holds for the Values-family estimator as well.
	for _, ps := range res.Phases {
		if ps.SeedSteps > 0 && ps.EstimatorFinal < ps.EstimatorInitial-1e-6 {
			t.Fatalf("iteration %d: realized %v < expectation %v",
				ps.Phase, ps.EstimatorFinal, ps.EstimatorInitial)
		}
	}
}

// TestLubyExactThresholdsSeedPolicy: the exact-threshold ablation runs
// only the paper's seed search, so every other seed policy — the two
// ablations and an unknown value — is rejected rather than silently run as
// conditional expectations.
func TestLubyExactThresholdsSeedPolicy(t *testing.T) {
	g := gen.MustBuild("gnp:n=100,p=0.05", 18)
	for _, p := range []SeedPolicy{SeedRandomFamily, SeedZero, SeedPolicy(99)} {
		if _, err := DetLubyMIS(g, Options{LubyExactThresholds: true, SeedPolicy: p}); err == nil {
			t.Errorf("seed policy %v accepted with exact thresholds", p)
		}
	}
}

func TestUnknownSeedPolicyRejected(t *testing.T) {
	g := gen.MustBuild("gnp:n=100,p=0.05", 18)
	if _, err := DetRuling2(g, Options{SeedPolicy: SeedPolicy(99)}); err == nil {
		t.Fatal("unknown seed policy accepted")
	}
	if _, err := DetLubyMIS(g, Options{SeedPolicy: SeedPolicy(99)}); err == nil {
		t.Fatal("unknown seed policy accepted by luby")
	}
}
