package rulingset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/rulingset/mprs/internal/gen"
)

// TestPropertyRandomGraphsAllValid is the randomized end-to-end property
// check: for arbitrary (seed, density, machine count, chunk width) draws,
// every algorithm's output must verify. testing/quick drives the parameter
// space.
func TestPropertyRandomGraphsAllValid(t *testing.T) {
	check := func(seed int64, densityRaw, machinesRaw, zRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(170)
		p := math.Min(1, float64(densityRaw%50)/float64(n))
		g, err := gen.GNP(n, p, rng)
		if err != nil {
			t.Logf("gen: %v", err)
			return false
		}
		opts := Options{
			Machines:  1 + int(machinesRaw%12),
			ChunkBits: 1 + int(zRaw%10),
			Seed:      seed,
		}
		for _, a := range []struct {
			name string
			run  func() (Result, error)
		}{
			{name: "LubyMIS", run: func() (Result, error) { return LubyMIS(g, opts) }},
			{name: "DetLubyMIS", run: func() (Result, error) { return DetLubyMIS(g, opts) }},
			{name: "RandRuling2", run: func() (Result, error) { return RandRuling2(g, opts) }},
			{name: "DetRuling2", run: func() (Result, error) { return DetRuling2(g, opts) }},
			{name: "DetRulingBeta3", run: func() (Result, error) { return DetRulingBeta(g, 3, opts) }},
		} {
			res, err := a.run()
			if err != nil {
				t.Logf("%s(n=%d, p=%v, %+v): %v", a.name, n, p, opts, err)
				return false
			}
			if err := Check(g, res); err != nil {
				t.Logf("%s(n=%d, p=%v, %+v): %v", a.name, n, p, opts, err)
				return false
			}
		}
		// Clique variant on the same instance.
		cl, err := CliqueDetRuling2(g, opts)
		if err != nil || !IsRulingSet(g, cl.Members, 2) {
			t.Logf("CliqueDetRuling2(n=%d): %v", n, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyGuaranteeAlwaysHolds: across random instances, the realized
// estimator of every deterministic phase stays on the good side.
func TestPropertyGuaranteeAlwaysHolds(t *testing.T) {
	check := func(seed int64, zRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(250)
		g, err := gen.GNP(n, math.Min(1, 10/float64(n)), rng)
		if err != nil {
			return false
		}
		res, err := DetRuling2(g, Options{ChunkBits: 1 + int(zRaw%10)})
		if err != nil {
			return false
		}
		for _, ps := range res.Phases {
			if ps.EstimatorFinal > ps.EstimatorInitial {
				t.Logf("seed %d phase %d: %v > %v", seed, ps.Phase, ps.EstimatorFinal, ps.EstimatorInitial)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 6
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
