package rulingset

import (
	"fmt"

	"github.com/rulingset/mprs/internal/graph"
)

// Algorithm is one named driver of the Algorithms table. Every driver, MPC
// or congested clique, runs through Run and returns the engine's mpc.Stats.
type Algorithm struct {
	// Name is the driver's stable name: -algo, bench Algos, JobSpec.Algo.
	Name string
	// Title is the driver function's name, which experiment tables print.
	Title string
	// Clique marks the congested-clique drivers, which simulate one machine
	// per vertex and ignore Options.Machines. Every other driver runs on one
	// MPC cluster, so its rounds form one replayable superstep log: it takes
	// durable checkpoints and runs on the multi-process backend. Beyond that
	// gate, Clique only labels output: the CLI's title, a trace header's
	// machine count, and a bench row's model and machine count.
	Clique bool
	// Deterministic marks the derandomized drivers: they read
	// Options.ChunkBits and never Options.Seed. The randomized drivers read
	// Options.Seed and never Options.ChunkBits.
	Deterministic bool
	// Beta marks the β drivers, the only ones that read Run's beta.
	Beta bool
	// Run executes the driver.
	Run func(g *graph.Graph, beta int, o Options) (Result, error)
}

// Algorithms is the one name → driver table, in canonical order. The
// drivers that take no beta have runners that are literals dropping it:
// detflow follows a call through Run into a literal stored there, but not
// through a function that builds one.
var Algorithms = []Algorithm{
	{Name: "luby", Title: "LubyMIS", Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return LubyMIS(g, o)
	}},
	{Name: "detluby", Title: "DetLubyMIS", Deterministic: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return DetLubyMIS(g, o)
	}},
	{Name: "rand2", Title: "RandRuling2", Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return RandRuling2(g, o)
	}},
	{Name: "det2", Title: "DetRuling2", Deterministic: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return DetRuling2(g, o)
	}},
	{Name: "randbeta", Title: "RandRulingBeta", Beta: true, Run: RandRulingBeta},
	{Name: "detbeta", Title: "DetRulingBeta", Deterministic: true, Beta: true, Run: DetRulingBeta},
	{Name: "clique2", Title: "CliqueRandRuling2", Clique: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return CliqueRandRuling2(g, o)
	}},
	{Name: "cliquedet2", Title: "CliqueDetRuling2", Clique: true, Deterministic: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return CliqueDetRuling2(g, o)
	}},
}

// LookupAlgorithm resolves a driver by name.
func LookupAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if a.Name == name {
			return a, nil
		}
	}
	return Algorithm{}, fmt.Errorf("unknown algorithm %q", name)
}
