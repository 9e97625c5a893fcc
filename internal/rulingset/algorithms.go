package rulingset

import (
	"fmt"
	"strings"

	"github.com/rulingset/mprs/internal/graph"
)

// Algorithm is one named driver of the Algorithms table. Exactly one runner
// is set: Run for the MPC simulator, RunClique for the congested clique.
type Algorithm struct {
	// Name is the driver's stable name: -algo, bench Algos, JobSpec.Algo.
	Name string
	// SingleCluster marks the drivers whose rounds form one replayable
	// superstep log: only they take durable checkpoints and run on the
	// multi-process backend.
	SingleCluster bool
	// Run executes an MPC driver; only the β drivers read beta.
	Run func(g *graph.Graph, beta int, o Options) (Result, error)
	// RunClique executes a congested-clique driver.
	RunClique func(g *graph.Graph, o Options) (CliqueResult, error)
}

// Algorithms is the one name → driver table, in canonical order. The
// single-cluster drivers take no beta, so their runners are literals that
// drop it: detflow follows a call through Run into a literal stored there,
// but not through a function that builds one.
var Algorithms = []Algorithm{
	{Name: "luby", SingleCluster: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return LubyMIS(g, o)
	}},
	{Name: "detluby", SingleCluster: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return DetLubyMIS(g, o)
	}},
	{Name: "rand2", SingleCluster: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return RandRuling2(g, o)
	}},
	{Name: "det2", SingleCluster: true, Run: func(g *graph.Graph, _ int, o Options) (Result, error) {
		return DetRuling2(g, o)
	}},
	{Name: "randbeta", Run: RandRulingBeta},
	{Name: "detbeta", Run: DetRulingBeta},
	{Name: "clique2", RunClique: CliqueRandRuling2},
	{Name: "cliquedet2", RunClique: CliqueDetRuling2},
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

// SingleClusterNames lists the single-cluster drivers' names in table order,
// comma-separated, for the errors that reject every other driver.
func SingleClusterNames() string {
	var names []string
	for _, a := range Algorithms {
		if a.SingleCluster {
			names = append(names, a.Name)
		}
	}
	return strings.Join(names, ", ")
}
