package bench

import (
	"fmt"

	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/supervise"
)

// RunConfig controls one bench run.
type RunConfig struct {
	// Quick selects the reduced CI tier (QuickSpec instead of Spec).
	Quick bool
	// Workloads restricts the run to the named workloads; nil runs the full
	// registry.
	Workloads []string
	// Seed drives workload generation and the randomized algorithms.
	// Results are a pure function of (registry, Quick, Seed).
	Seed int64
	// Progress, when non-nil, receives one line per completed (workload,
	// algorithm) pair.
	Progress func(string)
}

// Run executes the configured workloads and returns the artifact. Rows come
// out in registry order × workload algorithm order, so the result layout is
// deterministic too.
func Run(cfg RunConfig) (*File, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	var workloads []Workload
	if cfg.Workloads == nil {
		workloads = Registry()
	} else {
		for _, name := range cfg.Workloads {
			w, err := Lookup(name)
			if err != nil {
				return nil, err
			}
			workloads = append(workloads, w)
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	file := &File{Manifest: newManifest(cfg.Quick, cfg.Seed, names)}
	for _, w := range workloads {
		rows, err := runWorkload(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: workload %s: %w", w.Name, err)
		}
		file.Results = append(file.Results, rows...)
	}
	return file, nil
}

// runWorkload executes every algorithm of one workload on one graph.
func runWorkload(w Workload, cfg RunConfig) ([]Result, error) {
	spec := jobSpec(w, cfg)
	g, err := spec.BuildGraph()
	if err != nil {
		return nil, err
	}
	var rows []Result
	for _, name := range w.Algos {
		spec.Algo = name
		row, err := runAlgo(spec, g)
		if err != nil {
			return nil, fmt.Errorf("algo %s: %w", name, err)
		}
		row.Workload = w.Name
		row.Experiment = w.Experiment
		row.Algo = name
		row.N = g.N()
		row.M = g.M()
		rows = append(rows, row)
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("%s: rounds=%d words=%d", row.Key(), row.Rounds, row.Words))
		}
	}
	return rows, nil
}

// jobSpec is the supervise.JobSpec every row of w runs, its Algo aside: 8
// MPC machines (the clique always uses n nodes), chunk width z = 4, beta 3
// for the β drivers, and cfg.Seed for the graph, the randomized drivers and
// the fault schedule.
func jobSpec(w Workload, cfg RunConfig) supervise.JobSpec {
	spec := supervise.JobSpec{
		Beta:            3,
		GraphSpec:       w.Spec,
		GenSeed:         cfg.Seed,
		Machines:        8,
		ChunkBits:       4,
		AlgoSeed:        cfg.Seed,
		Chaos:           w.Faults,
		ChaosSeed:       cfg.Seed,
		CheckpointEvery: w.CheckpointEvery,
	}
	if cfg.Quick && w.QuickSpec != "" {
		spec.GraphSpec = w.QuickSpec
	}
	return spec
}

// runAlgo runs one job on g and flattens the measurements into a Result
// row.
func runAlgo(spec supervise.JobSpec, g *graph.Graph) (Result, error) {
	a, err := rulingset.LookupAlgorithm(spec.Algo)
	if err != nil {
		return Result{}, err
	}
	res, err := supervise.InProc{}.Run(spec, g)
	if err != nil {
		return Result{}, err
	}
	model, nodes := "mpc", spec.Machines
	if a.Clique {
		model, nodes = "clique", g.N()
	}
	row := Result{
		Model:            model,
		Machines:         nodes,
		Members:          len(res.Members),
		Beta:             res.Beta,
		Rounds:           res.Stats.Rounds,
		Phases:           len(res.Phases),
		SeedSteps:        seedSteps(res.Phases),
		Messages:         res.Stats.Messages,
		Words:            res.Stats.Words,
		PeakSent:         res.Stats.PeakSent,
		PeakRecv:         res.Stats.PeakRecv,
		PeakResident:     res.Stats.PeakResident,
		SkewSent:         res.Stats.SkewSent,
		SkewRecv:         res.Stats.SkewRecv,
		GiniSent:         res.Stats.GiniSent,
		GiniRecv:         res.Stats.GiniRecv,
		Violations:       len(res.Stats.Violations),
		RecoveredCrashes: res.Stats.RecoveredCrashes,
		RecoveryRounds:   res.Stats.RecoveryRounds,
		ReplayedWords:    res.Stats.ReplayedWords,

		CheckpointBytes:    res.Stats.CheckpointBytes,
		ResumeReplayRounds: res.Stats.ResumeReplayRounds,
	}
	if err := rulingset.Check(g, res); err != nil {
		return Result{}, fmt.Errorf("output failed verification: %w", err)
	}
	return row, nil
}

func seedSteps(phases []rulingset.PhaseStat) int {
	total := 0
	for _, ps := range phases {
		total += ps.SeedSteps
	}
	return total
}
