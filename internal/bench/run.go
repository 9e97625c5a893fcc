package bench

import (
	"fmt"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/rulingset"
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

// The simulator knobs every workload shares: the MPC machine count (the
// clique always uses n nodes), the derandomizer chunk width z, and the β
// drivers' beta.
const (
	machines  = 8
	chunkBits = 4
	beta      = 3
)

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

// runWorkload executes every algorithm of one workload.
func runWorkload(w Workload, cfg RunConfig) ([]Result, error) {
	g, opts, err := prepare(w, cfg)
	if err != nil {
		return nil, err
	}
	var rows []Result
	for _, name := range w.Algos {
		row, err := runAlgo(g, name, opts)
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

// prepare builds a workload's input graph at cfg's tier and the simulator
// options every one of its algorithms runs with.
func prepare(w Workload, cfg RunConfig) (*graph.Graph, rulingset.Options, error) {
	spec := w.Spec
	if cfg.Quick && w.QuickSpec != "" {
		spec = w.QuickSpec
	}
	s, err := gen.ParseSpec(spec)
	if err != nil {
		return nil, rulingset.Options{}, err
	}
	g, err := s.Build(cfg.Seed)
	if err != nil {
		return nil, rulingset.Options{}, err
	}
	plan, err := chaos.ParseMachine(w.Faults, cfg.Seed)
	if err != nil {
		return nil, rulingset.Options{}, err
	}
	return g, rulingset.Options{
		Machines:        machines,
		ChunkBits:       chunkBits,
		Seed:            cfg.Seed,
		Faults:          plan,
		CheckpointEvery: w.CheckpointEvery,
	}, nil
}

// runAlgo executes one (graph, algorithm) pair on the simulator that hosts
// it and flattens the measurements into a Result row.
func runAlgo(g *graph.Graph, name string, opts rulingset.Options) (Result, error) {
	a, err := rulingset.LookupAlgorithm(name)
	if err != nil {
		return Result{}, err
	}
	res, err := a.Run(g, beta, opts)
	if err != nil {
		return Result{}, err
	}
	model, nodes := "mpc", machines
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
