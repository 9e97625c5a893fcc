package bench

import "fmt"

// Workload is one named, seeded bench configuration. Each workload pins the
// graph spec at two scales (full and the -quick CI tier), its faults, and
// the algorithm set it exercises; its Experiment field anchors it to the
// EXPERIMENTS.md table whose regime it covers. The simulator knobs every
// workload shares are run.go's constants.
type Workload struct {
	// Name is the stable registry key (also the diff key prefix).
	Name string
	// Experiment is the EXPERIMENTS.md anchor this workload regresses
	// (T1, T2, T8, O1, R1).
	Experiment string
	// Doc is a one-line description for `mprs-bench list`.
	Doc string
	// Spec and QuickSpec are the gen workload specs for the full and -quick
	// tiers.
	Spec, QuickSpec string
	// Faults, when non-empty, is a fault spec of machine: parts (the
	// internal/chaos grammar) injected into every run of the workload (the
	// R1 recovery regime).
	Faults string
	// CheckpointEvery enables periodic snapshots under faults.
	CheckpointEvery int
	// Algos is the algorithm set to run (names from rulingset.Algorithms).
	Algos []string
}

// Registry returns the workload registry in canonical order. Workload
// configurations are part of the regression contract: changing one
// invalidates BENCH_baseline.json and requires regenerating it (see README
// "Benchmarking & regression").
func Registry() []Workload {
	return []Workload{
		{
			Name:       "t1-gnp-rounds",
			Experiment: "T1",
			Doc:        "rounds/phases vs n regime: G(n,16/n), the four MPC algorithms",
			Spec:       "gnp:n=4096,p=0.0039",
			QuickSpec:  "gnp:n=512,p=0.03",
			Algos:      []string{"luby", "detluby", "rand2", "det2"},
		},
		{
			Name:       "t2-powerlaw",
			Experiment: "T2",
			Doc:        "heavy-tailed degree regime: Chung-Lu power law, 2-ruling sets",
			Spec:       "powerlaw:n=4096,gamma=2.5,avg=8",
			QuickSpec:  "powerlaw:n=512,gamma=2.5,avg=8",
			Algos:      []string{"rand2", "det2"},
		},
		{
			Name:       "t2-star",
			Experiment: "T2",
			Doc:        "adversarial max-degree regime: star graph, 2-ruling sets",
			Spec:       "star:n=4096",
			QuickSpec:  "star:n=256",
			Algos:      []string{"rand2", "det2"},
		},
		{
			Name:       "t8-clique",
			Experiment: "T8",
			Doc:        "congested-clique regime: one node per vertex, Lenzen-routed residual",
			Spec:       "gnp:n=2048,p=0.0059",
			QuickSpec:  "gnp:n=256,p=0.05",
			Algos:      []string{"clique2", "cliquedet2"},
		},
		{
			Name:       "o1-skew",
			Experiment: "O1",
			Doc:        "communication-skew regime: per-span words/Gini under budget",
			Spec:       "gnp:n=8192,p=0.002",
			QuickSpec:  "gnp:n=1024,p=0.016",
			Algos:      []string{"det2", "detbeta"},
		},
		{
			Name:            "r1-faults",
			Experiment:      "R1",
			Doc:             "recovery regime: pinned crashes, checkpoint every 4",
			Spec:            "gnp:n=2048,p=0.0059",
			QuickSpec:       "gnp:n=512,p=0.023",
			Faults:          "machine:crash@1:0,machine:crash@3:2",
			CheckpointEvery: 4,
			Algos:           []string{"rand2", "det2"},
		},
	}
}

// Names returns the registry workload names in canonical order.
func Names() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, w := range reg {
		out[i] = w.Name
	}
	return out
}

// Lookup resolves a workload by name.
func Lookup(name string) (Workload, error) {
	for _, w := range Registry() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, Names())
}
