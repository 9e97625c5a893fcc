// Package bench is the perf-regression harness: a registry of named, seeded
// workload configurations spanning the repository's experiment regimes
// (EXPERIMENTS.md T1/T2/T8/O1/R1), a runner executing each workload across
// its algorithm set on both simulators (MPC and congested clique), and a
// schema-versioned JSON artifact (`BENCH_<stamp>.json`) pinning per-workload
// rounds, phases, words, skew, memory peaks and recovery counters per
// commit.
//
// Every column is bit-deterministic — a pure function of (workload,
// algorithm, seed) — so regressions in the quantities the paper's theorems
// bound (rounds, phases, per-phase words, seed-search cost) are detected by
// exact comparison against a checked-in baseline. Host cost (wall time,
// allocations, RSS) is measured by cmd/perfbench instead. See cmd/mprs-bench
// for the CLI and the diff gate.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/rulingset/mprs/internal/buildinfo"
)

// Schema is the bench artifact format version. Bump only for changes that
// break existing readers; adding fields is backward compatible.
const Schema = "mprs-bench/1"

// Manifest records the provenance of one bench run: what produced it and
// under which knobs, so two artifacts can be compared meaningfully.
type Manifest struct {
	// Schema is always the Schema constant.
	Schema string `json:"schema"`
	// Build stamps the producing binary (module version, VCS revision, go
	// toolchain).
	Build buildinfo.Stamp `json:"build"`
	// Quick marks the reduced CI tier.
	Quick bool `json:"quick"`
	// Seed is the workload/algorithm seed every run used.
	Seed int64 `json:"seed"`
	// Workloads lists the executed workload names in order.
	Workloads []string `json:"workloads"`
}

// Result is one (workload, algorithm) measurement row.
type Result struct {
	Workload   string `json:"workload"`
	Experiment string `json:"experiment"` // EXPERIMENTS.md anchor (T1, O1, …)
	Algo       string `json:"algo"`
	Model      string `json:"model"` // "mpc" or "clique"
	// Machines is the simulated machine count (node count for the clique).
	Machines int `json:"machines"`
	// N and M describe the input graph.
	N int `json:"n"`
	M int `json:"m"`

	// Output shape.
	Members int `json:"members"`
	Beta    int `json:"beta"`

	// Model quantities the theorems bound (all deterministic).
	Rounds    int   `json:"rounds"`
	Phases    int   `json:"phases"`
	SeedSteps int   `json:"seed_steps"`
	Messages  int64 `json:"messages"`
	Words     int64 `json:"words"`
	PeakSent  int   `json:"peak_sent"`
	PeakRecv  int   `json:"peak_recv"`
	// PeakResident is MPC-only (the clique model has no memory budget).
	PeakResident int `json:"peak_resident"`

	// Communication skew (deterministic): straggler ratios and worst
	// per-round Gini imbalance.
	SkewSent float64 `json:"skew_sent"`
	SkewRecv float64 `json:"skew_recv"`
	GiniSent float64 `json:"gini_sent"`
	GiniRecv float64 `json:"gini_recv"`

	// Violations counts recorded budget breaches.
	Violations int `json:"violations"`

	// Recovery counters (non-zero only for fault-plan workloads).
	RecoveredCrashes int   `json:"recovered_crashes,omitempty"`
	RecoveryRounds   int   `json:"recovery_rounds,omitempty"`
	ReplayedWords    int64 `json:"replayed_words,omitempty"`

	// Durable-checkpoint overhead (non-zero only when the run persisted
	// checkpoints or resumed from one). These describe the harness, not the
	// algorithm, and are deterministic for a fixed (workload,
	// checkpoint-every, resume-round) configuration.
	CheckpointBytes    int64 `json:"checkpoint_bytes,omitempty"`
	ResumeReplayRounds int   `json:"resume_replay_rounds,omitempty"`
}

// Key identifies a result row across artifacts.
func (r Result) Key() string { return r.Workload + "/" + r.Algo }

// File is one bench artifact.
type File struct {
	Manifest Manifest `json:"manifest"`
	Results  []Result `json:"results"`
}

// Encode writes the artifact as indented JSON, newline-terminated. The
// encoding is deterministic: fixed field order, no timestamps, no maps.
func (f *File) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the artifact to path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Decode reads one artifact and validates its schema.
func Decode(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if f.Manifest.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported schema %q (want %s)", f.Manifest.Schema, Schema)
	}
	return &f, nil
}

// ReadFile reads the artifact at path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	f, err := Decode(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// newManifest assembles the run manifest for the current binary.
func newManifest(quick bool, seed int64, workloads []string) Manifest {
	return Manifest{
		Schema:    Schema,
		Build:     buildinfo.Get(),
		Quick:     quick,
		Seed:      seed,
		Workloads: workloads,
	}
}
