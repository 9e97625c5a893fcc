package supervise

import (
	"context"
	"fmt"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/trace"
)

// InProc runs the job in this process: the one in-process path, used by
// `mprs run` and the bench harness. It is composed from exactly the same
// spec helpers the worker processes use (the store opener and solve), so
// the two backends cannot drift apart. InProc and MultiProc are
// bit-identical on deterministic outputs: same Members, same Stats (modulo
// the documented host/run-dependent columns), same trace bytes. That
// equivalence is the package's core contract and is enforced by tests and
// the CI multiproc-smoke job. InProc applies the in-process fault rule
// (checkInProcChaos): the spec's machine: faults, and its disk: events for
// worker 0 against the checkpoint store; a spec with wire: or proc: events,
// or events for another worker, is rejected. Its fields are observers and
// controls only; none of them enters the run's outputs.
type InProc struct {
	// Context, when non-nil, cancels the run at the next superstep barrier
	// (see rulingset.Options.Context).
	Context context.Context
	// Resume restarts the job from the newest valid checkpoint in the
	// spec's CheckpointDir, which must hold one. The trace file continues
	// the interrupted run's (see trace.FromRound).
	Resume bool
	// Sinks observe every committed superstep, in order, after the trace
	// file. A *telemetry.Collector among them also meters the checkpoint
	// store.
	Sinks trace.Multi
}

// Run executes spec on g, which must be the graph the spec describes (the
// caller has built it already).
func (ip InProc) Run(spec JobSpec, g *graph.Graph) (rulingset.Result, error) {
	a, err := rulingset.LookupAlgorithm(spec.Algo)
	if err != nil {
		return rulingset.Result{}, fmt.Errorf("supervise: %w", err)
	}
	if err := spec.checkFields(); err != nil {
		return rulingset.Result{}, err
	}
	opts, plan, err := spec.Options()
	if err != nil {
		return rulingset.Result{}, err
	}
	if err := checkInProcChaos(plan, spec.CheckpointDir); err != nil {
		return rulingset.Result{}, err
	}
	if ip.Resume && spec.CheckpointDir == "" {
		return rulingset.Result{}, fmt.Errorf("-resume requires -checkpoint-dir")
	}
	opts.Context = ip.Context
	if spec.CheckpointDir != "" {
		if a.Clique {
			return rulingset.Result{}, fmt.Errorf("-checkpoint-dir: algorithm %q does not support durable checkpointing (MPC algorithms only)", spec.Algo)
		}
		// Disk events interpose at the durable.FS seam; the run is
		// "worker 0, attempt 0" of the chaos schedule.
		store, err := spec.openStoreFS(spec.CheckpointDir, chaos.NewDiskFS(plan, 0, 0))
		if err != nil {
			return rulingset.Result{}, err
		}
		opts.CheckpointSink = store
		if ip.Resume {
			meta, state, err := store.LoadLatest()
			if err != nil {
				return rulingset.Result{}, err
			}
			opts.Resume = &mpc.ResumeState{Round: meta.Round, State: state}
		}
	}
	return spec.solve(g, opts, true, true, ip.Sinks)
}

// MultiProc runs the job across supervised worker processes.
type MultiProc struct {
	Config Config
}

// Run executes spec across supervised worker processes.
func (m MultiProc) Run(spec JobSpec) (rulingset.Result, error) {
	return Run(spec, m.Config)
}
