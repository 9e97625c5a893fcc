package supervise

import (
	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/rulingset"
)

// InProc runs the job in this process — the classic single-process path,
// composed from exactly the same spec helpers the worker processes use, so
// the two backends cannot drift apart. InProc and MultiProc are
// bit-identical on deterministic outputs: same Members, same Stats (modulo
// the documented host/run-dependent columns), same trace bytes. That
// equivalence is the package's core contract and is enforced by tests and
// the CI multiproc-smoke job. InProc applies the CLI's in-process fault
// rule (CheckInProcChaos): the spec's machine: faults, and its disk: events
// for worker 0 against the checkpoint store; a spec with wire: or proc:
// events, or events for another worker, is rejected.
type InProc struct{}

// Run executes spec in this process.
func (InProc) Run(spec JobSpec) (rulingset.Result, error) {
	if err := spec.Validate(); err != nil {
		return rulingset.Result{}, err
	}
	g, err := spec.BuildGraph()
	if err != nil {
		return rulingset.Result{}, err
	}
	opts, plan, err := spec.Options()
	if err != nil {
		return rulingset.Result{}, err
	}
	if err := CheckInProcChaos(plan, spec.CheckpointDir); err != nil {
		return rulingset.Result{}, err
	}
	if spec.CheckpointDir != "" {
		// Disk events interpose at the durable.FS seam; the run is
		// "worker 0, attempt 0" of the chaos schedule.
		store, err := spec.openStoreFS(spec.CheckpointDir, chaos.NewDiskFS(plan, 0, 0))
		if err != nil {
			return rulingset.Result{}, err
		}
		opts.CheckpointSink = store
	}
	return spec.solve(g, opts, true, nil)
}

// MultiProc runs the job across supervised worker processes.
type MultiProc struct {
	Config Config
}

// Run executes spec across supervised worker processes.
func (m MultiProc) Run(spec JobSpec) (rulingset.Result, error) {
	return Run(spec, m.Config)
}
