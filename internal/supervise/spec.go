// Package supervise runs one simulation job across real OS worker processes
// and keeps it alive: per-worker heartbeats with deterministic superstep
// progress, timeout/retry with capped exponential backoff, and kill-and-
// restart of crashed or stalled workers from the newest valid durable
// checkpoint via the existing resume-by-replay path.
//
// Every worker executes the full deterministic job (see internal/transport
// for why the execution is replicated) and owns a contiguous block of
// machines whose superstep messages it is authoritative for. The supervisor
// is a star hub: it relays each worker's Messages frames to the others,
// retains the newest frame per worker for restart re-delivery, and watches
// liveness. Because workers proceed in barrier lockstep, no worker is ever
// more than one exchange ahead of another, so the newest retained frame per
// peer is exactly what a restarting worker can still need.
//
// The contract is cross-backend bit-identity: the multi-process backend —
// including runs where the supervisor kills and restarts a worker mid-job —
// produces outputs, deterministic Stats columns and trace bytes identical to
// the in-process backend's.
package supervise

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/rulingset/mprs/internal/buildinfo"
	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

// JobSpec is the self-contained, JSON-serializable description of one run —
// everything a worker process needs to deterministically reproduce the job.
// Every field feeds the deterministic replay; observability knobs
// (TraceFile) do not alter it.
type JobSpec struct {
	// Algo names an entry of rulingset.Algorithms. The multi-process
	// backend and durable checkpoints take only the MPC (non-clique)
	// entries, for one reason: only they run one replayable superstep log.
	Algo string `json:"algo"`
	// Beta is the domination radius the β drivers (randbeta, detbeta) run
	// with; the other drivers ignore it, and so does their Fingerprint.
	Beta int `json:"beta,omitempty"`
	// GraphSpec generates the input (see internal/gen); GraphFile loads an
	// edge-list file instead. Exactly one must be set.
	GraphSpec string `json:"graph_spec,omitempty"`
	GraphFile string `json:"graph_file,omitempty"`
	// GenSeed seeds the generator.
	GenSeed int64 `json:"gen_seed"`

	Machines    int     `json:"machines"`
	Regime      int     `json:"regime"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	MemoryWords int     `json:"memory_words,omitempty"`
	LinearSlack int     `json:"linear_slack,omitempty"`
	ChunkBits   int     `json:"chunk_bits,omitempty"`
	AlgoSeed    int64   `json:"algo_seed"`
	Strict      bool    `json:"strict,omitempty"`

	// Chaos and ChaosSeed are the job's fault plan (internal/chaos
	// grammar), parsed by both backends and by every worker. Only its
	// machine: part, the simulated model faults every worker replays, enters
	// Fingerprint: wire:, disk: and proc: events attack the substrate at
	// deterministic superstep progress, so checkpoints written under them
	// stay resumable by clean runs (the degraded fallback depends on exactly
	// that).
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`

	// CheckpointEvery and CheckpointDir enable durable checkpoints; each
	// worker persists under its own w<id> subdirectory of CheckpointDir, and
	// a restarted worker resumes from its newest valid checkpoint. Without a
	// checkpoint dir a restarted worker recomputes from round 1 — slower,
	// still bit-identical.
	CheckpointEvery  int    `json:"checkpoint_every,omitempty"`
	CheckpointDir    string `json:"checkpoint_dir,omitempty"`
	CheckpointRetain int    `json:"checkpoint_retain,omitempty"`

	// TraceFile, when set, receives the deterministic JSONL superstep trace,
	// written by worker 0 only (the replicas would write identical bytes).
	TraceFile string `json:"trace_file,omitempty"`

	// Parallelism is the per-worker step execution pool size (0 =
	// GOMAXPROCS, 1 = serial); every worker inherits it. Deliberately NOT
	// part of Fingerprint: outputs, traces and checkpoint bytes are
	// bit-identical at every level, so durable checkpoints are portable
	// across parallelism settings.
	Parallelism int `json:"parallelism,omitempty"`
}

// SpecLabel renders the input source exactly as the CLI's trace headers and
// table titles do.
func (s JobSpec) SpecLabel() string {
	if s.GraphSpec != "" {
		return s.GraphSpec
	}
	return "file:" + s.GraphFile
}

// Validate rejects specs no worker could run: the congested-clique entries
// (and unknown names), then everything checkFields rejects.
func (s JobSpec) Validate() error {
	if a, err := rulingset.LookupAlgorithm(s.Algo); err != nil || a.Clique {
		return fmt.Errorf("supervise: algorithm %q not supported on the multi-process backend (MPC algorithms only)", s.Algo)
	}
	return s.checkFields()
}

// checkFields is the part of Validate that InProc runs too.
func (s JobSpec) checkFields() error {
	if (s.GraphSpec == "") == (s.GraphFile == "") {
		return fmt.Errorf("supervise: exactly one of GraphSpec and GraphFile must be set")
	}
	if s.Machines < 1 {
		return fmt.Errorf("supervise: machines %d < 1", s.Machines)
	}
	if s.CheckpointDir != "" && s.CheckpointEvery <= 0 {
		return fmt.Errorf("supervise: CheckpointDir requires CheckpointEvery > 0")
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("supervise: parallelism %d < 0", s.Parallelism)
	}
	return nil
}

// BuildGraph deterministically reconstructs the input graph.
func (s JobSpec) BuildGraph() (*graph.Graph, error) {
	if s.GraphFile != "" {
		f, err := os.Open(s.GraphFile)
		if err != nil {
			return nil, err
		}
		defer f.Close() //detlint:ok errdrop -- read-only handle; read failures surface from ReadEdgeList
		return graph.ReadEdgeList(f)
	}
	sp, err := gen.ParseSpec(s.GraphSpec)
	if err != nil {
		return nil, err
	}
	return sp.Build(s.GenSeed)
}

// Fingerprint renders the canonical configuration string stamped into
// durable checkpoints, so a resumed run (or a restarted worker) refuses a
// different configuration's state. Both backends stamp it. It holds every
// knob that feeds the deterministic replay and that the algorithm reads:
// beta only for the β drivers, the chunk width only for the deterministic
// ones, the algorithm seed only for the randomized ones. The fault term is
// chaos.FingerprintTerm of the job's fault spec; observability settings and
// Parallelism are left out.
func (s JobSpec) Fingerprint() string {
	a, _ := rulingset.LookupAlgorithm(s.Algo) //detlint:ok errdrop -- an unknown name declares no parameter, and no backend runs it
	fp := "mprs-job/2 algo=" + s.Algo
	if a.Beta {
		fp += fmt.Sprintf(" beta=%d", s.Beta)
	}
	fp += fmt.Sprintf(" spec=%s gen-seed=%d machines=%d regime=%d epsilon=%g memory=%d slack=%d",
		s.SpecLabel(), s.GenSeed, s.Machines, s.Regime, s.Epsilon, s.MemoryWords, s.LinearSlack)
	if a.Deterministic {
		fp += fmt.Sprintf(" chunk=%d", s.ChunkBits)
	} else {
		fp += fmt.Sprintf(" algo-seed=%d", s.AlgoSeed)
	}
	return fp + fmt.Sprintf(" strict=%t faults=%s checkpoint-every=%d",
		s.Strict, chaos.FingerprintTerm(s.Chaos, s.ChaosSeed), s.CheckpointEvery)
}

// Options builds the rulingset.Options the spec describes and returns the
// parsed fault plan, whose machine: part it applies (transport, trace and
// durable wiring are added by the caller).
func (s JobSpec) Options() (rulingset.Options, *chaos.Plan, error) {
	plan, err := chaos.Parse(s.Chaos, s.ChaosSeed)
	if err != nil {
		return rulingset.Options{}, nil, err
	}
	return rulingset.Options{
		Machines:        s.Machines,
		Regime:          mpc.Regime(s.Regime),
		Epsilon:         s.Epsilon,
		MemoryWords:     s.MemoryWords,
		LinearSlack:     s.LinearSlack,
		ChunkBits:       s.ChunkBits,
		Seed:            s.AlgoSeed,
		Strict:          s.Strict,
		Faults:          plan.MachineFaults(),
		CheckpointEvery: s.CheckpointEvery,
		Parallelism:     s.Parallelism,
	}, plan, nil
}

// checkInProcChaos rejects the fault events an in-process run cannot
// apply. It has no wire and no worker processes, so only machine: events
// and disk: events against worker 0's checkpoint store apply, and those
// need a checkpoint dir. InProc applies it.
func checkInProcChaos(plan *chaos.Plan, checkpointDir string) error {
	if plan.Enabled() && (plan.HasWire() || len(plan.Proc) > 0 || plan.MaxWorker() > 0) {
		return fmt.Errorf("-chaos: backend inproc accepts machine: events and disk: events for worker 0 only (wire: and proc: need -backend multiproc)")
	}
	if plan.HasDisk(0) && checkpointDir == "" {
		return fmt.Errorf("-chaos: disk: events need -checkpoint-dir (they attack the durable checkpoint store)")
	}
	return nil
}

// solve runs the spec's algorithm on g with sinks as its tracer; a
// telemetry collector among them also meters o's checkpoint sink. With
// withTrace set, the JSONL trace goes to TraceFile ahead of sinks. With
// splice set, a resumed run's file continues the interrupted run's: its
// header records the resume round and it receives only the rounds after
// it. Without splice the replayed rounds are traced again, so the file is
// whole.
func (s JobSpec) solve(g *graph.Graph, o rulingset.Options, withTrace, splice bool, sinks trace.Multi) (res rulingset.Result, retErr error) {
	a, err := rulingset.LookupAlgorithm(s.Algo)
	if err != nil {
		return rulingset.Result{}, fmt.Errorf("supervise: %w", err)
	}
	for _, sk := range sinks {
		if col, ok := sk.(*telemetry.Collector); ok {
			o.CheckpointSink = col.WrapCheckpointSink(o.CheckpointSink)
		}
	}
	if withTrace && s.TraceFile != "" {
		machines, after := s.Machines, 0
		if a.Clique {
			machines = g.N() // the clique simulates one machine per vertex
		}
		if splice && o.Resume != nil {
			after = o.Resume.Round
		}
		tr, err := s.CreateTrace(machines, after)
		if err != nil {
			return rulingset.Result{}, err
		}
		defer func() {
			if err := tr.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("trace %s: %w", s.TraceFile, err)
			}
		}()
		var file trace.Tracer = tr
		if after > 0 {
			file = trace.FromRound{Sink: tr, After: after}
		}
		sinks = append(trace.Multi{file}, sinks...)
	}
	if len(sinks) > 0 {
		o.Tracer = sinks
	}
	return a.Run(g, s.Beta, o)
}

// CreateTrace creates TraceFile and writes the job's trace header:
// machines is the simulated machine count, and a positive resumedFrom marks
// a trace that continues an interrupted run's from that round.
func (s JobSpec) CreateTrace(machines, resumedFrom int) (*trace.JSONL, error) {
	f, err := os.Create(s.TraceFile)
	if err != nil {
		return nil, err
	}
	tr := trace.NewJSONL(f)
	if err := tr.WriteHeader(trace.Header{
		Algo:        s.Algo,
		Spec:        s.SpecLabel(),
		Seed:        s.AlgoSeed,
		Machines:    machines,
		Build:       buildinfo.JSON(),
		ResumedFrom: resumedFrom,
	}); err != nil {
		return nil, fmt.Errorf("trace %s: %w", s.TraceFile, errors.Join(err, f.Close()))
	}
	return tr, nil
}

// openStoreFS opens the durable checkpoint store rooted at dir (creating
// it), stamped with the spec's fingerprint, against an injected filesystem
// (nil means the real one): the seam chaos disk events enter through.
func (s JobSpec) openStoreFS(dir string, fsys durable.FS) (*durable.Store, error) {
	st, err := durable.OpenFS(dir, s.Fingerprint(), s.CheckpointRetain, fsys)
	if err != nil {
		return nil, err
	}
	st.SetBuildStamp(buildinfo.JSON())
	return st, nil
}

// workerCheckpointDir is worker id's private subdirectory of the job's
// checkpoint dir — replicated workers persist identical state, but each owns
// its files so a mid-write crash of one worker cannot corrupt another's
// newest checkpoint.
func (s JobSpec) workerCheckpointDir(id int) string {
	return filepath.Join(s.CheckpointDir, fmt.Sprintf("w%d", id))
}
