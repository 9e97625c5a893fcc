package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/telemetry"
)

// workload is one benchmark input and the driver that solves it. Each of the
// four puts most of its time in a different layer, so an optimisation has
// one workload where it should show and others where it should not (see
// README.md for the profile shares and the prediction table).
type workload struct {
	name string
	// algo is det2, luby or cliquedet2.
	algo string
	// spec is the gen spec at full scale; tiny is the smoke test's.
	spec, tiny string
	// chunkBits is the derandomizer's z (0 keeps the library default).
	chunkBits int
	// multiproc runs the job on supervise.MultiProc instead of in-process.
	multiproc bool
	// builds is how often one run generates the graph; setup_s is the
	// median, so the small graphs get many builds to steady it.
	builds int
	// digests names the workload whose recorded member digests this one
	// must reproduce (itself unless it re-runs another workload's job).
	digests string
}

var workloads = []workload{
	{name: "det2-gnp", algo: "det2", spec: "gnp:n=4096,p=0.006", tiny: "gnp:n=256,p=0.03", chunkBits: 8, builds: 41, digests: "det2-gnp"},
	{name: "luby-gnp-large", algo: "luby", spec: "gnp:n=262144,p=0.00006", tiny: "gnp:n=2048,p=0.008", builds: 7, digests: "luby-gnp-large"},
	{name: "cliquedet2-gnp", algo: "cliquedet2", spec: "gnp:n=4096,p=0.006", tiny: "gnp:n=256,p=0.03", chunkBits: 4, builds: 41, digests: "cliquedet2-gnp"},
	{name: "luby-multiproc", algo: "luby", spec: "gnp:n=262144,p=0.00006", tiny: "gnp:n=2048,p=0.008", multiproc: true, builds: 7, digests: "luby-gnp-large"},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Fixed job shape shared by every workload.
const (
	machines = 8
	// mpWorkers is the supervised worker-process count; each worker runs
	// the step closures serially, so the fleet uses two CPUs.
	mpWorkers = 2
	// mpCheckpointEvery is the durable checkpoint cadence on multiproc.
	mpCheckpointEvery = 8
	// wireEnv names the directory a benchmark worker writes its stream
	// counters to; unset, the worker's streams are not wrapped.
	wireEnv = "PERFBENCH_WIRE_DIR"
)

// outcome is what one solve returns, reduced to what the benchmark checks
// and reports.
type outcome struct {
	members    []int32
	beta       int
	rounds     int
	messages   int64
	words      int64
	violations int
	seedSteps  int
	// restarts counts supervisor worker restarts (multiproc only).
	restarts int
}

func phaseSeedSteps(phases []rulingset.PhaseStat) int {
	n := 0
	for _, p := range phases {
		n += p.SeedSteps
	}
	return n
}

// options is the in-process configuration; multiproc workers derive the
// same one from jobSpec, which is what makes their members comparable.
func (w workload) options(seed int64, parallelism int) rulingset.Options {
	return rulingset.Options{Machines: machines, ChunkBits: w.chunkBits, Seed: seed, Parallelism: parallelism}
}

// solveInProc runs the workload's driver in this process.
func (w workload) solveInProc(g *graph.Graph, o rulingset.Options) (outcome, error) {
	switch w.algo {
	case "det2", "luby":
		run := rulingset.DetRuling2
		if w.algo == "luby" {
			run = rulingset.LubyMIS
		}
		r, err := run(g, o)
		return outcome{
			members: r.Members, beta: r.Beta, rounds: r.Stats.Rounds,
			messages: r.Stats.Messages, words: r.Stats.Words,
			violations: len(r.Stats.Violations), seedSteps: phaseSeedSteps(r.Phases),
		}, err
	case "cliquedet2":
		r, err := rulingset.CliqueDetRuling2(g, o)
		return outcome{
			members: r.Members, beta: r.Beta, rounds: r.Stats.Rounds,
			messages: r.Stats.Messages, words: r.Stats.Words,
			violations: len(r.Stats.Violations), seedSteps: phaseSeedSteps(r.Phases),
		}, err
	}
	return outcome{}, fmt.Errorf("unknown algorithm %q", w.algo)
}

// mpOptions are the observability hooks of one multiproc solve.
type mpOptions struct {
	// traced attaches a JSONL trace file and a telemetry fleet.
	traced bool
	// wireDir, when set, makes the workers count their stream traffic
	// into files there (see worker.go).
	wireDir string
}

// solveMultiproc runs the workload's job on supervise.MultiProc with a fresh
// checkpoint directory under workdir. It returns once every worker process
// has been reaped, so getrusage(RUSAGE_CHILDREN) covers the whole fleet;
// wall is the time MultiProc.Run took.
func (w workload) solveMultiproc(spec string, seed int64, workdir string, mo mpOptions) (out outcome, wall time.Duration, err error) {
	dir, err := os.MkdirTemp(workdir, "job-")
	if err != nil {
		return outcome{}, 0, err
	}
	defer os.RemoveAll(dir)
	job := supervise.JobSpec{
		Algo: w.algo, GraphSpec: spec, GenSeed: seed, Machines: machines,
		ChunkBits: w.chunkBits, AlgoSeed: seed,
		CheckpointEvery: mpCheckpointEvery, CheckpointDir: filepath.Join(dir, "ckpt"),
		Parallelism: 1,
	}
	// The supervisor writes its lifecycle stream from the goroutine that
	// called Run.
	var life strings.Builder
	var cmds []*exec.Cmd
	self := supervise.SelfExec("worker")
	cfg := supervise.Config{
		Workers:   mpWorkers,
		Timeout:   150 * time.Second,
		Lifecycle: &life,
		// Spawn runs on the goroutine that called Run, so cmds needs no lock.
		Spawn: func(env supervise.WorkerEnv) (*exec.Cmd, error) {
			cmd, err := self(env)
			if err != nil {
				return nil, err
			}
			if mo.wireDir != "" {
				cmd.Env = append(cmd.Env, wireEnv+"="+mo.wireDir)
			}
			cmds = append(cmds, cmd)
			return cmd, nil
		},
	}
	if mo.traced {
		job.TraceFile = filepath.Join(dir, "trace.jsonl")
		cfg.Telemetry = telemetry.NewFleet()
	}
	start := time.Now()
	r, err := supervise.MultiProc{Config: cfg}.Run(job)
	wall = time.Since(start)
	reap(cmds)
	out = outcome{
		members: r.Members, beta: r.Beta, rounds: r.Stats.Rounds,
		messages: r.Stats.Messages, words: r.Stats.Words,
		violations: len(r.Stats.Violations), seedSteps: phaseSeedSteps(r.Phases),
		restarts: strings.Count(life.String(), `"kind":"restart"`),
	}
	return out, wall, err
}

// reap waits until the supervisor has waited for every worker process: a
// reaped pid no longer accepts signal 0.
func reap(cmds []*exec.Cmd) {
	deadline := time.Now().Add(30 * time.Second)
	for _, c := range cmds {
		if c.Process == nil {
			continue
		}
		for syscall.Kill(c.Process.Pid, 0) == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// digest fingerprints a member set: the first 16 hex digits of the SHA-256
// of the members as little-endian int32s.
func digest(members []int32) string {
	h := sha256.New()
	var buf [4]byte
	for _, v := range members {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
