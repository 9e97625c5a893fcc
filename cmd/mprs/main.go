// Command mprs runs ruling-set algorithms on generated or loaded graphs
// inside the MPC simulator and reports the model measurements.
//
// Usage:
//
//	mprs gen  -spec gnp:n=4096,p=0.004 -seed 1 -o graph.txt
//	mprs info -spec ... | -in graph.txt
//	mprs run  -algo det2 -spec gnp:n=4096,p=0.004 [-machines 8] [-regime linear]
//	          [-epsilon 0.5] [-memory words] [-slack 16] [-chunk 8] [-algo-seed 1]
//	          [-beta 3] [-strict] [-verify]
//	          [-phases]          print the per-phase trace table
//	          [-rounds]          print the per-round communication log
//	          [-spans]           print the per-span (algorithm phase) skew table
//	                             (both read the run's trace events)
//	          [-trace file.jsonl] write the superstep trace as JSONL (with run header)
//	          [-profile prefix]  capture CPU/heap profiles (inproc only)
//	          [-debug-addr host:port] serve live telemetry over HTTP: /metrics
//	                             (Prometheus text), /telemetry.json, pprof;
//	                             on -backend multiproc the supervisor serves the
//	                             merged per-worker fleet view
//	          [-flight-dir dir]  write mprs-flight/1 crash post-mortems (recent
//	                             supersteps of a failed run or killed worker)
//	          [-checkpoint-every 4] snapshot driver state every k supersteps
//	          [-checkpoint-dir dir]  persist durable checkpoints for crash-restart resume
//	          [-resume]          resume from the newest valid checkpoint in -checkpoint-dir
//	          [-checkpoint-retain k] durable checkpoints kept on disk (0 = default 3)
//	          [-members-out file] write the ruling-set member ids, one per line
//	          [-die-at N]        crash-test hook: exit with status 7 once round N commits
//	          [-chaos plan] [-chaos-seed 1] deterministic fault injection
//	                             (machine:crash=0.02, machine:crash@round:machine,
//	                             wire:OP@round:worker, disk:OP@round:worker,
//	                             proc:OP@round:worker — see internal/chaos); inproc
//	                             accepts machine: and disk: events only
//	          [-flap-limit 3] [-max-fleet-restarts 0] [-degraded-fallback]
//	                             multiproc supervision hardening: quarantine flapping
//	                             workers, cap fleet-wide restarts, and degrade to an
//	                             in-process run instead of aborting
//	mprs -version
//
// Algorithms: the entries of rulingset.Algorithms (run -h lists them), plus
// greedy, the sequential baseline.
//
// -slack widens the linear-regime budget to S = slack·n words per machine
// (0 = the simulator default of 4·n).
//
// Durable checkpoints: -checkpoint-dir persists driver state through
// internal/durable (CRC-framed, atomically renamed files keyed by a canonical
// config fingerprint). A later invocation with the same configuration plus
// -resume restarts from the newest valid checkpoint and produces the same
// ruling set — and the same deterministic statistics — as an uninterrupted
// run. The fingerprint holds only the knobs the algorithm reads, so a flag
// it does not read (-beta for det2, -chunk for rand2) is ignored, on -resume
// too. Every MPC entry of the table supports durable checkpointing; the
// congested-clique entries do not. An interrupt (SIGINT/SIGTERM) cancels
// the run cooperatively at the next superstep barrier with a structured
// error reporting the committed round.
//
// Diagnostics (budget violations, errors) go to stderr with a non-zero exit;
// tables and results go to stdout.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/rulingset/mprs/internal/buildinfo"
	"github.com/rulingset/mprs/internal/gen"
	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mprs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mprs <gen|info|run> [flags] (or -version); see -h of each subcommand")
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Println(buildinfo.CLIVersion("mprs"))
		return nil
	case "gen":
		return cmdGen(args[1:])
	case "info":
		return cmdInfo(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "worker":
		return cmdWorker(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, info or run)", args[0])
	}
}

// graphSource carries the shared -spec/-in/-seed flags.
type graphSource struct {
	spec, in *string
	seed     *int64
}

// graphFlags adds the shared -spec/-in/-seed flags.
func graphFlags(fs *flag.FlagSet) graphSource {
	return graphSource{
		spec: fs.String("spec", "", "workload spec, e.g. gnp:n=4096,p=0.004"),
		in:   fs.String("in", "", "read graph from an edge-list file instead"),
		seed: fs.Int64("seed", 1, "generator seed"),
	}
}

func (s graphSource) load() (*graph.Graph, error) {
	switch {
	case *s.spec != "" && *s.in != "":
		return nil, fmt.Errorf("-spec and -in are mutually exclusive")
	case *s.spec != "":
		sp, err := gen.ParseSpec(*s.spec)
		if err != nil {
			return nil, err
		}
		return sp.Build(*s.seed)
	case *s.in != "":
		f, err := os.Open(*s.in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	default:
		return nil, fmt.Errorf("one of -spec or -in is required")
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	src := graphFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := src.load()
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return g.WriteEdgeList(w)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	src := graphFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := src.load()
	if err != nil {
		return err
	}
	_, comps := g.ConnectedComponents()
	tb := metrics.NewTable("graph", "n", "m", "Δ", "avg deg", "components")
	tb.AddRow(g.N(), g.M(), g.MaxDegree(), g.AvgDegree(), comps)
	return tb.Render(os.Stdout)
}

func cmdRun(args []string) (retErr error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	src := graphFlags(fs)
	var (
		algo     = fs.String("algo", "det2", algoUsage())
		machines = fs.Int("machines", 8, "simulated machine count")
		regime   = fs.String("regime", "linear", "memory regime: linear|sublinear|explicit")
		epsilon  = fs.Float64("epsilon", 0.5, "sublinear memory exponent")
		memory   = fs.Int("memory", 0, "explicit per-machine budget in words")
		slack    = fs.Int("slack", 0, "linear-regime budget multiplier S = slack·n (0 = default 4)")
		chunk    = fs.Int("chunk", 8, "derandomizer chunk width z")
		algoSeed = fs.Int64("algo-seed", 1, "seed for randomized algorithms")
		par      = fs.Int("parallelism", 0, "step-execution worker pool size (0 = GOMAXPROCS, 1 = serial); results are bit-identical at every level")
		beta     = fs.Int("beta", 3, "beta for randbeta/detbeta")
		strict   = fs.Bool("strict", false, "fail on budget violations")
		phases   = fs.Bool("phases", false, "print the per-phase trace")
		rounds   = fs.Bool("rounds", false, "print the per-round communication log")
		spans    = fs.Bool("spans", false, "print the per-span (algorithm phase) skew table")
		verify   = fs.Bool("verify", true, "verify independence and radius")

		traceFile = fs.String("trace", "", "write a deterministic JSONL superstep trace to this file")
		profile   = fs.String("profile", "", "capture CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
		debugAddr = fs.String("debug-addr", "", "serve live telemetry (/metrics, /telemetry.json, pprof) on this host:port; on -backend multiproc the supervisor serves the merged fleet view")
		flightDir = fs.String("flight-dir", "", "write mprs-flight/1 crash post-mortems (the recent supersteps of a failed run or killed worker) into this directory")

		ckpt       = fs.Int("checkpoint-every", 0, "snapshot driver state every k supersteps for crash recovery (0 = barrier recovery)")
		ckptDir    = fs.String("checkpoint-dir", "", "persist durable checkpoints to this directory (MPC algorithms; implies -checkpoint-every 8 when unset)")
		resume     = fs.Bool("resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
		ckptRetain = fs.Int("checkpoint-retain", 0, "durable checkpoints kept in -checkpoint-dir (0 = default 3)")
		membersOut = fs.String("members-out", "", "write the ruling-set member ids to this file, one per line")
		dieAt      = fs.Int("die-at", 0, "crash-test hook: exit with status 7 once this round commits (0 = off)")
		statsOut   = fs.String("stats-out", "", "write the canonical (run-independent) statistics as JSON to this file")

		backend     = fs.String("backend", "inproc", "execution backend: inproc|multiproc")
		workers     = fs.Int("workers", 4, "worker process count for -backend multiproc")
		heartbeat   = fs.Duration("heartbeat", 10*time.Second, "multiproc liveness deadline; a worker silent this long is killed and restarted")
		maxRestarts = fs.Int("max-restarts", 2, "multiproc per-worker restart budget (0 = fail-fast)")
		jobTimeout  = fs.Duration("job-timeout", 0, "multiproc hard wall-clock cap on the whole job (0 = none)")
		lifecycle   = fs.String("lifecycle-trace", "", "write the supervisor lifecycle events (starts, kills, backoffs, restarts) as JSONL to this file")

		chaosSpec        = fs.String("chaos", "", "deterministic fault plan, e.g. machine:crash=0.02,machine:crash@5:2,wire:corrupt@6:1,disk:torn@8:0,proc:kill@10:1 (empty = off; inproc accepts machine: and disk: events only)")
		chaosSeed        = fs.Int64("chaos-seed", 1, "seed for the deterministic chaos schedule")
		flapLimit        = fs.Int("flap-limit", supervise.DefaultFlapLimit, "multiproc: quarantine a worker after this many consecutive crashes at one round (negative = never)")
		maxFleetRestarts = fs.Int("max-fleet-restarts", 0, "multiproc: restart budget across the whole fleet (0 = unlimited)")
		degraded         = fs.Bool("degraded-fallback", false, "multiproc: when supervision gives up, finish as a single in-process run resumed from the newest checkpoint instead of aborting (still a failing exit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Resolve the driver before any file is opened; greedy, the one
	// sequential algorithm, is not in the table and keeps the zero entry.
	entry, err := rulingset.LookupAlgorithm(*algo)
	if err != nil && *algo != "greedy" {
		return err
	}
	g, err := src.load()
	if err != nil {
		return err
	}
	var regimeVal mpc.Regime
	switch *regime {
	case "linear":
		regimeVal = mpc.RegimeLinear
	case "sublinear":
		regimeVal = mpc.RegimeSublinear
	case "explicit":
		regimeVal = mpc.RegimeExplicit
	default:
		return fmt.Errorf("unknown regime %q", *regime)
	}
	// The one job description both backends run: multiproc ships it to the
	// workers, and the in-process run takes its Options and checkpoint
	// fingerprint from it.
	spec := supervise.JobSpec{
		Algo:             *algo,
		Beta:             *beta,
		GraphSpec:        *src.spec,
		GraphFile:        *src.in,
		GenSeed:          *src.seed,
		Machines:         *machines,
		Regime:           int(regimeVal),
		Epsilon:          *epsilon,
		MemoryWords:      *memory,
		LinearSlack:      *slack,
		ChunkBits:        *chunk,
		AlgoSeed:         *algoSeed,
		Strict:           *strict,
		Chaos:            *chaosSpec,
		ChaosSeed:        *chaosSeed,
		CheckpointEvery:  *ckpt,
		CheckpointDir:    *ckptDir,
		CheckpointRetain: *ckptRetain,
		TraceFile:        *traceFile,
		Parallelism:      *par,
	}
	if spec.CheckpointDir != "" && spec.CheckpointEvery <= 0 {
		spec.CheckpointEvery = defaultCheckpointEvery
	}
	opts, _, err := spec.Options()
	if err != nil {
		return err
	}

	if *backend == "multiproc" {
		switch {
		case *resume:
			return fmt.Errorf("-backend multiproc: -resume is owned by the supervisor (it restarts crashed workers from their checkpoints itself)")
		case *dieAt > 0:
			return fmt.Errorf("-backend multiproc: use -chaos proc:kill@r:w instead of -die-at")
		case *profile != "":
			return fmt.Errorf("-backend multiproc: -profile captures one process's CPU/heap and would miss the workers; run it on -backend inproc (-debug-addr works here: the supervisor serves the fleet view)")
		}
		return runMultiProc(spec, supervise.Config{
			Workers:          *workers,
			Heartbeat:        *heartbeat,
			MaxRestarts:      *maxRestarts,
			Timeout:          *jobTimeout,
			FlightDir:        *flightDir,
			FlapLimit:        *flapLimit,
			MaxFleetRestarts: *maxFleetRestarts,
			DegradedFallback: *degraded,
			Spawn:            supervise.SelfExec("worker"),
		}, *lifecycle, *debugAddr, runReport{
			algo:       *algo,
			title:      fmt.Sprintf("%s on %v (%d machines, %s regime, %d workers)", *algo, g, *machines, *regime, *workers),
			g:          g,
			phases:     *phases,
			rounds:     *rounds,
			spans:      *spans,
			verify:     *verify,
			membersOut: *membersOut,
			statsOut:   *statsOut,
			faults:     opts.Faults,
		})
	} else if *backend != "inproc" {
		return fmt.Errorf("unknown backend %q (want inproc or multiproc)", *backend)
	}

	if *profile != "" {
		stop, err := startProfiles(*profile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	if *algo == "greedy" {
		if *ckptDir != "" {
			return fmt.Errorf("-checkpoint-dir: algorithm %q does not support durable checkpointing (MPC algorithms only)", *algo)
		}
		for _, f := range []struct {
			name string
			set  bool
		}{{"-stats-out", *statsOut != ""}, {"-phases", *phases}, {"-rounds", *rounds}, {"-spans", *spans}} {
			if f.set {
				return fmt.Errorf("%s: algorithm %q is sequential and has no model statistics, phases, rounds or spans to report", f.name, *algo)
			}
		}
		if *traceFile != "" { // a run without supersteps traces its header alone
			tr, err := spec.CreateTrace(*machines, 0)
			if err != nil {
				return err
			}
			if err := tr.Close(); err != nil {
				return err
			}
		}
		start := time.Now()
		mis := rulingset.GreedyMIS(g)
		fmt.Printf("greedy MIS: %d members in %v\n", len(mis), time.Since(start))
		return writeMembers(*membersOut, mis)
	}

	// Cooperative cancellation: an interrupt cancels the run at the next
	// superstep barrier with a structured error naming the committed round
	// (instead of killing the process mid-write).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	job := supervise.InProc{Context: ctx, Resume: *resume}

	// The -die-at hook, the telemetry collector and the -rounds/-spans log
	// observe the same committed supersteps as the -trace file.
	if *dieAt > 0 {
		job.Sinks = append(job.Sinks, dieAtSink{round: *dieAt})
	}
	// Telemetry is observer-only: the collector feeds the -debug-addr
	// endpoints and the -flight-dir post-mortem, and the run's deterministic
	// outputs (members, canonical stats, trace and checkpoint bytes) are
	// bit-identical with or without it — pinned by test.
	var col *telemetry.Collector
	if *debugAddr != "" || *flightDir != "" {
		col = telemetry.NewCollector(telemetry.CollectorOptions{})
		job.Sinks = append(job.Sinks, col)
	}
	if *flightDir != "" {
		dir := *flightDir
		defer func() {
			if retErr == nil {
				return // flights are post-mortems; successful runs leave none
			}
			evs := col.Recent()
			round := 0
			if len(evs) > 0 {
				round = evs[len(evs)-1].Round
			}
			if _, err := telemetry.WriteFlightFile(dir, telemetry.FlightHeader{
				Worker: -1, Round: round, Kind: "error", Reason: retErr.Error(),
				Algo: *algo, Spec: spec.SpecLabel(),
			}, evs); err != nil {
				fmt.Fprintf(os.Stderr, "mprs: flight recorder: %v\n", err)
			}
		}()
	}
	if *debugAddr != "" {
		ln, err := startDebugServer(*debugAddr, col)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics (also /telemetry.json, /debug/pprof/)\n", ln.Addr())
	}
	var events trace.Log
	if *rounds || *spans {
		job.Sinks = append(job.Sinks, &events)
	}

	start := time.Now()
	res, err := job.Run(spec, g)
	if err != nil {
		return err
	}
	if *resume {
		fmt.Fprintf(os.Stderr, "resuming from durable checkpoint at round %d in %s\n", res.Stats.ResumeReplayRounds, *ckptDir)
	}
	title := fmt.Sprintf("%s on %v (%d machines, %s regime)", *algo, g, *machines, *regime)
	if entry.Clique {
		title = fmt.Sprintf("%s on %v (congested clique, %d nodes)", *algo, g, g.N())
	}
	return reportResult(runReport{
		algo:          *algo,
		title:         title,
		g:             g,
		res:           res,
		wall:          time.Since(start),
		phases:        *phases,
		rounds:        *rounds,
		spans:         *spans,
		log:           events,
		verify:        *verify,
		membersOut:    *membersOut,
		statsOut:      *statsOut,
		faults:        opts.Faults,
		checkpointDir: *ckptDir,
	})
}

// algoUsage is the -algo help text: the table's names in order, then greedy.
func algoUsage() string {
	var b strings.Builder
	for _, a := range rulingset.Algorithms {
		b.WriteString(a.Name + "|")
	}
	return b.String() + "greedy"
}

// defaultCheckpointEvery is the checkpoint cadence -checkpoint-dir implies
// when -checkpoint-every is unset.
const defaultCheckpointEvery = 8

// dieAtSink is the -die-at crash-test hook: a tracer that kills the process
// with exit status 7 once the given round commits. Because durable
// checkpoints are persisted (fsync + atomic rename) at the barrier before a
// round executes, every checkpoint on disk is complete when the exit fires —
// exactly the state a real mid-run crash leaves behind. The resume
// integration test and the CI resume-smoke job drive this flag.
type dieAtSink struct{ round int }

// Superstep implements trace.Tracer.
func (d dieAtSink) Superstep(ev trace.Event) {
	if ev.Round >= d.round {
		fmt.Fprintf(os.Stderr, "mprs: -die-at %d: simulated crash at round %d\n", d.round, ev.Round)
		os.Exit(7)
	}
}

// writeMembers writes the ruling-set member ids one per line, a format
// byte-diffable across runs (ascending order is part of the Result contract).
// An empty path is a no-op so call sites stay unconditional.
func writeMembers(path string, members []int32) error {
	if path == "" {
		return nil
	}
	var b []byte
	for _, v := range members {
		b = fmt.Appendf(b, "%d\n", v)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("members-out: %w", err)
	}
	return nil
}

// startDebugServer exposes the live run state over HTTP: Prometheus metrics
// under /metrics and the JSON snapshot under /telemetry.json (from g: the
// run's Collector in-process, the supervisor's Fleet on multiproc), and
// net/http/pprof under /debug/pprof/. It returns the bound listener so
// callers can report the address (and tests can use port 0). Each run gets a
// fresh mux, so repeated runs in one process never fight over global handler
// registration.
func startDebugServer(addr string, g telemetry.Gatherer) (net.Listener, error) {
	mux := telemetry.Handler(g)
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go http.Serve(ln, mux) //nolint — lifetime is the process; Close unblocks it
	return ln, nil
}

// startProfiles begins a CPU profile and returns a stop function that also
// captures a heap profile — the CLI's file-based -profile capture.
func startProfiles(prefix string) (func() error, error) {
	cf, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cf.Close(); err != nil {
			return err
		}
		hf, err := os.Create(prefix + ".heap.pprof")
		if err != nil {
			return err
		}
		if err := pprof.WriteHeapProfile(hf); err != nil {
			hf.Close()
			return err
		}
		return hf.Close()
	}, nil
}
