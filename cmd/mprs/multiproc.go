package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/rulingset/mprs/internal/graph"
	"github.com/rulingset/mprs/internal/metrics"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/supervise"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
)

// cmdWorker is the hidden `mprs worker` subcommand: the supervisor re-executes
// this binary with the WorkerEnv in the MPRS_SUPERVISE_WORKER environment
// variable, and the worker talks frames over stdin/stdout. Never invoked by
// hand.
func cmdWorker(args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("worker: unexpected arguments %q", args)
	}
	blob := os.Getenv(supervise.EnvSpec)
	if blob == "" {
		return fmt.Errorf("worker: %s not set (this subcommand is spawned by `mprs run -backend multiproc`)", supervise.EnvSpec)
	}
	var env supervise.WorkerEnv
	if err := json.Unmarshal([]byte(blob), &env); err != nil {
		return fmt.Errorf("worker: decode %s: %w", supervise.EnvSpec, err)
	}
	return supervise.WorkerMain(env, os.Stdin, os.Stdout)
}

// runMultiProc is the `mprs run -backend multiproc` path: build the
// self-contained JobSpec, supervise the worker fleet, and report the result
// exactly as the in-process path does.
func runMultiProc(spec supervise.JobSpec, cfg supervise.Config, lifecycle, debugAddr string, rep runReport) error {
	// -rounds and -spans read the job's trace: a temporary file unless
	// -trace names one.
	if (rep.rounds || rep.spans) && spec.TraceFile == "" {
		dir, err := os.MkdirTemp("", "mprs-trace-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spec.TraceFile = filepath.Join(dir, "trace.jsonl")
	}
	if lifecycle != "" {
		f, err := os.Create(lifecycle)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Lifecycle = f
	}
	if debugAddr != "" {
		// The supervisor serves the fleet: every worker's telemetry snapshot
		// (heartbeat-delivered, labeled worker="<id>") merged with the
		// supervisor's own lifecycle gauges.
		fleet := telemetry.NewFleet()
		cfg.Telemetry = fleet
		ln, err := startDebugServer(debugAddr, fleet)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics (fleet view; also /telemetry.json, /debug/pprof/)\n", ln.Addr())
	}
	start := time.Now()
	res, err := supervise.Run(spec, cfg)
	var derr *supervise.DegradedError
	switch {
	case errors.As(err, &derr):
		// A degraded run still produced a correct, bit-identical Result:
		// report it in full (tables, -members-out, -stats-out — the chaos
		// oracle byte-diffs those artifacts), then fail the exit anyway —
		// the multi-process contract was not honored.
		fmt.Fprintf(os.Stderr, "supervisor degraded: worker %d gave out after %d restart(s) (quarantined=%t); resumed in-process from checkpoint round %d\n",
			derr.Worker, derr.Attempts, derr.Quarantined, derr.ResumedFrom)
	case err != nil:
		var serr *supervise.SupervisorError
		if errors.As(err, &serr) {
			fmt.Fprintf(os.Stderr, "supervisor abort: %d committed rounds, worker %d after %d restart(s)\n",
				serr.CommittedRound, serr.Worker, serr.Attempts)
		}
		return err
	}
	rep.res = res
	rep.wall = time.Since(start)
	if rep.rounds || rep.spans {
		var rerr error
		if _, rep.log, rerr = trace.ReadFile(spec.TraceFile); rerr != nil {
			return errors.Join(err, rerr)
		}
	}
	return errors.Join(err, reportResult(rep))
}

// runReport is everything the shared result-reporting block needs; both
// backends funnel through it so their stdout, artifacts and exit behavior
// cannot drift apart.
type runReport struct {
	algo  string
	title string
	g     *graph.Graph

	res  rulingset.Result
	wall time.Duration

	phases, rounds, spans, verify bool
	membersOut, statsOut          string

	// log holds the run's trace events from its first round on (an
	// in-process resume records its replayed rounds, and a multiproc job's
	// trace file is never spliced): -rounds prints them, -spans reduces them.
	log []trace.Event

	faults *mpc.FaultPlan

	// checkpointDir, when set, prints the durable-checkpoints table; empty
	// for multiproc, whose workers own their stores.
	checkpointDir string
}

// reportResult prints the measurement tables, writes the byte-diffable
// artifacts (-members-out, -stats-out), verifies, and turns budget
// violations into a failing exit — the common tail of both backends.
func reportResult(r runReport) error {
	res := r.res
	tb := metrics.NewTable(r.title,
		"members", "beta", "rounds", "messages", "words", "peak sent", "peak recv", "peak resident",
		"skew sent", "gini sent", "violations", "wall")
	tb.AddRow(len(res.Members), res.Beta, res.Stats.Rounds, res.Stats.Messages, res.Stats.Words,
		res.Stats.PeakSent, res.Stats.PeakRecv, res.Stats.PeakResident,
		res.Stats.SkewSent, res.Stats.GiniSent, len(res.Stats.Violations), r.wall.String())
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}

	if r.phases && len(res.Phases) > 0 {
		pt := metrics.NewTable("phase trace", "phase", "j", "active before", "active after",
			"highdeg", "marked", "cand edges", "seed steps", "E[Φ] init", "Φ final")
		for _, ps := range res.Phases {
			pt.AddRow(ps.Phase, ps.J, ps.ActiveBefore, ps.ActiveAfter, ps.HighDegBefore,
				ps.Marked, ps.CandidateEdges, ps.SeedSteps, ps.EstimatorInitial, ps.EstimatorFinal)
		}
		fmt.Println()
		if err := pt.Render(os.Stdout); err != nil {
			return err
		}
	}
	if r.rounds && len(r.log) > 0 {
		rt := metrics.NewTable("round log", "round", "step", "span", "messages", "words", "max sent", "max recv", "gini sent")
		for _, ev := range r.log {
			rt.AddRow(ev.Round, ev.Step, ev.Span, ev.Messages, ev.Words, ev.MaxSent, ev.MaxRecv, ev.GiniSent)
		}
		fmt.Println()
		if err := rt.Render(os.Stdout); err != nil {
			return err
		}
	}
	if r.spans && len(r.log) > 0 {
		st := metrics.NewTable("span skew", "span", "rounds", "messages", "words", "max sent", "max recv", "gini sent", "gini recv")
		for _, sp := range trace.Spans(0, r.log) {
			st.AddRow(sp.Span, sp.Rounds, sp.Messages, sp.Words, sp.MaxSent, sp.MaxRecv, sp.GiniSent, sp.GiniRecv)
		}
		fmt.Println()
		if err := st.Render(os.Stdout); err != nil {
			return err
		}
	}
	if err := writeMembers(r.membersOut, res.Members); err != nil {
		return err
	}
	if err := writeStatsOut(r.statsOut, res.Stats.Canonical()); err != nil {
		return err
	}
	if r.verify {
		if err := rulingset.Check(r.g, res); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Printf("verified: independent, radius <= %d\n", res.Beta)
	}
	if r.checkpointDir != "" {
		// A resumed run replays every round up to its resume round.
		dt := metrics.NewTable("durable checkpoints",
			"dir", "checkpoint bytes", "resumed from", "replayed rounds")
		dt.AddRow(r.checkpointDir, res.Stats.CheckpointBytes, res.Stats.ResumeReplayRounds, res.Stats.ResumeReplayRounds)
		fmt.Println()
		if err := dt.Render(os.Stdout); err != nil {
			return err
		}
	}
	if r.faults.Enabled() {
		ft := metrics.NewTable(fmt.Sprintf("recovery under %s", r.faults),
			"recovered crashes", "recovery rounds", "replayed words", "checkpoint words")
		ft.AddRow(res.Stats.RecoveredCrashes, res.Stats.RecoveryRounds, res.Stats.ReplayedWords,
			res.Stats.CheckpointWords)
		fmt.Println()
		if err := ft.Render(os.Stdout); err != nil {
			return err
		}
	}
	if n := len(res.Stats.Violations); n > 0 {
		for _, v := range res.Stats.Violations {
			fmt.Fprintf(os.Stderr, "budget violation: %s\n", v)
		}
		return fmt.Errorf("%d budget violation(s); first: %s", n, res.Stats.Violations[0])
	}
	return nil
}

// writeStatsOut writes canonical (run-independent) statistics as indented
// JSON — the byte-diffable artifact the CI multiproc-smoke job compares
// across backends. An empty path is a no-op so call sites stay
// unconditional.
func writeStatsOut(path string, st mpc.Stats) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("stats-out: %w", err)
	}
	return nil
}
