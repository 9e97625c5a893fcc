package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/transport"
)

// SpawnFunc builds the (unstarted) worker command for env. The supervisor
// owns the process's stdin/stdout pipes and process group; Spawn only
// chooses the executable, arguments and environment. SelfExec is the usual
// implementation.
type SpawnFunc func(env WorkerEnv) (*exec.Cmd, error)

// SelfExec returns a SpawnFunc that re-executes the current binary with the
// given arguments, passing the WorkerEnv through the EnvSpec environment
// variable — the CLI spawns `mprs worker` this way.
func SelfExec(args ...string) SpawnFunc {
	return func(env WorkerEnv) (*exec.Cmd, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		blob, err := json.Marshal(env)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(exe, args...)
		// cmd.Environ (not os.Environ) so the inherited environment stays
		// subprocess plumbing: it configures the child process and never
		// feeds this process's deterministic computation.
		cmd.Env = append(cmd.Environ(), EnvSpec+"="+string(blob))
		return cmd, nil
	}
}

// Config tunes the supervisor.
type Config struct {
	// Workers is the worker-process count (>= 1); more workers than
	// machines is rejected (a worker must own at least one machine).
	Workers int
	// Heartbeat is the liveness deadline: a worker silent for longer is
	// declared stalled and killed. Workers send heartbeats at a quarter of
	// it. Default 10s.
	Heartbeat time.Duration
	// MaxRestarts is the per-worker restart budget. 0 is fail-fast: the
	// first crash aborts the job with a SupervisorError. N > 0 is
	// retry-N-then-abort.
	MaxRestarts int
	// BackoffInitial and BackoffMax bound the capped exponential restart
	// backoff (initial·2^(attempt−1), capped). Defaults 100ms and 5s.
	BackoffInitial time.Duration
	BackoffMax     time.Duration
	// Timeout, when > 0, is a hard wall-clock cap on the whole job: on
	// expiry every worker process group is killed and Run returns a
	// SupervisorError. The CI/test safety net against wedged workers.
	Timeout time.Duration
	// Lifecycle, when non-nil, receives the JSONL lifecycle stream (see
	// LifecycleSchema).
	Lifecycle io.Writer
	// Telemetry, when non-nil, receives the fleet view: workers attach
	// telemetry snapshots to their heartbeat frames and the supervisor
	// merges them (plus its own lifecycle gauges) into this Fleet — the
	// source behind the CLI's -debug-addr endpoints on the multi-process
	// backend. Purely observational: enabling it changes no deterministic
	// output.
	Telemetry *telemetry.Fleet
	// FlightDir, when set, receives one mprs-flight/1 JSONL artifact per
	// killed or lost worker: the worker's last-reported ring of recent
	// superstep events (carried on its heartbeats), flushed by the
	// supervisor at the moment it declares the worker dead — the
	// post-mortem a SIGKILL would otherwise destroy.
	FlightDir string
	// FlapLimit quarantines a flapping worker: a worker that crashes
	// FlapLimit consecutive times at the same committed round is making no
	// progress (a deterministic crasher the restart loop cannot fix) and is
	// quarantined rather than burning the remaining restart budget. 0 means
	// the default (3); negative disables quarantine.
	FlapLimit int
	// MaxFleetRestarts caps restarts across the whole fleet, distinct from
	// the per-worker MaxRestarts: a restart storm spread over many workers
	// exhausts it even though no single worker hit its own budget. 0 means
	// unlimited.
	MaxFleetRestarts int
	// DegradedFallback controls what happens when supervision gives up
	// (quarantine, restart-storm budget, or a worker out of restarts): false
	// aborts with a SupervisorError (the default, fail-fast contract); true
	// degrades gracefully — kill the fleet, then finish the job as a single
	// in-process run resumed from the newest valid checkpoint, returning the
	// result alongside a structured *DegradedError so callers know the
	// multi-process contract was not honored.
	DegradedFallback bool
	// Spawn builds worker commands; required (use SelfExec).
	Spawn SpawnFunc
}

// DefaultFlapLimit is the consecutive same-round crash count that
// quarantines a worker when Config.FlapLimit is 0.
const DefaultFlapLimit = 3

func (cfg Config) withDefaults() Config {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	if cfg.BackoffInitial <= 0 {
		cfg.BackoffInitial = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.FlapLimit == 0 {
		cfg.FlapLimit = DefaultFlapLimit
	}
	return cfg
}

// SupervisorError reports a job the supervisor had to abort: the restart
// budget ran out, a worker failed deterministically, the job timed out, or
// the replicas diverged. It carries the committed round and the full Stats
// at the abort point (harvested from a surviving worker via an orderly
// stop when one is available), so even an aborted job is a complete
// measurement of the work it committed.
type SupervisorError struct {
	// Worker is the worker whose failure triggered the abort (-1 when no
	// single worker did, e.g. a timeout).
	Worker int
	// Attempts is how many times that worker had been restarted.
	Attempts int
	// CommittedRound is the newest round known committed.
	CommittedRound int
	// Stats is the accumulated model statistics at the abort point; zero
	// when no surviving worker could report them.
	Stats mpc.Stats
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *SupervisorError) Error() string {
	return fmt.Sprintf("supervise: aborted after %d committed rounds (worker %d, %d restarts): %v",
		e.CommittedRound, e.Worker, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *SupervisorError) Unwrap() error { return e.Err }

// DegradedError reports a job that finished, but not under the
// multi-process contract: supervision gave up (a quarantined flapping
// worker, an exhausted restart budget) and the job was completed by a
// single in-process run resumed from the newest valid durable checkpoint.
// Run returns it alongside a valid Result — the answer is correct and
// bit-identical to a clean run's, and callers that care about the
// fault-tolerance contract (CI, benchmarks) must still treat the run as
// failed.
type DegradedError struct {
	// Worker is the worker whose failure exhausted supervision.
	Worker int
	// Attempts is that worker's restart count at the point it gave out.
	Attempts int
	// Quarantined is true when the trigger was flap quarantine or the
	// fleet-wide restart budget rather than the worker's own MaxRestarts.
	Quarantined bool
	// Restarts is the fleet-wide restart count consumed before degrading.
	Restarts int
	// CommittedRound is the newest round the fleet had committed.
	CommittedRound int
	// ResumedFrom is the checkpoint round the fallback resumed from, or -1
	// when it recomputed from scratch.
	ResumedFrom int
	// Stats is the fallback run's full model statistics.
	Stats mpc.Stats
	// Cause is the supervision failure that forced the degrade.
	Cause error
}

// Error implements error.
func (e *DegradedError) Error() string {
	from := "scratch"
	if e.ResumedFrom >= 0 {
		from = fmt.Sprintf("checkpoint round %d", e.ResumedFrom)
	}
	return fmt.Sprintf("supervise: degraded to in-process fallback from %s after %d committed rounds (worker %d, %d attempts, %d fleet restarts): %v",
		from, e.CommittedRound, e.Worker, e.Attempts, e.Restarts, e.Cause)
}

// Unwrap exposes the supervision failure that forced the degrade.
func (e *DegradedError) Unwrap() error { return e.Cause }

// proc states.
const (
	procRunning     = iota
	procWaiting     // killed; restart scheduled after backoff
	procDone        // result received
	procDead        // exited after done, or abandoned during abort
	procQuarantined // flapping or over budget; never restarted again
)

type proc struct {
	id    int
	gen   int // spawn generation; events from older generations are stale
	state int

	cmd   *exec.Cmd
	stdin io.WriteCloser
	outQ  chan transport.Frame
	quit  chan struct{}

	attempts  int
	restartAt time.Time
	lastSeen  time.Time
	lastRound int // newest heartbeat-reported round (monitoring only)
	sentRound int // newest authoritative frame round received (the join point)
	result    []byte

	// Flap tracking: consecutive crashes pinned at the same committed round
	// mean the restart loop is making no progress.
	lastCrashRound int // sentRound at the previous crash; -1 before any
	flaps          int // consecutive crashes at lastCrashRound

	// streamEnded marks that this generation's reader goroutine saw the
	// stream end — the process has exited and can write nothing more. The
	// degraded fallback waits on this before reusing the trace file.
	streamEnded bool
}

type event struct {
	worker, gen int
	frame       transport.Frame
	err         error // non-nil: the worker's stream ended (EOF, torn frame)
	// note, when set, is a chaos-injection notification (the event carries
	// no frame and no stream state; gen is irrelevant).
	note string
}

type supervisor struct {
	spec JobSpec
	cfg  Config
	life *lifecycleWriter
	// fleet merges worker heartbeat telemetry; non-nil whenever the run
	// serves telemetry (cfg.Telemetry) or records flights (cfg.FlightDir —
	// the flight events ride on the same heartbeat payloads).
	fleet *telemetry.Fleet
	// flightErr retains the first flight-artifact write failure, surfaced
	// at Run's end like lifecycle errors: observability failures must not
	// interrupt supervision mid-job.
	flightErr error

	events chan event
	procs  []*proc
	// retained and retainedRound hold the newest authoritative frame per
	// worker. Barrier lockstep keeps workers within one exchange of each
	// other, so the newest frame per peer is exactly what a restarting
	// worker can still need (older rounds it replays locally).
	retained      [][]byte
	retainedRound []int
	// plan is the job's parsed fault plan; kills are its proc:kill events.
	plan      *chaos.Plan
	kills     []chaos.ProcEvent
	killFired []bool

	// wire is the chaos frame interposer (nil without wire events).
	wire *chaos.Wire
	// restartsUsed counts restarts across the fleet against
	// cfg.MaxFleetRestarts.
	restartsUsed int

	aborting      bool
	abortErr      *SupervisorError
	abortHarvest  bool
	abortDeadline time.Time
	deadline      time.Time

	// Degraded-fallback state: degrading flips when supervision gives up
	// with DegradedFallback set. The fallback itself runs from Run's event
	// loop (fallbackRun is a free function over Run's own spec parameter —
	// deliberately not a method, so the deterministic fallback never reads
	// through the wall-clock-tainted supervisor), and leaves its outcome
	// here for finished().
	degrading   bool
	degradeDone bool
	degradedRes rulingset.Result
	degradeErr  error
	degradePend degradeInfo
}

// degradeInfo is what beginDegrade records for the event loop to finish the
// degradation with: who gave out and why.
type degradeInfo struct {
	worker      int
	attempts    int
	quarantined bool
	committed   int
	cause       error
}

// Run executes spec across cfg.Workers supervised worker processes and
// returns worker 0's result after verifying all workers returned identical
// deterministic results. On abort it returns a *SupervisorError.
func Run(spec JobSpec, cfg Config) (rulingset.Result, error) {
	cfg = cfg.withDefaults()
	if err := spec.Validate(); err != nil {
		return rulingset.Result{}, err
	}
	if cfg.Workers < 1 {
		return rulingset.Result{}, fmt.Errorf("supervise: workers %d < 1", cfg.Workers)
	}
	if cfg.Workers > MaxWorkers {
		return rulingset.Result{}, fmt.Errorf("supervise: workers %d > MaxWorkers %d", cfg.Workers, MaxWorkers)
	}
	if cfg.Workers > spec.Machines {
		return rulingset.Result{}, fmt.Errorf("supervise: %d workers > %d machines (every worker must own at least one machine)", cfg.Workers, spec.Machines)
	}
	if cfg.Spawn == nil {
		return rulingset.Result{}, fmt.Errorf("supervise: Config.Spawn is required (see SelfExec)")
	}
	plan, err := chaos.Parse(spec.Chaos, spec.ChaosSeed)
	if err != nil {
		return rulingset.Result{}, err
	}
	if err := plan.ValidateWorkers(cfg.Workers); err != nil {
		return rulingset.Result{}, err
	}
	fleet := cfg.Telemetry
	if fleet == nil && cfg.FlightDir != "" {
		fleet = telemetry.NewFleet()
	}
	s := &supervisor{
		spec:          spec,
		cfg:           cfg,
		fleet:         fleet,
		life:          newLifecycleWriter(cfg.Lifecycle, LifecycleHeader{Workers: cfg.Workers, HeartbeatMS: cfg.Heartbeat.Milliseconds(), MaxRestarts: cfg.MaxRestarts}),
		events:        make(chan event, 32*cfg.Workers),
		procs:         make([]*proc, cfg.Workers),
		retained:      make([][]byte, cfg.Workers),
		retainedRound: make([]int, cfg.Workers),
		plan:          plan,
		kills:         plan.Kills(),
	}
	s.killFired = make([]bool, len(s.kills))
	// Wire chaos interposes on the worker pipes; fired events surface on the
	// lifecycle stream via note events (non-blocking: dropping a note loses
	// an observability line, never supervision).
	s.wire = chaos.NewWire(plan, func(worker int, note string) {
		select {
		case s.events <- event{worker: worker, note: note}:
		default:
		}
	})
	if cfg.Timeout > 0 {
		s.deadline = time.Now().Add(cfg.Timeout)
	}
	for i := range s.procs {
		s.procs[i] = &proc{id: i, lastCrashRound: -1}
		if err := s.spawn(s.procs[i], 0, false); err != nil {
			s.killAll()
			return rulingset.Result{}, err
		}
	}
	defer s.killAll()

	tickEvery := cfg.Heartbeat / 4
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	// A waiting worker restarts when its backoff ends, not at the next
	// tick: restart is armed at the earliest restartAt (armedAt), and a
	// clean run never arms it.
	var restart *time.Timer
	var restartC <-chan time.Time
	var armedAt time.Time
	defer func() {
		if restart != nil {
			restart.Stop()
		}
	}()
	for {
		select {
		case ev := <-s.events:
			s.handle(ev, time.Now())
		case now := <-ticker.C:
			s.tick(now)
		case now := <-restartC:
			restartC, armedAt = nil, time.Time{}
			s.tick(now)
		}
		if s.degrading && !s.degradeDone {
			// Supervision gave up: wait for the killed fleet's streams to
			// end (stream EOF proves each process — the only writer of its
			// pipes and trace file — is gone), then finish the job with a
			// single in-process run. fallbackRun takes Run's own spec, not
			// the supervisor's copy: the fallback is deterministic.
			s.drainStreams()
			s.completeDegrade(fallbackRun(spec, cfg.Workers))
		}
		if res, err, done := s.finished(); done {
			if err == nil && s.life.err != nil {
				err = s.life.err
			}
			if err == nil && s.flightErr != nil {
				err = s.flightErr
			}
			return res, err
		}
		if at := s.nextRestart(); !at.Equal(armedAt) {
			if restart != nil {
				restart.Stop()
			}
			restartC, armedAt = nil, at
			if !at.IsZero() {
				restart = time.NewTimer(time.Until(at))
				restartC = restart.C
			}
		}
	}
}

// spawn starts (or restarts) p with the given join round.
func (s *supervisor) spawn(p *proc, joinAfter int, resume bool) error {
	env := WorkerEnv{
		Spec:        s.spec,
		Worker:      p.id,
		Workers:     s.cfg.Workers,
		JoinAfter:   joinAfter,
		Resume:      resume,
		Attempt:     p.attempts,
		HeartbeatMS: s.cfg.Heartbeat.Milliseconds(),
		Telemetry:   s.fleet != nil,
	}
	cmd, err := s.cfg.Spawn(env)
	if err != nil {
		return fmt.Errorf("supervise: spawn worker %d: %w", p.id, err)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	cmd.Stderr = os.Stderr
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("supervise: start worker %d: %w", p.id, err)
	}
	p.gen++
	p.state = procRunning
	p.cmd = cmd
	p.stdin = stdin
	p.outQ = make(chan transport.Frame, 4096)
	p.quit = make(chan struct{})
	p.lastSeen = time.Now()
	p.sentRound = joinAfter
	p.streamEnded = false
	kind := "start"
	if p.attempts > 0 {
		kind = "restart"
	}
	s.life.emit(LifecycleEvent{Kind: kind, Worker: p.id, Round: joinAfter, Attempt: p.attempts})
	if s.fleet != nil {
		s.fleet.SetLifecycle(p.id, telemetry.WorkerRunning, p.attempts, 0)
		s.fleet.SetRound(p.id, joinAfter)
	}

	// Writer: drains the outbound queue onto the worker's stdin. A
	// dedicated goroutine per worker so one slow or wedged pipe can never
	// block the hub (the stall deadline deals with the wedged worker). The
	// chaos downlink (nil without a reorder event for this worker) may hold
	// frames to deliver them out of order.
	go func(stdin io.WriteCloser, q chan transport.Frame, quit chan struct{}, dl *chaos.Downlink) {
		defer func() {
			if err := stdin.Close(); err != nil {
				_ = err // pipe already broken; the process is gone either way
			}
		}()
		for {
			select {
			case <-quit:
				return
			case f := <-q:
				if err := dl.Write(stdin, f); err != nil {
					<-quit // write end broken: the process died; wait for the supervisor to notice
					return
				}
			}
		}
	}(stdin, p.outQ, p.quit, s.wire.Downlink(p.id))

	// Reader: turns the worker's stream into events. Any read error —
	// clean EOF or a torn frame from a mid-write kill — ends the stream
	// with an error event; cmd.Wait then reaps the process. The chaos
	// uplink (the source reader itself without wire events) mutates frames
	// per the plan before this side ever parses them.
	go func(r io.Reader, id, gen int, cmd *exec.Cmd) {
		conn := transport.NewConn(s.wire.Uplink(id, r), io.Discard)
		for {
			f, err := conn.Read()
			if err != nil {
				s.events <- event{worker: id, gen: gen, err: err}
				break
			}
			s.events <- event{worker: id, gen: gen, frame: f}
		}
		if err := cmd.Wait(); err != nil {
			_ = err // exit status is diagnostic only; the stream end already carries the failure
		}
	}(stdout, p.id, p.gen, cmd)

	// Re-deliver the retained newest frames a restarting worker still
	// needs: every peer frame beyond its join round.
	for q := 0; q < s.cfg.Workers; q++ {
		if q != p.id && s.retained[q] != nil && s.retainedRound[q] > joinAfter {
			s.enqueue(p, transport.Frame{Type: transport.FrameMessages, Worker: q, Round: s.retainedRound[q], Payload: s.retained[q]})
		}
	}
	return nil
}

// enqueue hands a frame to p's writer. The queue is sized far beyond the
// one-exchange-in-flight protocol bound, so overflow means the worker has
// wedged with a full pipe — treat it as a stall rather than block the hub.
func (s *supervisor) enqueue(p *proc, f transport.Frame) {
	select {
	case p.outQ <- f:
	default:
		s.crash(p, fmt.Errorf("supervise: worker %d outbound queue overflow", p.id), "stall")
	}
}

func (s *supervisor) handle(ev event, now time.Time) {
	p := s.procs[ev.worker]
	if ev.note != "" {
		// A chaos injection fired; record it on the lifecycle stream. Not a
		// frame and not stream state — generation is irrelevant.
		s.life.emit(LifecycleEvent{Kind: "chaos", Worker: ev.worker, Round: p.sentRound, Attempt: p.attempts, Note: ev.note})
		return
	}
	if ev.gen != p.gen {
		return // stale stream from a generation we already killed
	}
	if ev.err != nil {
		p.streamEnded = true
		switch p.state {
		case procDone:
			p.state = procDead // clean exit after its result
		case procRunning:
			if s.aborting || s.degrading {
				p.state = procDead
				return
			}
			cause := ev.err
			if errors.Is(cause, io.EOF) {
				cause = fmt.Errorf("supervise: worker %d exited without a result", p.id)
			}
			s.crash(p, cause, "crash")
		}
		return
	}
	if s.degrading {
		return // the fleet is being torn down; frames no longer matter
	}
	if p.state != procRunning {
		// A frame the process wrote before its kill took effect: a killed
		// worker's generation lives on until its restart, and with its
		// peers' retained frames already delivered it can finish the round
		// it was killed at and send the next one. The kill decided its
		// fate; the restart rejoins after sentRound, so acting on the
		// frame would misplace the flap round or let the dying process's
		// broken-pipe error abort the job.
		return
	}
	p.lastSeen = now
	f := ev.frame
	switch f.Type {
	case transport.FrameHello:
		// Liveness signal only; the join round was assigned by us.
	case transport.FrameHeartbeat:
		if f.Round > p.lastRound {
			p.lastRound = f.Round
		}
		if s.fleet != nil {
			s.fleet.SetRound(p.id, f.Round)
			if hb, err := transport.DecodeHeartbeat(f.Payload); err == nil && len(hb.Telemetry) > 0 {
				if err := s.fleet.UpdateTelemetry(p.id, hb.Telemetry); err != nil {
					_ = err // foreign-schema payload: keep the previous snapshot, liveness already counted
				}
			}
		}
	case transport.FrameMessages:
		if s.plan.FlapsAt(p.id, f.Round) {
			// The flap kill discards the triggering frame BEFORE any relay
			// or retention: the worker's committed round stays pinned, so
			// every restarted incarnation replays to the same round and dies
			// there again — the crash loop quarantine exists to catch.
			s.life.emit(LifecycleEvent{Kind: "chaos", Worker: p.id, Round: f.Round, Attempt: p.attempts, Note: fmt.Sprintf("proc:flap kill at round %d", f.Round)})
			s.crash(p, fmt.Errorf("supervise: injected flap kill of worker %d at round %d", p.id, f.Round), "crash")
			return
		}
		if f.Round > p.lastRound {
			p.lastRound = f.Round
		}
		if s.fleet != nil {
			s.fleet.SetRound(p.id, f.Round)
		}
		if f.Round > p.sentRound {
			// No-regress guard: a reordering link can deliver round r after
			// r+1; the retained slot and the restart join point must only
			// ever move forward. The frame itself is still relayed — peers
			// handle out-of-order delivery via their stash.
			p.sentRound = f.Round
			s.retained[p.id] = f.Payload
			s.retainedRound[p.id] = f.Round
		}
		for _, q := range s.procs {
			if q.id != p.id && q.state == procRunning {
				s.enqueue(q, f)
			}
		}
		s.checkKills(p, f.Round)
	case transport.FrameResult:
		p.result = f.Payload
		p.state = procDone
		s.life.emit(LifecycleEvent{Kind: "result", Worker: p.id, Round: f.Round, Attempt: p.attempts})
		if s.fleet != nil {
			s.fleet.SetLifecycle(p.id, telemetry.WorkerDone, p.attempts, 0)
			s.fleet.SetRound(p.id, f.Round)
		}
	case transport.FrameError:
		var we workerError
		if err := json.Unmarshal(f.Payload, &we); err != nil {
			we = workerError{Message: fmt.Sprintf("undecodable worker error: %v", err)}
		}
		if s.aborting {
			// The stats harvest from an orderly stop.
			if we.Stopped && !s.abortHarvest {
				s.abortHarvest = true
				s.abortErr.CommittedRound = we.Round
				s.abortErr.Stats = we.Stats
			}
			p.state = procDead
			return
		}
		if we.Retryable {
			// The worker classified its own failure as environmental (a
			// failed checkpoint persist: the previous valid checkpoint is
			// still on disk). Retrying can help, so this is a crash, not a
			// deterministic abort.
			s.life.emit(LifecycleEvent{Kind: "error", Worker: p.id, Round: we.Round, Attempt: p.attempts, Note: "retryable: " + we.Message})
			s.crash(p, errors.New(we.Message), "crash")
			return
		}
		// A worker failed deterministically (algorithm error, divergence,
		// strict-mode violation): every replica would fail the same way, so
		// restarting cannot help. Abort with the worker's own report.
		s.life.emit(LifecycleEvent{Kind: "error", Worker: p.id, Round: we.Round, Attempt: p.attempts, Note: we.Message})
		s.beginAbort(p, errors.New(we.Message), &we)
	}
}

// checkKills fires pending proc:kill events triggered by p's deterministic
// superstep progress.
func (s *supervisor) checkKills(p *proc, round int) {
	for i, k := range s.kills {
		if !s.killFired[i] && k.Worker == p.id && round >= k.Round {
			s.killFired[i] = true
			s.life.emit(LifecycleEvent{Kind: "kill", Worker: p.id, Round: round, Attempt: p.attempts})
			s.crash(p, fmt.Errorf("supervise: injected kill of worker %d at round %d", p.id, round), "crash")
			return
		}
	}
}

// crash kills p's process group and either schedules its restart,
// quarantines it (flapping at one round, or the fleet restart budget is
// spent), or gives up supervision (abort, or the degraded fallback). kind
// labels the lifecycle event ("crash" or "stall").
func (s *supervisor) crash(p *proc, cause error, kind string) {
	if p.state != procRunning {
		return
	}
	s.stop(p)
	s.life.emit(LifecycleEvent{Kind: kind, Worker: p.id, Round: p.sentRound, Attempt: p.attempts, Note: cause.Error()})
	s.flushFlight(p, kind, cause)
	if p.sentRound == p.lastCrashRound {
		p.flaps++
	} else {
		p.lastCrashRound = p.sentRound
		p.flaps = 1
	}
	if s.cfg.FlapLimit > 0 && p.flaps >= s.cfg.FlapLimit {
		s.quarantine(p, fmt.Errorf("supervise: worker %d crashed %d consecutive times at round %d: %w",
			p.id, p.flaps, p.sentRound, cause))
		return
	}
	if p.attempts >= s.cfg.MaxRestarts {
		p.state = procDead
		if s.fleet != nil {
			s.fleet.SetLifecycle(p.id, telemetry.WorkerDead, p.attempts, 0)
		}
		s.giveUp(p, cause, false)
		return
	}
	if s.cfg.MaxFleetRestarts > 0 && s.restartsUsed >= s.cfg.MaxFleetRestarts {
		s.quarantine(p, fmt.Errorf("supervise: fleet restart budget %d exhausted at worker %d: %w",
			s.cfg.MaxFleetRestarts, p.id, cause))
		return
	}
	p.attempts++
	s.restartsUsed++
	backoff := backoffFor(p.attempts, s.cfg.BackoffInitial, s.cfg.BackoffMax)
	p.state = procWaiting
	p.restartAt = time.Now().Add(backoff)
	s.life.emit(LifecycleEvent{Kind: "backoff", Worker: p.id, Round: p.sentRound, Attempt: p.attempts, BackoffMS: backoff.Milliseconds()})
	if s.fleet != nil {
		s.fleet.SetLifecycle(p.id, telemetry.WorkerBackoff, p.attempts, backoff.Milliseconds())
	}
}

// backoffFor computes the capped exponential restart backoff
// initial·2^(attempt−1) with explicit shift saturation: any attempt whose
// doubling would overflow — or merely exceed the cap — lands exactly on
// max. (A plain initial << (attempt-1) overflows into negative durations
// once attempt-1 reaches the width of the type; with a busy flapping worker
// attempts grow without bound, so saturation must be structural, not
// assumed.)
func backoffFor(attempt int, initial, max time.Duration) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	shift := uint(attempt - 1)
	if shift >= 63 || initial > max>>shift {
		return max
	}
	return initial << shift
}

// quarantine permanently retires p — no further restarts — and gives up
// supervision: flapping at a single round or blowing the fleet-wide budget
// means the crash-restart loop is not converging.
func (s *supervisor) quarantine(p *proc, cause error) {
	p.state = procQuarantined
	s.life.emit(LifecycleEvent{Kind: "quarantine", Worker: p.id, Round: p.sentRound, Attempt: p.attempts, Note: cause.Error()})
	if s.fleet != nil {
		s.fleet.SetLifecycle(p.id, telemetry.WorkerQuarantined, p.attempts, 0)
	}
	s.giveUp(p, cause, true)
}

// giveUp routes a supervision failure to the configured terminal path:
// degraded in-process fallback or orderly abort.
func (s *supervisor) giveUp(p *proc, cause error, quarantined bool) {
	if s.cfg.DegradedFallback {
		s.beginDegrade(p, cause, quarantined)
		return
	}
	s.beginAbort(p, cause, nil)
}

// flushFlight writes the dying worker's post-mortem: the ring of recent
// superstep events its heartbeats last reported, under an mprs-flight/1
// header naming the trigger. Runs at the moment the supervisor declares the
// worker dead — the worker itself (SIGKILLed or wedged) can flush nothing.
// Write failures are retained, not fatal: losing a post-mortem must not kill
// a job that can still restart its worker.
func (s *supervisor) flushFlight(p *proc, kind string, cause error) {
	if s.cfg.FlightDir == "" || s.fleet == nil {
		return
	}
	hdr := telemetry.FlightHeader{
		Worker:  p.id,
		Attempt: p.attempts,
		Round:   p.sentRound,
		Kind:    kind,
		Reason:  cause.Error(),
		Algo:    s.spec.Algo,
		Spec:    s.spec.SpecLabel(),
	}
	if _, err := telemetry.WriteFlightFile(s.cfg.FlightDir, hdr, s.fleet.Recent(p.id)); err != nil && s.flightErr == nil {
		s.flightErr = fmt.Errorf("supervise: flight recorder: %w", err)
	}
}

// stop tears down p's process: quit the writer, kill the process group.
func (s *supervisor) stop(p *proc) {
	select {
	case <-p.quit:
	default:
		close(p.quit)
	}
	killProcGroup(p.cmd)
}

// beginAbort starts the orderly abort: record the error, ask one surviving
// worker to stop at its next barrier so it reports the committed round and
// full Stats, and give the harvest a bounded grace period.
func (s *supervisor) beginAbort(from *proc, cause error, we *workerError) {
	if s.aborting {
		return
	}
	s.aborting = true
	worker := -1
	attempts := 0
	if from != nil {
		worker = from.id
		attempts = from.attempts
	}
	committed := 0
	for _, p := range s.procs {
		if p.sentRound > committed {
			committed = p.sentRound
		}
	}
	s.abortErr = &SupervisorError{Worker: worker, Attempts: attempts, CommittedRound: committed, Err: cause}
	if we != nil {
		// The failing worker already reported its round and Stats.
		s.abortHarvest = true
		s.abortErr.CommittedRound = we.Round
		s.abortErr.Stats = we.Stats
	}
	s.life.emit(LifecycleEvent{Kind: "abort", Worker: worker, Round: s.abortErr.CommittedRound, Attempt: attempts, Note: cause.Error()})
	stopped := false
	for _, p := range s.procs {
		if p.state == procRunning {
			if !s.abortHarvest && !stopped {
				stopped = true
				s.life.emit(LifecycleEvent{Kind: "stop", Worker: p.id, Round: p.sentRound})
				s.enqueue(p, transport.Frame{Type: transport.FrameStop, Worker: p.id})
			}
		}
	}
	if s.abortHarvest || !stopped {
		s.abortDeadline = time.Now()
		return
	}
	s.abortDeadline = time.Now().Add(2 * s.cfg.Heartbeat)
}

// beginDegrade is the graceful-degradation path: kill the fleet, wait for
// every stream to actually end (a SIGKILLed worker that has not exited yet
// could still race the fallback for the trace file), then finish the job as
// a single in-process run resumed from the newest valid checkpoint. The
// fallback runs synchronously — the event loop has nothing left to
// supervise.
func (s *supervisor) beginDegrade(from *proc, cause error, quarantined bool) {
	if s.degrading || s.aborting {
		return
	}
	s.degrading = true
	committed := 0
	for _, p := range s.procs {
		if p.sentRound > committed {
			committed = p.sentRound
		}
	}
	s.life.emit(LifecycleEvent{Kind: "degrade", Worker: from.id, Round: committed, Attempt: from.attempts, Note: cause.Error()})
	if s.fleet != nil {
		s.fleet.SetDegraded(true)
	}
	s.killAll()
	s.degradePend = degradeInfo{
		worker:      from.id,
		attempts:    from.attempts,
		quarantined: quarantined,
		committed:   committed,
		cause:       cause,
	}
	// Run's event loop drains the dying streams and invokes the fallback —
	// with its own untainted copy of the job spec — then completeDegrade
	// records the outcome.
}

// completeDegrade records the fallback's outcome for finished().
func (s *supervisor) completeDegrade(res rulingset.Result, resumedFrom int, err error) {
	d := s.degradePend
	if err != nil {
		// Even the fallback failed: report as a plain supervisor abort
		// carrying both causes.
		s.degradeErr = &SupervisorError{
			Worker:         d.worker,
			Attempts:       d.attempts,
			CommittedRound: d.committed,
			Err:            fmt.Errorf("degraded fallback failed: %w (supervision gave up: %w)", err, d.cause),
		}
		s.degradeDone = true
		return
	}
	s.degradedRes = res
	s.degradeErr = &DegradedError{
		Worker:         d.worker,
		Attempts:       d.attempts,
		Quarantined:    d.quarantined,
		Restarts:       s.restartsUsed,
		CommittedRound: d.committed,
		ResumedFrom:    resumedFrom,
		Stats:          res.Stats,
		Cause:          d.cause,
	}
	s.life.emit(LifecycleEvent{Kind: "done", Worker: d.worker, Round: res.Stats.Rounds, Note: "degraded fallback"})
	s.degradeDone = true
}

// drainStreams blocks until every spawned worker's current stream has ended
// (its process has exited) or a grace deadline passes. SIGKILL delivery is
// asynchronous; stream EOF is the proof the process — the only writer of
// its pipes and trace file — is actually gone.
func (s *supervisor) drainStreams() {
	deadline := time.NewTimer(2 * s.cfg.Heartbeat)
	defer deadline.Stop()
	for {
		pending := false
		for _, p := range s.procs {
			if p.cmd != nil && !p.streamEnded {
				pending = true
			}
		}
		if !pending {
			return
		}
		select {
		case ev := <-s.events:
			if ev.note != "" || ev.err == nil {
				continue // late frames and chaos notes no longer matter
			}
			if p := s.procs[ev.worker]; ev.gen == p.gen {
				p.streamEnded = true
				p.state = procDead
			}
		case <-deadline.C:
			return
		}
	}
}

// fallbackRun finishes the job in-process: resume from the newest valid
// checkpoint any worker persisted (they are replicas — any worker's
// checkpoint resumes the whole job), recreate the trace file so its bytes
// match an uninterrupted run's, and run the algorithm to completion. No
// checkpoint sink: there is no supervisor left to resume from anything this
// run would persist. Deliberately a free function over Run's own parameters
// rather than a supervisor method: the fallback is a deterministic run, and
// its inputs must not flow through the wall-clock-carrying supervisor state.
func fallbackRun(spec JobSpec, workers int) (rulingset.Result, int, error) {
	resumedFrom := -1
	g, err := spec.BuildGraph()
	if err != nil {
		return rulingset.Result{}, resumedFrom, err
	}
	opts, _, err := spec.Options()
	if err != nil {
		return rulingset.Result{}, resumedFrom, err
	}
	if spec.CheckpointDir != "" {
		var best *mpc.ResumeState
		for w := 0; w < workers; w++ {
			store, err := spec.openStoreFS(spec.workerCheckpointDir(w), nil)
			if err != nil {
				continue // this worker's directory is unusable; others may not be
			}
			meta, state, err := store.LoadLatest()
			if err != nil {
				continue // no valid checkpoint here (torn, empty, or foreign)
			}
			if best == nil || meta.Round > best.Round {
				best = &mpc.ResumeState{Round: meta.Round, State: state}
			}
		}
		// A round-0 baseline is equivalent to starting from scratch.
		if best != nil && best.Round > 0 {
			opts.Resume = best
			resumedFrom = best.Round
		}
	}
	res, err := spec.solve(g, opts, true, false, nil)
	return res, resumedFrom, err
}

func (s *supervisor) tick(now time.Time) {
	if s.aborting || s.degrading {
		return // finishing is handled in finished()
	}
	if !s.deadline.IsZero() && now.After(s.deadline) {
		s.beginAbort(nil, fmt.Errorf("supervise: job timeout %v exceeded", s.cfg.Timeout), nil)
		return
	}
	for _, p := range s.procs {
		switch p.state {
		case procRunning:
			if now.Sub(p.lastSeen) > s.cfg.Heartbeat {
				s.crash(p, fmt.Errorf("supervise: worker %d missed its heartbeat deadline %v", p.id, s.cfg.Heartbeat), "stall")
			}
		case procWaiting:
			if !now.Before(p.restartAt) {
				if err := s.spawn(p, p.sentRound, s.spec.CheckpointDir != ""); err != nil {
					s.beginAbort(p, err, nil)
					return
				}
			}
		}
	}
}

// nextRestart returns the earliest restartAt of a waiting worker, or the
// zero time when none will be restarted.
func (s *supervisor) nextRestart() time.Time {
	var at time.Time
	if s.aborting || s.degrading {
		return at
	}
	for _, p := range s.procs {
		if p.state == procWaiting && (at.IsZero() || p.restartAt.Before(at)) {
			at = p.restartAt
		}
	}
	return at
}

// finished reports whether the run is over and with what.
func (s *supervisor) finished() (rulingset.Result, error, bool) {
	if s.degrading {
		if s.degradeDone {
			s.killAll()
			return s.degradedRes, s.degradeErr, true
		}
		return rulingset.Result{}, nil, false
	}
	if s.aborting {
		if s.abortHarvest || time.Now().After(s.abortDeadline) {
			s.killAll()
			return rulingset.Result{}, s.abortErr, true
		}
		return rulingset.Result{}, nil, false
	}
	for _, p := range s.procs {
		if p.state != procDone && p.state != procDead {
			return rulingset.Result{}, nil, false
		}
		if p.result == nil {
			return rulingset.Result{}, nil, false
		}
	}
	res, err := s.assemble()
	if err != nil {
		return rulingset.Result{}, err, true
	}
	s.life.emit(LifecycleEvent{Kind: "done", Worker: 0, Round: res.Stats.Rounds})
	return res, nil, true
}

// assemble decodes every worker's result, verifies the deterministic
// columns agree bit-for-bit, and returns worker 0's.
func (s *supervisor) assemble() (rulingset.Result, error) {
	canon := make([][]byte, s.cfg.Workers)
	var first rulingset.Result
	for i, p := range s.procs {
		var res rulingset.Result
		if err := json.Unmarshal(p.result, &res); err != nil {
			return rulingset.Result{}, fmt.Errorf("supervise: worker %d result: %w", i, err)
		}
		if i == 0 {
			first = res
		}
		c, err := json.Marshal(canonicalResult(res))
		if err != nil {
			return rulingset.Result{}, err
		}
		canon[i] = c
	}
	for i := 1; i < len(canon); i++ {
		if !bytes.Equal(canon[0], canon[i]) {
			return rulingset.Result{}, &SupervisorError{
				Worker:         i,
				CommittedRound: first.Stats.Rounds,
				Stats:          first.Stats,
				Err:            fmt.Errorf("%w: worker %d's result differs from worker 0's", transport.ErrDiverged, i),
			}
		}
	}
	return first, nil
}

// canonicalResult zeroes the columns documented as host/run-dependent —
// durable-checkpoint volume and resume replay overhead — which legitimately
// differ between a restarted worker and an uninterrupted one. Everything
// else must match bit-for-bit.
func canonicalResult(res rulingset.Result) rulingset.Result {
	res.Stats = res.Stats.Canonical()
	return res
}

// killAll tears down every worker process group (idempotent; used for both
// abort and end-of-run cleanup).
func (s *supervisor) killAll() {
	for _, p := range s.procs {
		if p != nil && p.cmd != nil {
			s.stop(p)
		}
	}
}
