package supervise

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/rulingset/mprs/internal/chaos"
	"github.com/rulingset/mprs/internal/durable"
	"github.com/rulingset/mprs/internal/mpc"
	"github.com/rulingset/mprs/internal/rulingset"
	"github.com/rulingset/mprs/internal/telemetry"
	"github.com/rulingset/mprs/internal/trace"
	"github.com/rulingset/mprs/internal/transport"
)

// EnvSpec is the environment variable carrying the JSON-encoded WorkerEnv to
// a worker process.
const EnvSpec = "MPRS_SUPERVISE_WORKER"

// WorkerEnv is everything a worker process needs: the job, its identity, and
// its restart state.
type WorkerEnv struct {
	Spec JobSpec `json:"spec"`
	// Worker and Workers identify this worker among its peers.
	Worker  int `json:"worker"`
	Workers int `json:"workers"`
	// JoinAfter is the newest round whose authoritative frame from this
	// worker the supervisor has received: rounds up to and including it
	// exchange locally (deterministic replay of what the group already
	// completed); later rounds go on the wire. 0 for a fresh start.
	JoinAfter int `json:"join_after"`
	// Resume asks the worker to restart from the newest valid durable
	// checkpoint in its checkpoint subdirectory (no-op when the directory
	// holds none — the worker then recomputes from round 1).
	Resume bool `json:"resume"`
	// Attempt is this incarnation's restart count (0 for the first spawn).
	// Chaos disk events fire only at attempt 0: they model transient
	// environment failures, so a retry must run clean.
	Attempt int `json:"attempt,omitempty"`
	// HeartbeatMS is the supervisor's liveness deadline; the worker sends
	// heartbeats at a quarter of it.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// Telemetry asks the worker to run a telemetry collector and attach its
	// snapshot (series + flight-recorder ring) to every heartbeat frame.
	// Observational only: the deterministic outputs are bit-identical either
	// way, and an older worker binary simply ignores the field.
	Telemetry bool `json:"telemetry,omitempty"`
}

// workerError is the Error-frame payload: the failure, structured so the
// supervisor can surface the committed round and full Stats.
type workerError struct {
	Message string    `json:"message"`
	Round   int       `json:"round"`
	Stats   mpc.Stats `json:"stats"`
	// Stopped marks an orderly supervisor-requested stop rather than a
	// failure of the worker's own run.
	Stopped bool `json:"stopped,omitempty"`
	// Retryable marks an environmental failure (a failed checkpoint
	// persist: the previous valid checkpoint is still on disk) rather than
	// a deterministic one — the supervisor may restart this worker instead
	// of aborting the job.
	Retryable bool `json:"retryable,omitempty"`
}

// WorkerMain is the entry point of a worker process: it runs the job over
// the frame connection (stdin/stdout when spawned by the supervisor) and
// sends exactly one Result or Error frame before returning. The returned
// error is the run's failure, for the worker's own exit status; the
// supervisor learns everything it needs from the frames.
func WorkerMain(env WorkerEnv, in io.Reader, out io.Writer) error {
	conn := transport.NewConn(in, out)
	res, err := runWorker(env, conn)
	if err != nil {
		we := workerError{Message: err.Error()}
		var te *mpc.TransportError
		var ce *mpc.CancelError
		switch {
		case errors.As(err, &te):
			we.Round, we.Stats = te.Round, te.Stats
			we.Stopped = errors.Is(err, transport.ErrStopped)
		case errors.As(err, &ce):
			we.Round, we.Stats = ce.Round, ce.Stats
		}
		we.Retryable = errors.Is(err, durable.ErrPersist)
		payload, merr := json.Marshal(we)
		if merr != nil {
			payload = nil
		}
		if werr := conn.Write(transport.Frame{Type: transport.FrameError, Worker: env.Worker, Round: we.Round, Payload: payload}); werr != nil {
			return errors.Join(err, werr)
		}
		return err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("supervise: marshal result: %w", err)
	}
	return conn.Write(transport.Frame{Type: transport.FrameResult, Worker: env.Worker, Round: res.Stats.Rounds, Payload: payload})
}

func runWorker(env WorkerEnv, conn *transport.Conn) (rulingset.Result, error) {
	spec := env.Spec
	if err := spec.Validate(); err != nil {
		return rulingset.Result{}, err
	}
	g, err := spec.BuildGraph()
	if err != nil {
		return rulingset.Result{}, err
	}
	// An invalid fault spec is a deterministic config error.
	opts, chaosPlan, err := spec.Options()
	if err != nil {
		return rulingset.Result{}, err
	}
	wt, err := transport.NewWorker(conn, env.Worker, env.Workers, spec.Machines, env.JoinAfter)
	if err != nil {
		return rulingset.Result{}, err
	}
	opts.Transport = wt

	if err := conn.Write(transport.Frame{Type: transport.FrameHello, Worker: env.Worker, Round: env.JoinAfter}); err != nil {
		return rulingset.Result{}, err
	}

	// Telemetry is observational: the collector rides the same tracer fan-out
	// as the deterministic sinks and attaches its snapshot to heartbeats, but
	// nothing it computes flows back into the run.
	var col *telemetry.Collector
	if env.Telemetry {
		col = telemetry.NewCollector(telemetry.CollectorOptions{})
	}

	// Liveness: a wall-clock ticker reports the newest round entered, so the
	// supervisor can tell a crashed or wedged process from one computing
	// between barriers. The ticker lives here, not in the transport — the
	// transport stays wall-clock-free.
	interval := time.Duration(env.HeartbeatMS) * time.Millisecond / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-t.C:
				var payload []byte
				if col != nil {
					if wire, werr := col.Wire(); werr == nil {
						if p, perr := transport.EncodeHeartbeat(transport.Heartbeat{Telemetry: wire}); perr == nil {
							payload = p
						}
					}
				}
				if err := conn.Write(transport.Frame{Type: transport.FrameHeartbeat, Worker: env.Worker, Round: wt.LastRound(), Payload: payload}); err != nil {
					return // pipe gone: the supervisor will notice the silence
				}
			}
		}
	}()

	// Chaos disk events (if any) interpose on this worker's checkpoint
	// store at the durable.FS seam.
	if spec.CheckpointDir != "" {
		store, err := spec.openStoreFS(spec.workerCheckpointDir(env.Worker), chaos.NewDiskFS(chaosPlan, env.Worker, env.Attempt))
		if err != nil {
			return rulingset.Result{}, err
		}
		opts.CheckpointSink = store
		if env.Resume {
			meta, state, err := store.LoadLatest()
			switch {
			case err == nil:
				opts.Resume = &mpc.ResumeState{Round: meta.Round, State: state}
			case errors.Is(err, durable.ErrNoCheckpoint):
				// Nothing persisted before the crash: recompute from round
				// 1 — slower, still deterministic, still bit-identical.
			default:
				return rulingset.Result{}, err
			}
		}
	}

	// Worker 0 writes the job's trace; its replicas would write identical
	// bytes. On restart os.Create truncates and the deterministic replay
	// re-emits every committed round, so the finished file is byte-identical
	// to an uninterrupted run's. The telemetry collector joins the same
	// fan-out on every worker, and meters the checkpoint store.
	var sinks trace.Multi
	if col != nil {
		sinks = append(sinks, col)
	}
	return spec.solve(g, opts, env.Worker == 0, false, sinks)
}
