package transport

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/rulingset/mprs/internal/mpc"
)

// ErrStopped is wrapped by the exchange error returned after the supervisor
// ordered this worker to stop: the run aborts barrier-clean at the next
// exchange, and the resulting *mpc.TransportError carries the committed
// round and full Stats for the supervisor to harvest.
var ErrStopped = errors.New("transport: stopped by supervisor")

// maxStashAhead bounds how far beyond the current round a peer frame may be
// stashed. The barrier lockstep keeps honest peers within one round of each
// other; a supervisor restart can re-deliver the retained frame of the round
// after the join round; and a reordering link can put a round r+1 frame ahead
// of round r. All of those fit within two rounds of lookahead, so anything
// further is treated as stream corruption rather than buffered — the stash
// must stay bounded even against a peer with a garbage round counter.
const maxStashAhead = 2

// ownedRange returns the machines [lo, hi) worker p owns: contiguous
// balanced blocks over total machines, the first total%workers workers
// owning one extra. The balanced split guarantees every worker owns at least
// one machine whenever workers <= total (a ceil-division split can leave
// trailing workers empty). Every worker computes the identical partition
// from (total, workers) alone.
func ownedRange(p, total, workers int) (lo, hi int) {
	if workers <= 1 {
		return 0, total
	}
	q, r := total/workers, total%workers
	lo = p*q + min(p, r)
	hi = lo + q
	if p < r {
		hi++
	}
	return lo, hi
}

// Worker is the worker-process side of the multi-process backend: an
// mpc.Transport that, at every exchanged superstep, ships the outbox digests
// of this worker's owned machine block and checks every peer's digests
// against the ones its own replica produced.
//
// Rounds at or below the join round exchange locally (identity): a restarted
// worker deterministically replays the committed prefix the surviving
// workers have already exchanged, and rejoins the wire at the first round
// the group has not completed. For a fresh start the join round is 0.
type Worker struct {
	conn      *Conn
	id        int
	workers   int
	total     int
	joinAfter int

	// lastRound is the newest round handed to Exchange, read by the
	// heartbeat ticker goroutine.
	lastRound atomic.Int64

	// pending stashes peer frames by round. A peer that already holds this
	// worker's round-r frame can complete r and send r+1 while this worker
	// is still collecting r, so frames one exchange ahead are normal; the
	// barrier lockstep bounds the stash at two live rounds.
	pending map[int]map[int][]byte

	digests digester
}

// NewWorker builds the transport for worker id of workers, owning its block
// of the total machines, exchanging locally through round joinAfter.
func NewWorker(conn *Conn, id, workers, total, joinAfter int) (*Worker, error) {
	if workers < 1 || id < 0 || id >= workers {
		return nil, fmt.Errorf("transport: worker %d of %d out of range", id, workers)
	}
	if total < 1 {
		return nil, fmt.Errorf("transport: %d machines < 1", total)
	}
	return &Worker{
		conn:      conn,
		id:        id,
		workers:   workers,
		total:     total,
		joinAfter: joinAfter,
		pending:   make(map[int]map[int][]byte),
	}, nil
}

// LastRound reports the newest round handed to Exchange — the progress value
// heartbeats carry. Safe for concurrent use.
func (w *Worker) LastRound() int { return int(w.lastRound.Load()) }

// Exchange implements mpc.Transport: ship the digests of the owned
// machines' outboxes, collect every peer's frame for the round, and check
// each against the local replica's digests. It only reads boxes.
func (w *Worker) Exchange(round int, boxes [][]mpc.Message) error {
	w.lastRound.Store(int64(round))
	if round <= w.joinAfter {
		// Replayed prefix: the group already exchanged this round; the
		// local replica is authoritative by deterministic replay.
		return nil
	}
	local := w.digests.digest(boxes)
	lo, hi := ownedRange(w.id, w.total, w.workers)
	if err := w.conn.Write(Frame{Type: FrameMessages, Worker: w.id, Round: round, Payload: local[lo*DigestSize : hi*DigestSize]}); err != nil {
		return err
	}
	//detlint:ok maporder -- order-independent: deletes every key below round, no output depends on visit order
	for r := range w.pending {
		if r < round {
			delete(w.pending, r) // completed exchanges; nothing rereads them
		}
	}
	got := w.pending[round]
	if got == nil {
		got = make(map[int][]byte, w.workers)
		w.pending[round] = got
	}
	for len(got) < w.workers-1 {
		f, err := w.conn.Read()
		if err != nil {
			return fmt.Errorf("transport: worker %d waiting on round %d: %w", w.id, round, err)
		}
		switch f.Type {
		case FrameStop:
			return fmt.Errorf("%w (worker %d at round %d)", ErrStopped, w.id, round)
		case FrameMessages:
			if f.Worker == w.id {
				return fmt.Errorf("transport: worker %d received its own frame for round %d", w.id, f.Round)
			}
			if f.Worker < 0 || f.Worker >= w.workers {
				return fmt.Errorf("transport: frame from unknown worker %d", f.Worker)
			}
			if f.Round < round {
				continue // stale re-delivery from a supervisor restart; already replayed locally
			}
			if f.Round > round+maxStashAhead {
				// The barrier lockstep bounds legitimate lookahead (see
				// maxStashAhead); anything further is a corrupt or hostile
				// round counter, and stashing it would let a single bad
				// frame grow the pending map without limit.
				return fmt.Errorf("%w: worker %d at round %d received frame for round %d, beyond lookahead %d",
					ErrFraming, w.id, round, f.Round, maxStashAhead)
			}
			stash := got
			if f.Round > round {
				stash = w.pending[f.Round]
				if stash == nil {
					stash = make(map[int][]byte, w.workers)
					w.pending[f.Round] = stash
				}
			}
			stash[f.Worker] = f.Payload
		default:
			return fmt.Errorf("transport: worker %d: unexpected frame type %d", w.id, f.Type)
		}
	}
	// Check every peer's digests against the local replica's, in worker
	// order so a multi-peer divergence reports deterministically.
	for p := 0; p < w.workers; p++ {
		if p == w.id {
			continue
		}
		lo, hi := ownedRange(p, w.total, w.workers)
		if err := checkDigests(local, got[p], lo, hi); err != nil {
			return fmt.Errorf("round %d, worker %d vs peer %d: %w", round, w.id, p, err)
		}
	}
	delete(w.pending, round)
	return nil
}
