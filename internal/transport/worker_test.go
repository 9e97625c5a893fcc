package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// scriptConn builds a Conn whose read side replays the given peer frames and
// whose writes are discarded.
func scriptConn(t *testing.T, fs ...Frame) *Conn {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range fs {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return NewConn(bytes.NewReader(buf.Bytes()), io.Discard)
}

// peerFrame renders peer's authoritative Messages frame for round over the
// replicated boxes: the digests of the machines peer owns.
func peerFrame(peer, total, workers, round int) Frame {
	lo, hi := ownedRange(peer, total, workers)
	return Frame{
		Type:    FrameMessages,
		Worker:  peer,
		Round:   round,
		Payload: digestsOf(testBoxes(total, round))[lo*DigestSize : hi*DigestSize],
	}
}

// TestExchangeStashesFutureFrame: a peer that already completed round r can
// send r+1 while this worker is still collecting r. The future frame must be
// stashed and consumed by the next Exchange without touching the wire again.
func TestExchangeStashesFutureFrame(t *testing.T) {
	const total, workers = 6, 2
	conn := scriptConn(t,
		peerFrame(1, total, workers, 2), // one round ahead: stash
		peerFrame(1, total, workers, 1), // completes round 1
	)
	w, err := NewWorker(conn, 0, workers, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Exchange(1, testBoxes(total, 1)); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(w.pending[2]) != 1 {
		t.Fatalf("round 2 not stashed: pending = %v", w.pending)
	}
	// Round 2 must complete purely from the stash — the script has no more
	// frames, so any read would fail with EOF-as-ErrFraming.
	if err := w.Exchange(2, testBoxes(total, 2)); err != nil {
		t.Fatalf("round 2 from stash: %v", err)
	}
	if len(w.pending) != 0 {
		t.Fatalf("stash not drained: %v", w.pending)
	}
}

// TestExchangeSkipsStaleFrame: a supervisor restart re-delivers retained
// frames the worker already replayed locally; they must be skipped, not
// treated as the current barrier's input.
func TestExchangeSkipsStaleFrame(t *testing.T) {
	const total, workers = 6, 2
	conn := scriptConn(t,
		peerFrame(1, total, workers, 3), // stale for round 5
		peerFrame(1, total, workers, 4), // still stale
		peerFrame(1, total, workers, 5), // the real one
	)
	w, err := NewWorker(conn, 0, workers, total, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		// Replayed prefix: local, no wire.
		if err := w.Exchange(r, testBoxes(total, r)); err != nil {
			t.Fatalf("replay round %d: %v", r, err)
		}
	}
	if err := w.Exchange(5, testBoxes(total, 5)); err != nil {
		t.Fatalf("round 5: %v", err)
	}
}

// TestExchangeDupFrameIsIdempotent: a duplicated authoritative frame for the
// current round overwrites its stash slot instead of double-counting toward
// the barrier.
func TestExchangeDupFrameIsIdempotent(t *testing.T) {
	const total, workers = 6, 3
	conn := scriptConn(t,
		peerFrame(1, total, workers, 1),
		peerFrame(1, total, workers, 1), // duplicate of the same frame
		peerFrame(2, total, workers, 1),
	)
	w, err := NewWorker(conn, 0, workers, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Exchange(1, testBoxes(total, 1)); err != nil {
		t.Fatalf("round 1 with dup: %v", err)
	}
}

// TestExchangeBoundsStash: a frame claiming a round far beyond the barrier
// lockstep's legitimate lookahead is stream corruption, not something to
// buffer — the stash must stay bounded against a garbage round counter.
func TestExchangeBoundsStash(t *testing.T) {
	const total, workers = 6, 2
	conn := scriptConn(t, peerFrame(1, total, workers, 1+maxStashAhead+1))
	w, err := NewWorker(conn, 0, workers, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Exchange(1, testBoxes(total, 1))
	if !errors.Is(err, ErrFraming) {
		t.Fatalf("err = %v, want ErrFraming", err)
	}
	if len(w.pending[1+maxStashAhead+1]) != 0 {
		t.Fatal("out-of-bound frame was stashed")
	}
	// The maximum legitimate lookahead is accepted.
	conn2 := scriptConn(t,
		peerFrame(1, total, workers, 1+maxStashAhead),
		peerFrame(1, total, workers, 1),
	)
	w2, err := NewWorker(conn2, 0, workers, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Exchange(1, testBoxes(total, 1)); err != nil {
		t.Fatalf("lookahead %d rejected: %v", maxStashAhead, err)
	}
}

// TestExchangeRejectsOwnAndUnknownWorkers pins the frame-validation order:
// identity checks fire before any stash bookkeeping.
func TestExchangeRejectsOwnAndUnknownWorkers(t *testing.T) {
	const total, workers = 6, 2
	own := peerFrame(0, total, workers, 1)
	if err := mustWorker(t, scriptConn(t, own), workers, total).Exchange(1, testBoxes(total, 1)); err == nil {
		t.Fatal("own frame accepted")
	}
	unknown := peerFrame(1, total, workers, 1)
	unknown.Worker = workers + 3
	if err := mustWorker(t, scriptConn(t, unknown), workers, total).Exchange(1, testBoxes(total, 1)); err == nil {
		t.Fatal("unknown worker accepted")
	}
}

// TestExchangeRejectsMalformedDigests: a peer frame whose payload is not
// exactly one digest per machine the peer owns is malformed.
func TestExchangeRejectsMalformedDigests(t *testing.T) {
	const total, workers = 6, 2
	short, long := peerFrame(1, total, workers, 1), peerFrame(1, total, workers, 1)
	short.Payload = short.Payload[:len(short.Payload)-1]
	long.Payload = append(long.Payload, 0)
	for _, f := range []Frame{short, long} {
		if err := mustWorker(t, scriptConn(t, f), workers, total).Exchange(1, testBoxes(total, 1)); !errors.Is(err, ErrCodec) {
			t.Fatalf("%d-byte payload: %v, want ErrCodec", len(f.Payload), err)
		}
	}
}

func mustWorker(t *testing.T, conn *Conn, workers, total int) *Worker {
	t.Helper()
	w, err := NewWorker(conn, 0, workers, total, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWorkerLastRound: LastRound, the progress heartbeats carry, is the
// newest round handed to Exchange, whether the round was replayed locally,
// exchanged on the wire or failed.
func TestWorkerLastRound(t *testing.T) {
	const total, workers = 6, 2
	w, err := NewWorker(scriptConn(t, peerFrame(1, total, workers, 3)), 0, workers, total, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.LastRound(); got != 0 {
		t.Fatalf("LastRound() = %d before any exchange, want 0", got)
	}
	for r := 1; r <= 3; r++ { // rounds 1 and 2 replay locally, 3 is on the wire
		if err := w.Exchange(r, testBoxes(total, r)); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if got := w.LastRound(); got != r {
			t.Fatalf("LastRound() = %d after round %d", got, r)
		}
	}
	// The script has no frame for round 4, so its exchange fails.
	if err := w.Exchange(4, testBoxes(total, 4)); err == nil {
		t.Fatal("round 4 exchanged with no peer frame")
	}
	if got := w.LastRound(); got != 4 {
		t.Fatalf("LastRound() = %d after the failed round 4, want 4", got)
	}
}
