package mpc

import "fmt"

// Transport hooks the superstep message exchange. At every committed Step,
// after the per-worker send logs have been merged into per-destination boxes
// sorted by sender (the schedule-independent canonical order), the cluster
// hands all M boxes to the transport, then delivers them itself. The nil
// transport is the in-memory router: nothing crosses a process boundary.
//
// Exchange only reads boxes: it must neither modify them nor retain them
// past the call. A non-nil error aborts the round before it commits, so a
// transport can veto delivery (a peer died, a replica diverged) but can
// never change what is delivered, and every deterministic output is the same
// with or without it.
//
// round is the model round about to commit (the value Stats.Rounds will take
// once the step commits). A routed step that commits several rounds leaves a
// gap in the sequence of exchanged rounds, but the sequence itself is
// deterministic, so distributed implementations may key their wire frames
// by it.
//
// Exchange is called from the barrier (single-goroutine) phase of Step; it
// never races with machine code.
type Transport interface {
	Exchange(round int, boxes [][]Message) error
}

// TransportError reports a superstep whose message exchange failed — a peer
// worker died, a frame failed its checksum, or the supervisor ordered a stop.
// Like CancelError it is a barrier-clean failure: the round was not
// committed, no partial delivery happened, and the carried Stats are a
// complete measurement of the work that did commit.
type TransportError struct {
	// Round is the number of committed supersteps when the exchange failed.
	Round int
	// Stats is the full accumulated statistics at the failure barrier.
	Stats Stats
	// Err is the underlying transport failure.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	return fmt.Sprintf("mpc: transport failed after %d committed rounds: %v", e.Round, e.Err)
}

// Unwrap exposes the underlying transport failure.
func (e *TransportError) Unwrap() error { return e.Err }
