package mpc

import "fmt"

// Transport hooks the superstep message exchange. At every committed Step,
// after the per-worker send logs have been merged into per-destination boxes
// sorted by sender (the schedule-independent canonical order), the cluster
// hands all M boxes to the transport and delivers whatever it returns. The
// nil transport is the in-memory router: boxes are delivered as-is inside
// this address space.
//
// A transport implementation must preserve the delivery contract exactly —
// the returned slice has one box per destination machine, each box sorted by
// sender with per-sender send order intact, and message payloads
// word-identical to what was sent. Everything downstream (fault accounting,
// budget metering, skew statistics, trace events) runs on the returned boxes,
// so a conforming transport is invisible in every deterministic output: that
// is the cross-backend bit-identity contract the multi-process backend is
// tested against.
//
// round is the model round about to commit (the value Stats.Rounds will take
// once the step commits). Rounds consumed by ChargeRounds create gaps in the
// sequence of exchanged rounds, but the sequence itself is deterministic, so
// distributed implementations may key their wire frames by it.
//
// Exchange is called from the barrier (single-goroutine) phase of Step; it
// never races with machine code.
type Transport interface {
	Exchange(round int, boxes [][]Message) ([][]Message, error)
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
