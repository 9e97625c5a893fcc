package clique

import (
	"errors"
	"fmt"

	"github.com/rulingset/mprs/internal/mpc"
)

// Cooperative cancellation is the engine's (see mpc.CancelError): a cluster
// built with Config.Context checks it at the top of every round barrier
// (Step and RouteStep) and refuses to start the next round once the context
// is done. The sentinels are shared with the mpc package —
// errors.Is(err, mpc.ErrCanceled) works across both simulators.

// CancelError reports a clique run stopped at a round barrier by its
// context. It wraps mpc.ErrCanceled or mpc.ErrDeadline (errors.Is selects
// which) and the context's own cause.
type CancelError struct {
	// Round is the number of committed rounds when the run stopped.
	Round int
	// Stats is the full accumulated statistics at the stop barrier.
	Stats Stats

	sentinel error
	cause    error
}

// newCancelError rebuilds the engine's cancellation error with clique Stats.
func newCancelError(e *mpc.CancelError, st Stats) *CancelError {
	errs := e.Unwrap()
	return &CancelError{Round: e.Round, Stats: st, sentinel: errs[0], cause: errs[1]}
}

// Error implements error.
func (e *CancelError) Error() string {
	what := "run canceled"
	if errors.Is(e.sentinel, mpc.ErrDeadline) {
		what = "run deadline exceeded"
	}
	return fmt.Sprintf("clique: %s after %d committed rounds: %v", what, e.Round, e.cause)
}

// Unwrap exposes both the mpc sentinel and the context error.
func (e *CancelError) Unwrap() []error { return []error{e.sentinel, e.cause} }
