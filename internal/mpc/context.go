package mpc

import (
	"context"
	"errors"
	"fmt"
)

// Cooperative cancellation. A cluster built with Config.Context checks the
// context at every superstep barrier — the top of Step and RouteStep — and,
// once the context is done, refuses to start the next superstep.
// Nothing is interrupted mid-round: the machine goroutines of the current
// superstep always run to the barrier (runAttempt waits on all of them), so
// cancellation can never leak a goroutine or tear driver state. The returned
// *CancelError carries the committed round and the full Stats at the moment
// of cancellation, so a canceled run is still a complete measurement of the
// work it did commit.

// ErrCanceled is wrapped by the error returned when the run's context is
// canceled at a superstep barrier.
var ErrCanceled = errors.New("mpc: run canceled")

// ErrDeadline is wrapped instead when the context's deadline expired.
var ErrDeadline = errors.New("mpc: run deadline exceeded")

// CancelError reports a run stopped at a superstep barrier by its context.
// It wraps ErrCanceled or ErrDeadline (errors.Is selects which) and the
// context's own cause (so errors.Is(err, context.Canceled) works too).
type CancelError struct {
	// Round is the number of committed supersteps when the run stopped; no
	// partial superstep is reflected anywhere.
	Round int
	// Stats is the full accumulated statistics at the stop barrier.
	Stats Stats

	sentinel error // ErrCanceled or ErrDeadline
	cause    error // the context's error (or cause)
}

// Error implements error.
func (e *CancelError) Error() string {
	return fmt.Sprintf("%v after %d committed rounds: %v", e.sentinel, e.Round, e.cause)
}

// Unwrap exposes both the mpc sentinel and the context error.
func (e *CancelError) Unwrap() []error { return []error{e.sentinel, e.cause} }

// barrierErr checks the configured context at a superstep barrier, returning
// a *CancelError once it is done and nil otherwise (including when no
// context is configured — the zero-cost default).
func (c *Cluster) barrierErr() error {
	ctx := c.cfg.Context
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := context.Cause(ctx)
		sentinel := ErrCanceled
		if errors.Is(cause, context.DeadlineExceeded) {
			sentinel = ErrDeadline
		}
		return &CancelError{Round: c.stats.Rounds, Stats: c.Stats(), sentinel: sentinel, cause: cause}
	default:
		return nil
	}
}
