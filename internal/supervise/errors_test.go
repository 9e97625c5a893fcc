package supervise

import (
	"errors"
	"strings"
	"testing"
)

// errWorkerGone is the cause the error tests wrap.
var errWorkerGone = errors.New("worker gone")

func TestSupervisorErrorUnwrap(t *testing.T) {
	var err error = &SupervisorError{Worker: 1, Attempts: 2, CommittedRound: 17, Err: errWorkerGone}
	if !errors.Is(err, errWorkerGone) {
		t.Fatalf("errors.Is(%v, cause) = false", err)
	}
	want := "supervise: aborted after 17 committed rounds (worker 1, 2 restarts): worker gone"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

// TestDegradedErrorUnwrap checks both origins a fallback run can name: a
// durable checkpoint round, or a recomputation from scratch.
func TestDegradedErrorUnwrap(t *testing.T) {
	for _, tc := range []struct {
		name        string
		resumedFrom int
		from        string
	}{
		{name: "scratch", resumedFrom: -1, from: "from scratch after"},
		{name: "checkpoint", resumedFrom: 8, from: "from checkpoint round 8 after"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error = &DegradedError{Worker: 0, Attempts: 3, Restarts: 5, CommittedRound: 12, ResumedFrom: tc.resumedFrom, Cause: errWorkerGone}
			if !errors.Is(err, errWorkerGone) {
				t.Fatalf("errors.Is(%v, cause) = false", err)
			}
			msg := err.Error()
			for _, part := range []string{tc.from, "12 committed rounds", "worker 0, 3 attempts, 5 fleet restarts", "worker gone"} {
				if !strings.Contains(msg, part) {
					t.Errorf("Error() = %q, missing %q", msg, part)
				}
			}
		})
	}
}
