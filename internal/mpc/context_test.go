package mpc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestCancelAtBarrierReturnsStructuredError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := NewCluster(Config{Machines: 4, Context: ctx}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10 && err == nil; r++ {
		if r == 3 {
			cancel() // external cancellation lands between supersteps
		}
		err = c.Step("work", echoStep)
	}
	stats := c.Stats()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v also matches ErrDeadline", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *CancelError", err)
	}
	// Cancel fired before the 4th Step started: exactly 3 committed rounds,
	// and the error's Stats agree with the cluster's.
	if ce.Round != 3 || ce.Stats.Rounds != 3 {
		t.Fatalf("CancelError round = %d, stats rounds = %d, want 3", ce.Round, ce.Stats.Rounds)
	}
	if stats.Rounds != 3 || stats.Words != ce.Stats.Words {
		t.Fatalf("cluster stats %+v disagree with CancelError stats %+v", stats, ce.Stats)
	}
}

func TestDeadlineAtBarrierReturnsErrDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	<-ctx.Done() // already expired; wait to make the test deterministic
	c, err := NewCluster(Config{Machines: 2, Context: ctx}, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Step("never", echoStep)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Round != 0 {
		t.Fatalf("err = %v, want *CancelError at round 0", err)
	}
}

// TestCancelLeaksNoGoroutines pins the no-leak claim (run under -race in
// CI): cancellation is only ever observed at the superstep barrier, after
// every machine goroutine of the previous superstep has been joined, so a
// canceled run leaves nothing behind.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		c, err := NewCluster(Config{Machines: 8, Context: ctx}, 64)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; err == nil; r++ {
			if r == 2 {
				cancel()
			}
			err = c.Step("work", func(x Ctx) {
				x.Send((x.Machine+1)%8, uint64(x.Machine))
			})
		}
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("run %d: err = %v", i, err)
		}
	}
	// Allow the runtime to retire any transient goroutines before counting
	// (bounded retries instead of a wall-clock deadline).
	after := runtime.NumGoroutine()
	for attempt := 0; attempt < 200 && after > before; attempt++ {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Fatalf("goroutines grew from %d to %d across canceled runs", before, after)
	}
}

func TestCancelErrorMessage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := NewCluster(Config{Machines: 2, Context: ctx}, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Step("s", echoStep)
	if err == nil {
		t.Fatal("canceled Step returned nil")
	}
	want := "run canceled after 0 committed rounds"
	if got := err.Error(); !contains(got, want) {
		t.Fatalf("error %q does not mention %q", got, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
