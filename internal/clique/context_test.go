package clique

import (
	"context"
	"errors"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

func TestCliqueCancelAtBarrier(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := NewCluster(Config{Context: ctx}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10 && err == nil; r++ {
		if r == 2 {
			cancel()
		}
		err = c.Step("ring", func(x *Ctx) {
			x.Send((x.Machine+1)%6, uint64(x.Machine))
		})
		for v := 0; v < 6; v++ {
			c.Drain(v)
		}
	}
	stats := c.Stats()
	// The clique returns the engine's own cancellation error — one errors.Is
	// and one errors.As work for both simulators.
	if !errors.Is(err, mpc.ErrCanceled) {
		t.Fatalf("err = %v, want mpc.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not unwrap to context.Canceled", err)
	}
	var ce *mpc.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *mpc.CancelError", err)
	}
	if ce.Round != 2 || ce.Stats.Rounds != 2 {
		t.Fatalf("CancelError round = %d, stats = %+v, want 2 committed rounds", ce.Round, ce.Stats)
	}
	if stats.Rounds != 2 {
		t.Fatalf("cluster stats = %+v", stats)
	}
	want := "mpc: run canceled after 2 committed rounds"
	if got := ce.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("Error() = %q, want prefix %q", got, want)
	}
}

func TestCliqueRouteStepChecksContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := NewCluster(Config{Context: ctx}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RouteStep("never", func(x *Ctx) {}); !errors.Is(err, mpc.ErrCanceled) {
		t.Fatalf("RouteStep err = %v, want mpc.ErrCanceled", err)
	}
	if c.Stats().Rounds != 0 {
		t.Fatalf("canceled RouteStep committed %d rounds", c.Stats().Rounds)
	}
}
