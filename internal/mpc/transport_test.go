package mpc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// errPeerLost is the cause failTransport returns, matched by errors.Is
// through the *TransportError that wraps it.
var errPeerLost = errors.New("peer lost")

// failTransport fails the exchange of round fail and accepts every other.
type failTransport struct{ fail int }

func (f failTransport) Exchange(round int, _ [][]Message) error {
	if round == f.fail {
		return errPeerLost
	}
	return nil
}

// TestTransportErrorWrapsCause checks that a vetoed exchange surfaces as a
// *TransportError carrying the committed round count and Stats, whose
// message names the round and the cause and which unwraps to the cause.
func TestTransportErrorWrapsCause(t *testing.T) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c, err := NewCluster(Config{Machines: 4, Parallelism: p, Transport: failTransport{fail: 3}}, 16)
			if err != nil {
				t.Fatal(err)
			}
			step := func(x Ctx) { x.Send((x.Machine+1)%4, uint64(x.Machine)) }
			for r := 1; r <= 2; r++ {
				if err := c.Step("ok", step); err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
			}
			err = c.Step("fail", step)
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v, want a *TransportError", err)
			}
			if !errors.Is(err, errPeerLost) {
				t.Fatalf("errors.Is(%v, errPeerLost) = false", err)
			}
			if te.Round != 2 || te.Stats.Rounds != 2 {
				t.Fatalf("Round %d, Stats.Rounds %d, want 2 committed rounds", te.Round, te.Stats.Rounds)
			}
			if msg := te.Error(); !strings.Contains(msg, "after 2 committed rounds") || !strings.Contains(msg, errPeerLost.Error()) {
				t.Fatalf("Error() = %q, want the round count and the cause", msg)
			}
		})
	}
}
