package mpc

import (
	"slices"
	"testing"
)

func newTestCluster(t *testing.T, machines, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{Machines: machines}, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGather(t *testing.T) {
	c := newTestCluster(t, 5, 50)
	parts, err := c.Gather("g", func(x *Ctx) []uint64 {
		return []uint64{uint64(x.Machine), uint64(x.Hi - x.Lo)}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for m, part := range parts {
		if len(part) != 2 || part[0] != uint64(m) {
			t.Fatalf("machine %d part = %v", m, part)
		}
		total += int(part[1])
	}
	if total != 50 {
		t.Fatalf("ranges gathered %d", total)
	}
	if c.Stats().Rounds != 1 {
		t.Fatalf("gather cost %d rounds", c.Stats().Rounds)
	}
}

// TestGatherReturnsDeliveredPayload pins Gather's result: a source that sent
// one message gets that delivered payload itself, not a copy; a source that
// sent two gets their concatenation in a fresh slice, leaving the first
// payload's spare capacity untouched; a source that sent no words gets nil.
func TestGatherReturnsDeliveredPayload(t *testing.T) {
	c := newTestCluster(t, 4, 16)
	one := []uint64{10, 11, 0, 0}[:2]
	first := []uint64{20, 0, 0, 0}[:1]
	parts, err := c.Gather("g", func(x *Ctx) []uint64 {
		switch x.Machine {
		case 1:
			return one
		case 2:
			x.SendOwned(0, first)
			return []uint64{21, 22}
		case 3:
			return []uint64{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[1]) != 2 || &parts[1][0] != &one[0] {
		t.Fatalf("single-message source: got %v, want the delivered payload %v itself", parts[1], one)
	}
	if !slices.Equal(parts[2], []uint64{20, 21, 22}) {
		t.Fatalf("two-message source: got %v, want [20 21 22]", parts[2])
	}
	if !slices.Equal(first[:cap(first)], []uint64{20, 0, 0, 0}) {
		t.Fatalf("concatenation wrote into the first payload's spare capacity: %v", first[:cap(first)])
	}
	if parts[0] != nil || parts[3] != nil {
		t.Fatalf("sources without words: got %v and %v, want nil", parts[0], parts[3])
	}
}

func TestBroadcast(t *testing.T) {
	c := newTestCluster(t, 4, 16)
	payload := []uint64{3, 1, 4}
	got, err := c.Broadcast("b", payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 4 {
		t.Fatalf("broadcast returned %v", got)
	}
	st := c.Stats()
	if st.Rounds != 1 {
		t.Fatalf("broadcast cost %d rounds", st.Rounds)
	}
	if st.Words != int64(3*(c.Machines()-1)) {
		t.Fatalf("broadcast words = %d", st.Words)
	}
}

// TestScatterToOwners checks that every item travels once, to its owner:
// one round of len(items) words, one message per owning machine, and the
// largest owner receiving its whole share.
func TestScatterToOwners(t *testing.T) {
	c := newTestCluster(t, 4, 16) // machine m owns [4m, 4m+4)
	if err := c.ScatterToOwners("s", []int32{13, 0, 5, 2, 14, 3}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	want := RoundInfo{Name: "s", MaxSent: 6, MaxRecv: 3, Messages: 3, Words: 6}
	if st.Rounds != 1 || len(st.Log) != 1 {
		t.Fatalf("scatter cost %d rounds", st.Rounds)
	}
	got := st.Log[0]
	got.Span, got.GiniSent, got.GiniRecv = "", 0, 0
	if got != want {
		t.Fatalf("scatter round %+v, want %+v", got, want)
	}
	for m := range c.inboxes {
		if len(c.inboxes[m]) != 0 {
			t.Fatalf("machine %d kept %d messages", m, len(c.inboxes[m]))
		}
	}
}

func TestAllReduceSumUint(t *testing.T) {
	c := newTestCluster(t, 6, 60)
	sum, err := c.AllReduceSumUint("s", func(x *Ctx) []uint64 {
		return []uint64{uint64(x.Hi - x.Lo), 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum[0] != 60 || sum[1] != 6 {
		t.Fatalf("sum = %v", sum)
	}
	if c.Stats().Rounds != 2 {
		t.Fatalf("allreduce cost %d rounds, want 2", c.Stats().Rounds)
	}
}

func TestAllReduceMaxUint(t *testing.T) {
	c := newTestCluster(t, 5, 25)
	maxVal, err := c.AllReduceMaxUint("m", func(x *Ctx) uint64 {
		return uint64(x.Machine * 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxVal != 28 {
		t.Fatalf("max = %d", maxVal)
	}
}

func TestAllReduceLengthMismatch(t *testing.T) {
	c := newTestCluster(t, 3, 9)
	_, err := c.AllReduceSumUint("bad", func(x *Ctx) []uint64 {
		return make([]uint64, x.Machine+1)
	})
	if err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSingleMachineCollectives(t *testing.T) {
	c := newTestCluster(t, 1, 10)
	sum, err := c.AllReduceSumUint("s", func(x *Ctx) []uint64 { return []uint64{42} })
	if err != nil || sum[0] != 42 {
		t.Fatalf("single machine: %v %v", sum, err)
	}
}
