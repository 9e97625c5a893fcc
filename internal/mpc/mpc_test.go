package mpc

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/rulingset/mprs/internal/trace"
)

func TestNewClusterConfig(t *testing.T) {
	tests := []struct {
		name       string
		cfg        Config
		n          int
		wantBudget int
		wantErr    bool
	}{
		{name: "linear default slack", cfg: Config{Machines: 4, Regime: RegimeLinear}, n: 100, wantBudget: 400},
		{name: "linear custom slack", cfg: Config{Machines: 4, Regime: RegimeLinear, LinearSlack: 2}, n: 100, wantBudget: 200},
		{name: "sublinear half", cfg: Config{Machines: 4, Regime: RegimeSublinear, Epsilon: 0.5}, n: 10000, wantBudget: 100},
		{name: "explicit", cfg: Config{Machines: 4, Regime: RegimeExplicit, MemoryWords: 77}, n: 100, wantBudget: 77},
		{name: "default regime is linear", cfg: Config{Machines: 1}, n: 10, wantBudget: 40},
		{name: "zero machines", cfg: Config{}, n: 10, wantErr: true},
		{name: "bad epsilon", cfg: Config{Machines: 2, Regime: RegimeSublinear, Epsilon: 1.5}, n: 10, wantErr: true},
		{name: "bad explicit", cfg: Config{Machines: 2, Regime: RegimeExplicit}, n: 10, wantErr: true},
		{name: "negative n", cfg: Config{Machines: 2}, n: -1, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := NewCluster(tt.cfg, tt.n)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if c.Budget() != tt.wantBudget {
				t.Fatalf("budget = %d, want %d", c.Budget(), tt.wantBudget)
			}
		})
	}
}

func TestOwnerAndRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{n: 10, m: 3}, {n: 100, m: 7}, {n: 5, m: 8}, {n: 1, m: 1}, {n: 0, m: 2},
	} {
		c, err := NewCluster(Config{Machines: tc.m}, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for m := 0; m < tc.m; m++ {
			lo, hi := c.Range(m)
			if hi < lo {
				t.Fatalf("n=%d m=%d: invalid range [%d,%d)", tc.n, tc.m, lo, hi)
			}
			covered += hi - lo
			for v := lo; v < hi; v++ {
				if c.Owner(v) != m {
					t.Fatalf("n=%d m=%d: owner(%d) = %d, want %d", tc.n, tc.m, v, c.Owner(v), m)
				}
			}
		}
		if covered != tc.n {
			t.Fatalf("n=%d m=%d: ranges cover %d", tc.n, tc.m, covered)
		}
	}
}

func TestStepDeliversMessagesDeterministically(t *testing.T) {
	const M = 8
	run := func() []uint64 {
		c, err := NewCluster(Config{Machines: M}, 64)
		if err != nil {
			t.Fatal(err)
		}
		// Every machine sends its id*10+k for k=0,1 to machine (id+1)%M.
		err = c.Step("send", func(x *Ctx) {
			dst := (x.Machine + 1) % M
			x.Send(dst, uint64(x.Machine*10))
			x.Send(dst, uint64(x.Machine*10+1))
		})
		if err != nil {
			t.Fatal(err)
		}
		var seen []uint64
		err = c.Step("recv", func(x *Ctx) {
			if x.Machine == 0 {
				for _, msg := range x.Inbox() {
					seen = append(seen, msg.Payload...)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return seen
	}
	want := run()
	if len(want) != 2 {
		t.Fatalf("machine 0 received %v", want)
	}
	if want[0] != 70 || want[1] != 71 {
		t.Fatalf("per-sender order broken: %v", want)
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nondeterministic delivery: %v vs %v", got, want)
			}
		}
	}
}

func TestInboxSortedBySender(t *testing.T) {
	const M = 6
	c, err := NewCluster(Config{Machines: M}, M)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step("fan-in", func(x *Ctx) {
		x.Send(0, uint64(x.Machine))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Step("check", func(x *Ctx) {
		if x.Machine != 0 {
			return
		}
		for i, msg := range x.Inbox() {
			if msg.Src != i {
				t.Errorf("inbox[%d].Src = %d", i, msg.Src)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthAccounting(t *testing.T) {
	c, err := NewCluster(Config{Machines: 2, Regime: RegimeExplicit, MemoryWords: 4}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Step("burst", func(x *Ctx) {
		if x.Machine == 0 {
			x.Send(1, 1, 2, 3, 4, 5, 6) // 6 words > budget 4
		}
	}); err != nil {
		t.Fatal(err) // non-strict: recorded, not fatal
	}
	st := c.Stats()
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d", st.Rounds)
	}
	if st.Words != 6 || st.PeakSent != 6 || st.PeakRecv != 6 {
		t.Fatalf("words=%d peakSent=%d peakRecv=%d", st.Words, st.PeakSent, st.PeakRecv)
	}
	if len(st.Violations) != 2 { // send by 0 and recv by 1
		t.Fatalf("violations = %v", st.Violations)
	}
}

func TestStrictModeFails(t *testing.T) {
	c, err := NewCluster(Config{Machines: 2, Regime: RegimeExplicit, MemoryWords: 2, Strict: true}, 8)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Step("burst", func(x *Ctx) {
		if x.Machine == 0 {
			x.Send(1, 1, 2, 3)
		}
	})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("strict violation err = %v, want ErrBudget", err)
	}
}

func TestResidentAccounting(t *testing.T) {
	c, err := NewCluster(Config{Machines: 2, Regime: RegimeExplicit, MemoryWords: 100}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetResident(0, 60); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResident(0, 30); err != nil {
		t.Fatal(err)
	}
	if c.Resident(0) != 90 {
		t.Fatalf("resident = %d", c.Resident(0))
	}
	if err := c.AddResident(0, 30); err != nil { // 120 > 100, non-strict
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PeakResident != 120 || len(st.Violations) != 1 {
		t.Fatalf("peak=%d violations=%v", st.PeakResident, st.Violations)
	}
}

// TestInStepResidentViolationRound: a resident overflow reported from inside
// a step carries the round the step commits as — the round of the same
// step's send and receive violations and of its trace event — for a plain
// step and for a routed step charged several rounds.
func TestInStepResidentViolationRound(t *testing.T) {
	ring := trace.NewRing(8)
	c, err := NewCluster(Config{Machines: 2, Regime: RegimeExplicit, MemoryWords: 4, Tracer: ring}, 8)
	if err != nil {
		t.Fatal(err)
	}
	overflow := func(x *Ctx) {
		if x.Machine == 0 {
			x.Send(1, 1, 2, 3, 4, 5)
			if err := c.AddResident(0, 5); err != nil {
				panic(err)
			}
		}
	}
	if err := c.Step("quiet", func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := c.Step("overflow", overflow); err != nil {
		t.Fatal(err)
	}
	if err := c.RouteStep("routed", 3, overflow); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range c.Stats().Violations {
		got = append(got, fmt.Sprintf("%s@%d", v.Kind, v.Round))
	}
	want := []string{"resident@2", "send@2", "recv@2", "resident@5", "send@5", "recv@5"}
	if !slices.Equal(got, want) {
		t.Fatalf("violations = %v, want %v", got, want)
	}
	evs := ring.Events()
	if len(evs) != 3 || evs[1].Round != 2 || evs[2].Round != 5 {
		t.Fatalf("trace rounds = %+v, want 1, 2, 5", evs)
	}
}

func TestChargeRoundsAndMergeStats(t *testing.T) {
	c, err := NewCluster(Config{Machines: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ChargeRounds("model", 3); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Rounds != 3 {
		t.Fatalf("charged rounds = %d", c.Stats().Rounds)
	}
	a := Stats{Rounds: 2, Words: 10, PeakSent: 5, Violations: []Violation{{Round: 1}},
		RecoveredCrashes: 1, RecoveryRounds: 2, ReplayedWords: 3, CheckpointWords: 4}
	b := Stats{Rounds: 3, Words: 7, PeakSent: 9, RecoveryRounds: 1, RecoveredCrashes: 2}
	m := MergeStats(a, b)
	if m.Rounds != 5 || m.Words != 17 || m.PeakSent != 9 || len(m.Violations) != 1 {
		t.Fatalf("merged = %+v", m)
	}
	if m.RecoveredCrashes != 3 || m.RecoveryRounds != 3 || m.ReplayedWords != 3 ||
		m.CheckpointWords != 4 {
		t.Fatalf("merged fault fields = %+v", m)
	}
}

func TestChargeRoundsNegative(t *testing.T) {
	c, err := NewCluster(Config{Machines: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ChargeRounds("model", -2); err != nil { // non-strict: recorded
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Rounds != 0 {
		t.Fatalf("negative charge changed rounds: %d", st.Rounds)
	}
	if len(st.Violations) != 1 || st.Violations[0].Kind != "rounds" {
		t.Fatalf("violations = %v", st.Violations)
	}

	strict, err := NewCluster(Config{Machines: 1, Strict: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := strict.ChargeRounds("model", -1); !errors.Is(err, ErrBudget) {
		t.Fatalf("strict negative charge err = %v, want ErrBudget", err)
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeLinear.String() != "linear" || RegimeSublinear.String() != "sublinear" || RegimeExplicit.String() != "explicit" {
		t.Fatal("regime strings wrong")
	}
}
