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
		{name: "largest 32-bit ground set", cfg: Config{Machines: 3}, n: 1<<32 - 1, wantBudget: 4 * (1<<32 - 1)},
		{name: "ids wider than 32 bits", cfg: Config{Machines: 3}, n: 1 << 32, wantErr: true},
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

// TestOwnerAndRangePartition checks that the machines' ranges tile the
// ground set and that Owner, the reciprocal multiply, maps every item into
// its range, across the block sizes the reciprocal treats apart: per = 0
// (n = 0), per = 1 (n = M and n < M, where the reciprocal would be 2^64),
// per = 2, and n both a multiple of M and not.
func TestOwnerAndRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{n: 10, m: 3}, {n: 100, m: 7}, {n: 5, m: 8}, {n: 1, m: 1}, {n: 0, m: 2},
		{n: 8, m: 8}, {n: 1, m: 8}, {n: 16, m: 8}, {n: 15, m: 8}, {n: 100, m: 10},
		{n: 262144, m: 8}, {n: 262145, m: 8}, {n: 1000, m: 1},
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

// TestBlocksDivideExactly checks the reciprocal against v/per where it is
// closest to failing, without a cluster of that size: the largest block
// sizes and item ids, around every block boundary near them, for the block
// sizes of n = 2^31 − 1 and n = 2^32 − 1 items on 1 to 9 machines, and for
// small and power-of-two block sizes.
func TestBlocksDivideExactly(t *testing.T) {
	pers := []uint64{1, 2, 3, 5, 7, 1 << 16, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 1}
	for _, n := range []uint64{1<<31 - 1, 1<<32 - 1} {
		for m := uint64(1); m <= 9; m++ {
			pers = append(pers, (n+m-1)/m)
		}
	}
	for _, per := range pers {
		b := newBlocks(int(per))
		check := func(v uint64) {
			if v >= 1<<32 {
				return
			}
			if got := b.of(v); uint64(got) != v/per {
				t.Fatalf("per %d: of(%d) = %d, want %d", per, v, got, v/per)
			}
		}
		for _, base := range []uint64{0, per, 1<<31 - 1, 1<<32 - 1, (1<<32 - 1) / per * per} {
			for dv := uint64(0); dv < 64; dv++ {
				check(base + dv)
				check(base - dv)
			}
		}
	}
}

// FuzzOwner checks Owner against the division it replaces, on arbitrary
// ground sets below 2^32, machine counts and items: Owner(v) must be
// min(v/per, M−1) for per = ⌈n/M⌉, and v must lie in Owner(v)'s range.
func FuzzOwner(f *testing.F) {
	f.Add(uint32(5), uint16(5), uint32(4))
	f.Add(uint32(3), uint16(8), uint32(2))
	f.Add(uint32(16), uint16(8), uint32(15))
	f.Add(uint32(262144), uint16(8), uint32(98303))
	f.Add(uint32(1<<31-1), uint16(7), uint32(1<<31-2))
	f.Add(uint32(1<<32-1), uint16(3), uint32(1<<32-2))
	f.Fuzz(func(t *testing.T, n32 uint32, machines uint16, v32 uint32) {
		if n32 == 0 {
			return
		}
		n, m, v := int(n32), 1+int(machines)%4096, int(v32%n32)
		c, err := NewCluster(Config{Machines: m}, n)
		if err != nil {
			t.Fatal(err)
		}
		per := (n + m - 1) / m
		if got, want := c.Owner(v), min(v/per, m-1); got != want {
			t.Fatalf("n=%d M=%d: Owner(%d) = %d, want %d", n, m, v, got, want)
		}
		if lo, hi := c.Range(c.Owner(v)); v < lo || v >= hi {
			t.Fatalf("n=%d M=%d: %d is outside its owner's range [%d,%d)", n, m, v, lo, hi)
		}
	})
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
