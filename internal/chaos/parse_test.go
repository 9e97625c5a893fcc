package chaos

import (
	"reflect"
	"strings"
	"testing"

	"github.com/rulingset/mprs/internal/mpc"
)

func TestParseGrammar(t *testing.T) {
	p, err := Parse("wire:corrupt@8:1, wire:hbdrop@2:0,disk:torn@4:1,disk:manifesttorn@0:2,proc:kill@10:2,proc:flap@6:1", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Enabled() || p.Seed != 42 {
		t.Fatalf("plan = %+v", p)
	}
	if len(p.Wire) != 2 || p.Wire[0] != (WireEvent{WireCorrupt, 8, 1}) || p.Wire[1] != (WireEvent{WireHBDrop, 2, 0}) {
		t.Fatalf("wire = %+v", p.Wire)
	}
	if len(p.Disk) != 2 || p.Disk[0] != (DiskEvent{DiskTorn, 4, 1}) || p.Disk[1] != (DiskEvent{DiskManifestTorn, 0, 2}) {
		t.Fatalf("disk = %+v", p.Disk)
	}
	if len(p.Proc) != 2 || p.Proc[0] != (ProcEvent{ProcKill, 10, 2}) || p.Proc[1] != (ProcEvent{ProcFlap, 6, 1}) {
		t.Fatalf("proc = %+v", p.Proc)
	}
}

func TestParseDisabled(t *testing.T) {
	for _, spec := range []string{"", "  ", "off", "none", ",,"} {
		p, err := Parse(spec, 1)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
		if p.Enabled() {
			t.Errorf("Parse(%q) enabled", spec)
		}
		if p != nil {
			t.Errorf("Parse(%q) non-nil", spec)
		}
	}
	var nilPlan *Plan
	if nilPlan.Enabled() || nilPlan.HasWire() || nilPlan.HasDisk(0) || nilPlan.FlapsAt(0, 5) ||
		nilPlan.Kills() != nil || nilPlan.MaxWorker() != -1 || nilPlan.ValidateWorkers(1) != nil {
		t.Error("nil plan is not inert")
	}
	if nilPlan.String() != "chaos(off)" {
		t.Errorf("nil String = %q", nilPlan.String())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"crash=0.02", "machine:"},        // unprefixed model fault
		{"kill@5:1", "machine:"},          // unprefixed proc-ish spelling
		{"net:drop@5:1", "unknown layer"}, // unknown layer
		{"wire:zap@5:1", "unknown wire op"},
		{"disk:melt@5:1", "unknown disk op"},
		{"proc:pause@5:1", "unknown proc op"},
		{"wire:corrupt@5", "ROUND:WORKER"}, // missing worker
		{"wire:corrupt", "@"},              // missing tail
		{"wire:corrupt@x:1", "bad round"},
		{"wire:corrupt@5:y", "bad worker"},
		{"wire:corrupt@-1:1", ">= 0"},
		{"wire:corrupt@5:-1", ">= 0"},
		{"proc:kill@0:1", ">= 1"},    // proc rounds are 1-based
		{"wire:corrupt@0:1", ">= 1"}, // Messages rounds are 1-based
		{"wire:hbdrop@0:0", ">= 1"},  // heartbeat ordinals are 1-based
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec, 0)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want mention of %q", tc.spec, err, tc.want)
		}
	}
}

func TestPlanHelpers(t *testing.T) {
	// Machine 9 is a simulated machine, not a worker: MaxWorker and
	// ValidateWorkers ignore it.
	p, err := Parse("wire:dup@6:1,disk:enospc@4:3,proc:kill@10:0,proc:flap@8:2,machine:crash@2:9,machine:crash@3:8", 7)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasWire() || !p.HasDisk(3) || p.HasDisk(1) {
		t.Error("HasWire/HasDisk wrong")
	}
	if kills := p.Kills(); len(kills) != 1 || kills[0] != (ProcEvent{ProcKill, 10, 0}) {
		t.Errorf("Kills = %+v", p.Kills())
	}
	// Flap fires at the target round and every round beyond it, only for its
	// worker.
	if p.FlapsAt(2, 7) || !p.FlapsAt(2, 8) || !p.FlapsAt(2, 9) || p.FlapsAt(1, 8) {
		t.Error("FlapsAt wrong")
	}
	if p.MaxWorker() != 3 {
		t.Errorf("MaxWorker = %d", p.MaxWorker())
	}
	if err := p.ValidateWorkers(4); err != nil {
		t.Errorf("ValidateWorkers(4): %v", err)
	}
	if err := p.ValidateWorkers(3); err == nil {
		t.Error("ValidateWorkers(3) accepted a plan targeting worker 3")
	}
	if s := p.String(); !strings.Contains(s, "wire=1") || !strings.Contains(s, "disk=1") || !strings.Contains(s, "proc=2") {
		t.Errorf("String = %q", s)
	}
}

// TestParseMachine pins the machine: layer to the model-fault parser it
// replaced: each want is the mpc.FaultPlan that parser built from the same
// spec without the machine: prefixes.
func TestParseMachine(t *testing.T) {
	cases := []struct {
		spec string
		seed int64
		want *mpc.FaultPlan
	}{
		{"machine:crash=0.02, machine:crash@3:1", 9,
			&mpc.FaultPlan{Seed: 9, CrashRate: 0.02, Crashes: []mpc.FaultEvent{{Round: 3, Machine: 1}}}},
		{"machine:crash@4:2, machine:crash@3:1, machine:crash@5:0", 11,
			&mpc.FaultPlan{Seed: 11, Crashes: []mpc.FaultEvent{{Round: 4, Machine: 2}, {Round: 3, Machine: 1}, {Round: 5, Machine: 0}}}},
		{"  machine:crash = 0.5 ,, machine:crash@2:0  ", 3,
			&mpc.FaultPlan{Seed: 3, CrashRate: 0.5, Crashes: []mpc.FaultEvent{{Round: 2, Machine: 0}}}},
		// A zero-rate plan stays non-nil (it still turns on checkpointing).
		{"machine:crash=0", 5, &mpc.FaultPlan{Seed: 5}},
		// The r1-faults bench row.
		{"machine:crash@1:0,machine:crash@3:2", 1,
			&mpc.FaultPlan{Seed: 1, Crashes: []mpc.FaultEvent{{Round: 1, Machine: 0}, {Round: 3, Machine: 2}}}},
		// Other layers around it leave the machine plan alone.
		{"wire:dup@6:1,machine:crash@2:1,disk:torn@4:0", 4,
			&mpc.FaultPlan{Seed: 4, Crashes: []mpc.FaultEvent{{Round: 2, Machine: 1}}}},
		// Boundary rates; a repeated key keeps the last value.
		{"machine:crash=1", -2, &mpc.FaultPlan{Seed: -2, CrashRate: 1}},
		{"machine:crash=0,machine:crash=0.3,machine:crash=0.1", -2,
			&mpc.FaultPlan{Seed: -2, CrashRate: 0.1}},
		{"", 1, nil},
		{"off", 1, nil},
		{"none", 1, nil},
		{"wire:dup@6:1", 1, nil},
	}
	for _, tc := range cases {
		p, err := Parse(tc.spec, tc.seed)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if got := p.MachineFaults(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q).MachineFaults() = %#v, want %#v", tc.spec, got, tc.want)
		}
	}

	p, err := Parse("machine:crash@4:2, machine:crash@3:1, machine:crash@5:0", 11)
	if err != nil {
		t.Fatal(err)
	}
	fp := p.MachineFaults()
	if !fp.CrashesAt(4, 2) || !fp.CrashesAt(3, 1) || fp.CrashesAt(4, 1) {
		t.Error("CrashesAt ignores explicit events or over-matches")
	}
	if !p.Enabled() || !fp.Enabled() || !strings.Contains(fp.String(), "explicit=3") {
		t.Errorf("plan with only explicit events: enabled=%t stringer=%q", fp.Enabled(), fp.String())
	}
	if p.MaxWorker() != -1 {
		t.Errorf("MaxWorker = %d, want -1 (machine ids are not workers)", p.MaxWorker())
	}
	if zero, err := Parse("machine:crash=0", 5); err != nil || zero == nil || zero.Enabled() {
		t.Errorf("zero-rate plan = %+v, %v; want non-nil and disabled", zero, err)
	}
}

func TestParseMachineErrors(t *testing.T) {
	for _, spec := range []string{
		"machine:crash", "machine:crash=2", "machine:crash=-0.1", "machine:crash=NaN", "machine:crash=x",
		"machine:warp=0.1", "machine:", "machine:zap@3:1",
		"machine:crash@3", "machine:crash@x:1", "machine:crash@0:0", "machine:crash@3:-1",
		"machine:crash@3:1>0",
	} {
		if p, err := Parse(spec, 0); err == nil {
			t.Errorf("Parse(%q) accepted: %+v", spec, p.MachineFaults())
		}
	}
	// The simulated drop, dup and stall faults are gone; each former form
	// is rejected with the wire: event that injects it on the real
	// transport.
	for _, tc := range []struct{ spec, wire string }{
		{"machine:drop=0.01", "wire:delay@"},
		{"machine:dup=0.01", "wire:dup@"},
		{"machine:stall=0.01", "wire:delay@"},
		{"machine:stall@2:0", "wire:delay@"},
		{"machine:drop@3:1>0", "wire:delay@"},
		{"machine:crash@1:0, machine:dup@4:2", "wire:dup@"},
	} {
		p, err := Parse(tc.spec, 0)
		if err == nil {
			t.Errorf("Parse(%q) accepted: %+v", tc.spec, p.MachineFaults())
			continue
		}
		if !strings.Contains(err.Error(), tc.wire) {
			t.Errorf("Parse(%q) = %v, want it to name %s", tc.spec, err, tc.wire)
		}
	}
}

func TestParseMachineOnly(t *testing.T) {
	fp, err := ParseMachine("machine:crash@2:1", 3)
	if err != nil || !reflect.DeepEqual(fp, &mpc.FaultPlan{Seed: 3, Crashes: []mpc.FaultEvent{{Round: 2, Machine: 1}}}) {
		t.Fatalf("ParseMachine = %#v, %v", fp, err)
	}
	if fp, err := ParseMachine("off", 3); fp != nil || err != nil {
		t.Fatalf("ParseMachine(off) = %#v, %v", fp, err)
	}
	for _, spec := range []string{"machine:crash@2:1,wire:dup@6:1", "disk:torn@4:0", "proc:kill@5:0"} {
		if _, err := ParseMachine(spec, 3); err == nil {
			t.Errorf("ParseMachine(%q) accepted", spec)
		}
	}
}

func TestMixDeterministic(t *testing.T) {
	a := &Plan{Seed: 9}
	b := &Plan{Seed: 9}
	if a.mix(1, 2, 3) != b.mix(1, 2, 3) {
		t.Error("mix not deterministic")
	}
	if a.mix(1, 2, 3) == a.mix(1, 2, 4) {
		t.Error("mix ignores worker")
	}
	if a.mix(1, 2, 3) == (&Plan{Seed: 10}).mix(1, 2, 3) {
		t.Error("mix ignores seed")
	}
}
