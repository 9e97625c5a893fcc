// Package chaos is the deterministic fault-injection layer for the
// multi-process backend's three substrates: the MPRW wire protocol
// (internal/transport), the durable checkpoint store (internal/durable) and
// the supervisor's process fleet (internal/supervise).
//
// A Plan is parsed from a compact spec. It is the run's one fault language:
// every part is prefixed by the layer it attacks, and the machine: layer
// states the simulated machine crashes the engine itself injects and
// recovers from (see mpc.FaultPlan):
//
//	machine:crash@R:M  simulated machine M crashes at superstep R
//	machine:crash=P    seeded crash rate P in [0,1] per (superstep, machine)
//	wire:corrupt@R:W   flip a seeded byte of worker W's round-R frame, then
//	                   sever its uplink (the supervisor sees ErrFraming)
//	wire:trunc@R:W     truncate that frame at a seeded offset and sever
//	wire:dup@R:W       deliver worker W's round-R frame twice (peers must
//	                   skip the stale copy)
//	wire:delay@R:W     hold worker W's round-R frame until its next frame
//	                   passes (peers receive them reordered)
//	wire:reorder@R:W   downlink: deliver worker W the relayed round-R frames
//	                   after a later round's frame (future-frame stash)
//	wire:hbdrop@N:W    drop worker W's N-th heartbeat frame
//	wire:hbgarble@N:W  garble the telemetry payload of worker W's N-th
//	                   heartbeat (the frame itself stays valid)
//	disk:torn@R:W      worker W's round-R checkpoint write is silently torn
//	                   (success reported, prefix on disk)
//	disk:enospc@R:W    that write fails with ENOSPC
//	disk:fsyncerr@R:W  that file's fsync fails
//	disk:renamecrash@R:W  the temp-to-final rename fails (temp left behind)
//	disk:manifesttorn@R:W the manifest update after installing the round-R
//	                   checkpoint is silently torn
//	proc:kill@R:W      SIGKILL worker W when its round-R frame arrives (the
//	                   supervisor's injected-kill schedule)
//	proc:flap@R:W      kill worker W every time it reaches round R — on
//	                   every restart too — modeling a deterministic crash
//	                   loop the quarantine machinery must catch
//
// Every decision is a pure function of (plan, seed, event identity): byte
// offsets and garble bytes derive from the seed via SplitMix64, the machine:
// part becomes an mpc.FaultPlan keyed by the same seed, wire and disk events
// fire once (disk events only on a worker's first incarnation, so a
// restarted worker's retry is clean), and nothing reads the wall clock or
// draws ambient randomness. The package's contract is the repo's
// bit-identity oracle: every survivable plan yields members, canonical
// Stats and trace bytes identical to the fault-free run; every
// non-survivable plan yields a structured error, never a panic or a
// silently wrong answer. Machine ids are simulated machines, not worker
// processes: machine: events are replayed by every worker and never count
// against the fleet size.
package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/rulingset/mprs/internal/mpc"
)

// WireOp enumerates frame-level events applied by the supervisor-side
// interposer (see Wire).
type WireOp uint8

const (
	// WireCorrupt flips one seeded byte of the target frame's encoding and
	// severs the uplink after it: the supervisor's reader fails with
	// transport.ErrFraming and declares the worker crashed.
	WireCorrupt WireOp = iota + 1
	// WireTrunc emits a seeded-length prefix of the frame and severs.
	WireTrunc
	// WireDup delivers the frame twice; receivers exercise stale-skip.
	WireDup
	// WireDelay holds the frame until the worker's next frame passes.
	WireDelay
	// WireReorder (downlink) holds the relayed frames for the target round
	// until a later round's frame passes, exercising the future-frame stash.
	WireReorder
	// WireHBDrop drops the worker's N-th heartbeat frame.
	WireHBDrop
	// WireHBGarble replaces the N-th heartbeat's telemetry payload with
	// seeded junk inside a correctly-framed (CRC-valid) frame.
	WireHBGarble
)

// DiskOp enumerates durable-store events applied inside the worker process
// via the durable.FS seam (see NewDiskFS).
type DiskOp uint8

const (
	// DiskTorn silently truncates the checkpoint data write: Sync and Close
	// succeed, the file is installed, and only decode-time CRC/truncation
	// checks can catch it.
	DiskTorn DiskOp = iota + 1
	// DiskENOSPC fails the checkpoint data write with ENOSPC.
	DiskENOSPC
	// DiskFsyncErr fails the checkpoint data file's fsync.
	DiskFsyncErr
	// DiskRenameCrash fails the temp-to-final rename, leaving the temp file
	// behind — the on-disk state of a crash between write and rename.
	DiskRenameCrash
	// DiskManifestTorn silently truncates the manifest update that follows
	// installing the target round's checkpoint.
	DiskManifestTorn
)

// ProcOp enumerates process-level events.
type ProcOp uint8

const (
	// ProcKill kills the worker once when its frame for a round >= the
	// target arrives (the supervisor's injected-kill schedule).
	ProcKill ProcOp = iota + 1
	// ProcFlap kills the worker every time its frame for a round >= the
	// target arrives, before the frame is processed — a deterministic crash
	// loop pinned at the same committed round on every restart.
	ProcFlap
)

// WireEvent is one wire-layer injection. Round is the Messages round for
// corrupt/trunc/dup/delay/reorder and the 1-based heartbeat ordinal for
// hbdrop/hbgarble.
type WireEvent struct {
	Op     WireOp
	Round  int
	Worker int
}

// DiskEvent is one durable-store injection, keyed by the barrier round
// passed to Persist.
type DiskEvent struct {
	Op     DiskOp
	Round  int
	Worker int
}

// ProcEvent is one process-level injection.
type ProcEvent struct {
	Op     ProcOp
	Round  int
	Worker int
}

// Plan is a parsed, deterministic chaos schedule. The zero value (and a nil
// plan) injects nothing. A Plan is stateless and may be shared; once-only
// firing state lives in the runtime objects built from it (Wire, DiskFS).
type Plan struct {
	// Seed keys the byte-offset and junk-byte choices and the machine
	// fault schedule.
	Seed int64

	// Machine is built from the machine: parts; nil when there are none.
	// A zero-rate part still sets it, enabling checkpoints as before.
	Machine *mpc.FaultPlan

	Wire []WireEvent
	Disk []DiskEvent
	Proc []ProcEvent
}

// Enabled reports whether the plan injects anything at all.
func (p *Plan) Enabled() bool {
	return p != nil && (p.Machine.Enabled() || len(p.Wire) > 0 || len(p.Disk) > 0 || len(p.Proc) > 0)
}

// MachineFaults returns the machine: part (nil for a nil plan or one
// without machine: parts): the plan for rulingset.Options.Faults.
func (p *Plan) MachineFaults() *mpc.FaultPlan {
	if p == nil {
		return nil
	}
	return p.Machine
}

// String implements fmt.Stringer.
func (p *Plan) String() string {
	if !p.Enabled() {
		return "chaos(off)"
	}
	return fmt.Sprintf("chaos(seed=%d wire=%d disk=%d proc=%d)", p.Seed, len(p.Wire), len(p.Disk), len(p.Proc))
}

// HasWire reports whether any wire events exist (the supervisor only
// interposes on worker pipes when they do).
func (p *Plan) HasWire() bool { return p != nil && len(p.Wire) > 0 }

// HasDisk reports whether any disk events target worker.
func (p *Plan) HasDisk(worker int) bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Disk {
		if ev.Worker == worker {
			return true
		}
	}
	return false
}

// Kills returns the proc:kill events: the supervisor's whole injected-kill
// schedule.
func (p *Plan) Kills() []ProcEvent {
	if p == nil {
		return nil
	}
	var kills []ProcEvent
	for _, ev := range p.Proc {
		if ev.Op == ProcKill {
			kills = append(kills, ev)
		}
	}
	return kills
}

// FlapsAt reports whether a proc:flap event kills worker at round: flap
// events fire on every frame for a round at or beyond the target, every
// generation, which pins the crash at the same committed round forever.
func (p *Plan) FlapsAt(worker, round int) bool {
	if p == nil {
		return false
	}
	for _, ev := range p.Proc {
		if ev.Op == ProcFlap && ev.Worker == worker && round >= ev.Round {
			return true
		}
	}
	return false
}

// MaxWorker returns the largest worker id any event targets (-1 when none);
// machine: events name simulated machines, not workers.
func (p *Plan) MaxWorker() int {
	maxW := -1
	if p == nil {
		return maxW
	}
	for _, ev := range p.Wire {
		if ev.Worker > maxW {
			maxW = ev.Worker
		}
	}
	for _, ev := range p.Disk {
		if ev.Worker > maxW {
			maxW = ev.Worker
		}
	}
	for _, ev := range p.Proc {
		if ev.Worker > maxW {
			maxW = ev.Worker
		}
	}
	return maxW
}

// wireOps and diskOps and procOps name the grammar's operations.
var wireOps = map[string]WireOp{
	"corrupt":  WireCorrupt,
	"trunc":    WireTrunc,
	"dup":      WireDup,
	"delay":    WireDelay,
	"reorder":  WireReorder,
	"hbdrop":   WireHBDrop,
	"hbgarble": WireHBGarble,
}

var diskOps = map[string]DiskOp{
	"torn":         DiskTorn,
	"enospc":       DiskENOSPC,
	"fsyncerr":     DiskFsyncErr,
	"renamecrash":  DiskRenameCrash,
	"manifesttorn": DiskManifestTorn,
}

var procOps = map[string]ProcOp{
	"kill": ProcKill,
	"flap": ProcFlap,
}

// removedMachineOps names, for each machine: op the simulator does not
// inject (a simulated drop, duplicate or stall changes no inbox), the wire:
// event that exercises the same failure on the real multi-process
// transport.
var removedMachineOps = map[string]string{
	"drop":  "wire:delay@R:W",
	"dup":   "wire:dup@R:W",
	"stall": "wire:delay@R:W",
}

// Parse builds a Plan from a compact spec such as
//
//	"machine:crash=0.02,machine:crash@3:1,wire:dup@6:1,disk:torn@4:1,proc:kill@10:2"
//
// Every comma-separated part must carry a machine:, wire:, disk: or proc:
// prefix. An empty spec (or "off"/"none") returns a disabled (nil) plan.
func Parse(spec string, seed int64) (*Plan, error) {
	trimmed := strings.TrimSpace(spec)
	if trimmed == "" || trimmed == "off" || trimmed == "none" {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	for _, part := range strings.Split(trimmed, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		layer, rest, ok := strings.Cut(part, ":")
		if !ok || strings.ContainsAny(layer, "@=") {
			return nil, fmt.Errorf("chaos: spec %q: want layer:op@ROUND:ID with layer machine, wire, disk or proc (model faults are machine:crash=0.02 or machine:crash@3:1)", part)
		}
		target := "worker"
		if layer == "machine" {
			target = "machine"
			if p.Machine == nil {
				p.Machine = &mpc.FaultPlan{Seed: seed}
			}
			name, _, _ := strings.Cut(rest, "@")
			name, _, _ = strings.Cut(name, "=")
			if name = strings.TrimSpace(name); removedMachineOps[name] != "" {
				return nil, fmt.Errorf("chaos: spec %q: the simulated %s fault is gone (it changed no inbox); use %s, which injects it on the real transport", part, name, removedMachineOps[name])
			}
			if key, val, ok := strings.Cut(rest, "="); ok {
				if strings.TrimSpace(key) != "crash" {
					return nil, fmt.Errorf("chaos: spec %q: unknown machine rate (want crash)", part)
				}
				rate, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
				if err != nil || !(rate >= 0 && rate <= 1) {
					return nil, fmt.Errorf("chaos: spec %q: want a rate in [0,1]", part)
				}
				p.Machine.CrashRate = rate
				continue
			}
		}
		op, tail, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("chaos: spec %q: want %s:OP@ROUND:%s", part, layer, strings.ToUpper(target))
		}
		round, id, err := parseRoundID(part, tail, target)
		if err != nil {
			return nil, err
		}
		// Disk rounds key on Persist barriers, which include the round-0
		// baseline. Supersteps, Messages rounds and heartbeat ordinals are
		// 1-based, so a round-0 event on any other layer could never fire.
		if round < 1 && layer != "disk" {
			return nil, fmt.Errorf("chaos: spec %q: %s round must be >= 1", part, layer)
		}
		switch layer {
		case "machine":
			if op != "crash" {
				return nil, fmt.Errorf("chaos: spec %q: unknown machine op %q (want crash)", part, op)
			}
			p.Machine.Crashes = append(p.Machine.Crashes, mpc.FaultEvent{Round: round, Machine: id})
		case "wire":
			wop, ok := wireOps[op]
			if !ok {
				return nil, fmt.Errorf("chaos: spec %q: unknown wire op %q (want corrupt, trunc, dup, delay, reorder, hbdrop or hbgarble)", part, op)
			}
			p.Wire = append(p.Wire, WireEvent{Op: wop, Round: round, Worker: id})
		case "disk":
			dop, ok := diskOps[op]
			if !ok {
				return nil, fmt.Errorf("chaos: spec %q: unknown disk op %q (want torn, enospc, fsyncerr, renamecrash or manifesttorn)", part, op)
			}
			p.Disk = append(p.Disk, DiskEvent{Op: dop, Round: round, Worker: id})
		case "proc":
			pop, ok := procOps[op]
			if !ok {
				return nil, fmt.Errorf("chaos: spec %q: unknown proc op %q (want kill or flap)", part, op)
			}
			p.Proc = append(p.Proc, ProcEvent{Op: pop, Round: round, Worker: id})
		default:
			return nil, fmt.Errorf("chaos: spec %q: unknown layer %q (want machine, wire, disk or proc)", part, layer)
		}
	}
	if p.Machine == nil && !p.Enabled() {
		return nil, nil
	}
	return p, nil
}

// parseRoundID parses the "R:ID" tail shared by every event, where ID names
// a worker or, for machine: events, a simulated machine.
func parseRoundID(part, tail, target string) (round, id int, err error) {
	r, t, ok := strings.Cut(tail, ":")
	if !ok {
		return 0, 0, fmt.Errorf("chaos: spec %q: want OP@ROUND:%s", part, strings.ToUpper(target))
	}
	round, err = strconv.Atoi(r)
	if err != nil {
		return 0, 0, fmt.Errorf("chaos: spec %q: bad round: %v", part, err)
	}
	id, err = strconv.Atoi(t)
	if err != nil {
		return 0, 0, fmt.Errorf("chaos: spec %q: bad %s: %v", part, target, err)
	}
	if round < 0 || id < 0 {
		return 0, 0, fmt.Errorf("chaos: spec %q: round and %s must be >= 0", part, target)
	}
	return round, id, nil
}

// ParseMachine parses a spec of machine: parts only — the model-fault plan
// of an in-process run — and rejects every other layer.
func ParseMachine(spec string, seed int64) (*mpc.FaultPlan, error) {
	p, err := Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	if p != nil && len(p.Wire)+len(p.Disk)+len(p.Proc) > 0 {
		return nil, fmt.Errorf("chaos: spec %q: only machine: parts apply here", spec)
	}
	return p.MachineFaults(), nil
}

// FingerprintTerm renders spec's machine: parts, trimmed and comma-joined,
// plus the seed ("" when there are none): the part of a fault plan that
// changes what a durable checkpoint replays.
func FingerprintTerm(spec string, seed int64) string {
	var parts []string
	for _, part := range strings.Split(spec, ",") {
		if part = strings.TrimSpace(part); strings.HasPrefix(part, "machine:") {
			parts = append(parts, part)
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return fmt.Sprintf("%s seed=%d", strings.Join(parts, ","), seed)
}

// ValidateWorkers rejects plans targeting workers outside [0, workers).
func (p *Plan) ValidateWorkers(workers int) error {
	if p == nil {
		return nil
	}
	if maxW := p.MaxWorker(); maxW >= workers {
		return fmt.Errorf("chaos: plan targets worker %d but the fleet has %d workers", maxW, workers)
	}
	return nil
}

// mix derives a deterministic 64-bit value from the plan seed and an event
// identity; callers reduce it to offsets or junk bytes.
func (p *Plan) mix(kind, round, worker uint64) uint64 {
	return mpc.SplitMix64(mpc.SplitMix64(uint64(p.Seed)) ^ kind<<48 ^ round<<16 ^ worker)
}
