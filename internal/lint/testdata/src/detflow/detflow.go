// Package detflow is the negative fixture for the interprocedural taint
// engine: nondeterminism minted in the sibling helper package (standing in
// for a non-critical utility package) crosses the package boundary through
// return values and parameters and lands in deterministic sinks. None of
// the intra-procedural analyzers can see these flows — the sources are in
// another package — so every finding here is detflow's alone.
package detflow

import (
	"sort"

	"github.com/rulingset/mprs/internal/lint/testdata/src/detflow/helper"
)

// Ctx mimics the simulator context; Send is a deterministic sink by the
// critical-package API contract.
type Ctx struct{ out []uint64 }

// Send appends to the message payload stream.
func (x *Ctx) Send(dst int, payload ...uint64) {
	_ = dst
	x.out = append(x.out, payload...)
}

// SendOwnedRanges sends one range of slab per destination: the batched
// message payload sink.
func (x *Ctx) SendOwnedRanges(slab []uint64, end []int) {
	_ = end
	x.out = append(x.out, slab...)
}

// Stats mimics the simulator's deterministic columns.
type Stats struct {
	Rounds int
	Words  uint64
}

// crossPackageClock: a wall-clock stamp crosses the package boundary
// through a return value into a Send payload.
func crossPackageClock(x *Ctx) {
	stamp := helper.Stamp()
	x.Send(1, stamp) // want `wall-clock read \(time\.Now\).*helper\.go.*via helper\.Stamp.*flows into the Ctx\.Send message payload`
}

// crossPackagePid: process identity reaches the payload via an intermediate
// arithmetic expression.
func crossPackagePid(x *Ctx) {
	v := helper.Pid()*2 + 1
	x.Send(2, v) // want `process environment/identity \(os\.Getpid\).*via helper\.Pid.*flows into the Ctx\.Send message payload`
}

// crossPackageMapOrder: keys collected in map-range order are sent without
// sorting — the order taint survives the package boundary.
func crossPackageMapOrder(x *Ctx, m map[int]bool) {
	for _, k := range helper.UnsortedKeys(m) {
		x.Send(3, uint64(k)) // want `map iteration order.*via helper\.UnsortedKeys.*flows into the Ctx\.Send message payload`
	}
}

// sortedLaundering: sorting the collected keys is the sanctioned fix, so
// the same flow with a sort stays clean.
func sortedLaundering(x *Ctx, m map[int]bool) {
	keys := helper.UnsortedKeys(m)
	sort.Ints(keys)
	for _, k := range keys {
		x.Send(4, uint64(k))
	}
}

// emit forwards its argument to the sink: its summary records that
// parameter v reaches the Send payload.
func emit(x *Ctx, v uint64) {
	x.Send(5, v)
}

// indirectFlow: the tainted value enters the sink through emit — the
// finding lands at the call that injects the taint, naming the chain.
func indirectFlow(x *Ctx) {
	emit(x, helper.Draw()) // want `global math/rand source \(rand\.Intn\).*via helper\.Draw.*flows into the Ctx\.Send message payload \(via detflow\.emit\)`
}

// relayedFlow: taint survives a pass-through helper in the other package
// (parameter → return propagation in helper.Relay's summary).
func relayedFlow(x *Ctx) {
	x.Send(6, helper.Relay(helper.Stamp())) // want `wall-clock read \(time\.Now\).*flows into the Ctx\.Send message payload`
}

// selectArm: a value assigned in a multi-case select commits in whichever
// order the runtime picked.
func selectArm(x *Ctx, a, b chan uint64) {
	var v uint64
	select {
	case v = <-a:
	case v = <-b:
	}
	x.Send(7, v) // want `multi-case select arm.*flows into the Ctx\.Send message payload`
}

// statsColumn: a tainted value written into a deterministic Stats column.
func statsColumn(st *Stats) {
	st.Words = helper.Draw() // want `global math/rand source \(rand\.Intn\).*via helper\.Draw.*flows into the detflow\.Stats field Words`
}

// seededClean: the seeded draw is the sanctioned route; no finding.
func seededClean(x *Ctx) {
	x.Send(8, helper.SeededDraw(42))
}

// constClean: untainted data flows freely.
func constClean(x *Ctx, st *Stats) {
	x.Send(9, 7)
	st.Rounds = 3
}

// batchedClock: a wall-clock stamp written into a slab reaches the batched
// send as its payload.
func batchedClock(x *Ctx) {
	slab := make([]uint64, 2)
	slab[1] = helper.Stamp()
	x.SendOwnedRanges(slab, []int{1, 2}) // want `wall-clock read \(time\.Now\).*via helper\.Stamp.*flows into the Ctx\.SendOwnedRanges message payload`
}

// batchedSeeded: the seeded draw written into the slab stays clean.
func batchedSeeded(x *Ctx) {
	slab := make([]uint64, 2)
	slab[1] = helper.SeededDraw(42)
	x.SendOwnedRanges(slab, []int{1, 2})
}

// Driver is a name → runner table entry: a call through Run may run any
// function a composite literal stores in it.
type Driver struct {
	Name string
	Run  func(x *Ctx, v uint64)
}

// drivers stores a function literal in the Run field.
var drivers = []Driver{
	{Name: "lit", Run: func(x *Ctx, v uint64) { x.Send(10, v) }},
}

// stamped stores a literal whose own body carries a source into a sink. No
// declared function encloses it, so it is reported on its own, once, and so
// is the nested literal's flow.
var stamped = []Driver{
	{Name: "stamped", Run: func(x *Ctx, _ uint64) {
		x.Send(13, helper.Stamp())                     // want `wall-clock read \(time\.Now\).*via helper\.Stamp.*flows into the Ctx\.Send message payload`
		nested := func() { x.Send(14, helper.Draw()) } // want `global math/rand source \(rand\.Intn\).*via helper\.Draw.*flows into the Ctx\.Send message payload`
		nested()
	}},
}

// Hook stores declared functions; Source's result carries their taint out.
type Hook struct {
	Fire   func(x *Ctx, v uint64)
	Source func() uint64
}

var hooks = []Hook{{Fire: emit, Source: helper.Stamp}}

// fieldCalls: tainted values reach the sink through calls via func-typed
// fields, into a literal, into a declared function, and out of a declared
// function's result.
func fieldCalls(x *Ctx) {
	for _, d := range drivers {
		d.Run(x, helper.Draw()) // want `global math/rand source \(rand\.Intn\).*flows into the Ctx\.Send message payload \(via Driver\.Run\)`
	}
	for _, h := range hooks {
		h.Fire(x, helper.Pid()) // want `process environment/identity \(os\.Getpid\).*flows into the Ctx\.Send message payload \(via detflow\.emit\)`
		x.Send(11, h.Source())  // want `wall-clock read \(time\.Now\).*via helper\.Stamp.*flows into the Ctx\.Send message payload`
	}
}

// fieldCallClean: untainted data through the same fields stays clean.
func fieldCallClean(x *Ctx) {
	for _, d := range drivers {
		d.Run(x, 12)
	}
}
