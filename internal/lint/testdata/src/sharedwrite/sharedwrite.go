// Package sharedwrite is a negative fixture for the sharedwrite analyzer:
// step closures mutating captured driver state in ways that race between the
// worker pool's machine closures, next to the deterministic shapes that must
// stay silent.
package sharedwrite

// Ctx stands in for the simulators' per-machine step context.
type Ctx struct {
	Machine int
	Lo, Hi  int
}

func (x Ctx) Send(dst int, words ...uint64) {}

// Cluster stands in for a simulator cluster: the analyzer keys on the
// Step/StepFirst/RouteStep/runBlocks method names.
type Cluster struct{ rounds int }

func (c *Cluster) Step(name string, f func(x Ctx)) error             { f(Ctx{}); return nil }
func (c *Cluster) StepFirst(name string, k int, f func(x Ctx)) error { f(Ctx{}); return nil }
func (c *Cluster) RouteStep(name string, f func(x Ctx)) error        { f(Ctx{}); return nil }
func (c *Cluster) runBlocks(k int, f func(lo, hi int))               { f(0, k) }

type acc struct {
	total int
	perM  []int
}

func capturedScalar(c *Cluster) {
	total := 0
	count := 0
	_ = c.Step("s", func(x Ctx) {
		total += x.Machine // want `step closure writes captured variable "total"`
		count++            // want `step closure writes captured variable "count"`
	})
	_ = total + count
}

func capturedMapAndSharedSlot(c *Cluster) {
	seen := map[int]bool{}
	flags := make([]bool, 8)
	_ = c.Step("s", func(x Ctx) {
		seen[x.Machine] = true // want `step closure writes captured map "seen"`
		flags[0] = true        // want `step closure writes captured slice "flags" at an index captured from outside`
	})
}

func capturedStructAndPointer(c *Cluster, a *acc, p *int) {
	_ = c.RouteStep("r", func(x Ctx) {
		a.total = x.Machine // want `step closure writes field total of captured "a"`
		*p = x.Machine      // want `step closure writes through captured pointer "p"`
	})
}

// prefixStep: a closure run on the first k machines only still runs them
// concurrently, so its captured writes race like a step closure's.
func prefixStep(c *Cluster) {
	total := 0
	sums := make([]int, 8)
	_ = c.StepFirst("p", 4, func(x Ctx) {
		total += x.Machine // want `step closure writes captured variable "total"`
		sums[x.Machine] = x.Machine
	})
	_ = total
}

// nested literals inherit the step closure's capture boundary: a goroutine
// spawned inside the closure writing driver state is just as shared.
func nestedLiteral(c *Cluster) {
	sum := 0
	_ = c.Step("s", func(x Ctx) {
		func() {
			sum = x.Machine // want `step closure writes captured variable "sum"`
		}()
	})
	_ = sum
}

// machineIndexed is the blessed partition pattern: every write lands in a
// slot owned by this machine (directly or via a closure-local index), so no
// finding.
func machineIndexed(c *Cluster) {
	out := make([]int, 8)
	marks := make([]bool, 64)
	_ = c.Step("s", func(x Ctx) {
		out[x.Machine] = x.Machine
		for v := x.Lo; v < x.Hi; v++ {
			marks[v] = true
		}
		local := 0
		local += x.Machine // closure-local: silent
		out[local] = local
	})
}

// soleWriter is the gather pattern: an equality guard on the closure's
// parameter pins the write to one machine, making it sequential.
func soleWriter(c *Cluster) {
	var collected []uint64
	total := 0
	_ = c.Step("s", func(x Ctx) {
		if x.Machine == 0 {
			collected = append(collected, 1)
			total++
		}
		if m := x.Machine; m == 3 && len(collected) == 0 {
			total = m
		}
	})
	_ = total
}

// blockShared: a pool block closure writing driver state races between the
// blocks exactly like a step closure.
func blockShared(c *Cluster) {
	total := 0
	counts := make([]int, 8)
	c.runBlocks(8, func(lo, hi int) {
		total += hi - lo // want `step closure writes captured variable "total"`
		counts[0]++      // want `step closure writes captured slice "counts" at an index captured from outside`
	})
	_ = total
}

// blockOwned is the receiver-half pattern: each block writes only the slots
// of its own machines, or slots derived from them.
func blockOwned(c *Cluster) {
	perM := make([]int, 8)
	rows := make([]int32, 64)
	c.runBlocks(8, func(lo, hi int) {
		for m := lo; m < hi; m++ {
			perM[m] = hi - lo
			v := 8 * m
			rows[v+1]++
		}
	})
}

// notAStep: writes inside closures passed to other methods are out of scope.
func notAStep(c *Cluster) {
	total := 0
	helper := func(f func(x Ctx)) { f(Ctx{}) }
	helper(func(x Ctx) {
		total += x.Machine
	})
	_ = total
}
