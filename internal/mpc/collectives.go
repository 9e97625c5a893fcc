package mpc

import (
	"fmt"
	"slices"
)

// Collectives: the standard O(1)-round coordination primitives of
// near-linear-memory MPC / congested-clique algorithms. A gather collects
// at the coordinator, machine 0, and a broadcast sends its decision back;
// an all-gather hands every machine every summary in one round, so every
// machine makes the same decision itself. Each collective is implemented
// with real messages through Step so rounds, message counts, and bandwidth
// are all metered; a collective only machine 0 sends in runs its closure on
// machine 0 alone (StepFirst), and a slab sent to many machines is queued
// under one outbox lock (sendOwnedTo).

// Gather runs one round in which every machine sends local(x) to machine 0,
// and returns the payloads indexed by source machine (nil for a machine that
// sent no words). A source that sent one message gets that delivered payload
// itself, not a copy: payloads are read-only (DESIGN.md §8), and so is the
// result.
func (c *Cluster) Gather(name string, local func(x Ctx) []uint64) ([][]uint64, error) {
	err := c.Step(name, func(x Ctx) {
		payload := local(x)
		if len(payload) > 0 || x.Machine != 0 {
			x.SendOwned(0, payload)
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, c.Machines())
	for _, msg := range c.inboxes[0] {
		switch {
		case len(msg.Payload) == 0:
		case out[msg.Src] == nil:
			out[msg.Src] = msg.Payload
		default:
			// Clipped, so the append copies instead of writing into
			// the first payload's spare capacity.
			out[msg.Src] = append(slices.Clip(out[msg.Src]), msg.Payload...)
		}
	}
	c.inboxes[0] = nil
	return out, nil
}

// Broadcast runs one round in which machine 0 sends payload to every other
// machine. The payload is copied once and that one read-only copy is sent
// to every destination. The payload is returned for convenience so
// coordinator code can chain on it.
func (c *Cluster) Broadcast(name string, payload []uint64) ([]uint64, error) {
	own := append(make([]uint64, 0, len(payload)), payload...)
	err := c.StepFirst(name, 1, func(x Ctx) {
		x.sendOwnedTo(1, c.Machines(), own)
	})
	if err != nil {
		return nil, err
	}
	clear(c.inboxes[1:])
	return payload, nil
}

// ScatterToOwners runs one round in which machine 0 sends every item v to
// Owner(v): one word per item, batched into one message per destination in
// items order, so the round costs len(items) words in total. It hands a
// coordinator's per-vertex result (the residual solution's members) to the
// machines that own the vertices.
func (c *Cluster) ScatterToOwners(name string, items []int32) error {
	err := c.StepFirst(name, 1, func(x Ctx) {
		end := make([]int, c.Machines()) // items per owner, then fill cursors, then range ends
		for _, v := range items {
			end[c.Owner(int(v))]++
		}
		total := 0
		for dst, k := range end {
			end[dst] = total
			total += k
		}
		slab := make([]uint64, total)
		for _, v := range items {
			dst := c.Owner(int(v))
			slab[end[dst]] = uint64(uint32(v))
			end[dst]++
		}
		x.SendOwnedRanges(slab, end)
	})
	if err != nil {
		return err
	}
	clear(c.inboxes)
	return nil
}

// AllGather runs one round in which every machine sends local(x), one slab,
// to every machine, itself included, so the round costs M·Σ|part| words and
// every machine receives Σ|part|. It returns the parts indexed by source
// machine, in the machine order every inbox holds them (nil for a machine
// whose slab is empty: it sends nothing). The parts are the delivered
// payloads, read-only like every payload (DESIGN.md §8); local must send
// nothing itself.
func (c *Cluster) AllGather(name string, local func(x Ctx) []uint64) ([][]uint64, error) {
	M := c.Machines()
	err := c.Step(name, func(x Ctx) {
		slab := local(x)
		if len(slab) == 0 {
			return
		}
		x.sendOwnedTo(0, M, slab)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, M)
	for _, msg := range c.inboxes[0] {
		out[msg.Src] = msg.Payload
	}
	clear(c.inboxes)
	return out, nil
}

// AllReduceSumUint all-gathers a uint64 vector from every machine, and every
// machine sums them coordinate-wise in machine order. Costs one round. All
// machines must return vectors of equal length.
func (c *Cluster) AllReduceSumUint(name string, local func(x Ctx) []uint64) ([]uint64, error) {
	parts, err := c.AllGather(name, local)
	if err != nil {
		return nil, err
	}
	var sum []uint64
	for m, part := range parts {
		if part == nil {
			continue
		}
		if sum == nil {
			sum = make([]uint64, len(part))
		}
		if len(part) != len(sum) {
			return nil, fmt.Errorf("mpc: allreduce %q: machine %d sent %d words, want %d", name, m, len(part), len(sum))
		}
		for i, w := range part {
			sum[i] += w
		}
	}
	return sum, nil
}

// AllReduceMaxUint all-gathers a single uint64 from every machine, and every
// machine takes the maximum. Costs one round.
func (c *Cluster) AllReduceMaxUint(name string, local func(x Ctx) uint64) (uint64, error) {
	parts, err := c.AllGather(name, func(x Ctx) []uint64 {
		return []uint64{local(x)}
	})
	if err != nil {
		return 0, err
	}
	var best uint64
	for _, part := range parts {
		for _, w := range part {
			if w > best {
				best = w
			}
		}
	}
	return best, nil
}
