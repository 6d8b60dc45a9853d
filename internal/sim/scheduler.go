package sim

import "math/bits"

// Warp scheduling policies. The paper's baseline is the rotating-priority
// (round-robin) scheduler of Section III-C1; its conclusion proposes
// studying "two-level scheduling" and similar mechanisms "from a power
// perspective", so the simulator supports three policies:
//
//	rr        rotating priority over all in-flight warps (default)
//	gto       greedy-then-oldest: keep issuing the same warp until it
//	          stalls, then fall back to the oldest ready warp
//	twolevel  Narasiman et al.: a small active set is scheduled
//	          round-robin; warps that stall on memory are swapped out for
//	          pending warps. The smaller active set needs a narrower
//	          priority encoder, which is precisely its power appeal.
const (
	PolicyRR       = "rr"
	PolicyGTO      = "gto"
	PolicyTwoLevel = "twolevel"
)

// candidateOrder fills buf with the live slots (see issueStage) scheduler
// `sched` considers this cycle under the GTO or two-level policy, in
// priority order. Round-robin needs no list: issueRoundRobin walks the
// live mask directly.
func (g *gpuSim) candidateOrder(c *coreState, sched int, live, fresh uint64, buf []int) []int {
	buf = buf[:0]
	if g.policy == PolicyGTO {
		// Greedy: the last-issued warp first, then the others oldest first.
		last := c.lastIssued[sched]
		if last >= 0 && live&(1<<last) != 0 {
			buf = append(buf, last)
			live &^= 1 << last
		}
		n := len(buf)
		for m := live; m != 0; m &= m - 1 {
			buf = append(buf, bits.TrailingZeros64(m))
		}
		sortByAge(c, buf[n:])
		return buf
	}

	// Two-level. The active set is the K oldest buffered warps not waiting
	// on memory, warps fetched this cycle included; the two sets live in
	// reusable per-core buffers.
	active, pending := c.tlActive[:0], c.tlPend[:0]
	for m := c.issuable & c.schedMask[sched]; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.slots[i].memPending > 0 {
			pending = append(pending, i)
		} else {
			active = append(active, i)
		}
	}
	sortByAge(c, active)
	if k := g.activeSet; len(active) > k {
		pending = append(pending, active[k:]...)
		active = active[:k]
	}
	// Round-robin within the active set, then the pending warps; slots
	// fetched this cycle hold their place but cannot issue yet.
	start := 0
	for i, s := range active {
		if s >= c.issueRR[sched] {
			start = i
			break
		}
	}
	for i := range active {
		if s := active[(start+i)%len(active)]; fresh&(1<<s) == 0 {
			buf = append(buf, s)
		}
	}
	for _, s := range pending {
		if fresh&(1<<s) == 0 {
			buf = append(buf, s)
		}
	}
	c.tlActive, c.tlPend = active, pending
	return buf
}

// sortByAge orders slot indices oldest placement first. Age stamps are
// unique within a core, so the order is total; an insertion sort keeps the
// short per-scheduler lists allocation-free.
func sortByAge(c *coreState, idx []int) {
	for i := 1; i < len(idx); i++ {
		v := idx[i]
		age := c.slots[v].ageStamp
		j := i
		for ; j > 0 && c.slots[idx[j-1]].ageStamp > age; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = v
	}
}
