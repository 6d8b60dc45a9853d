package sim

import (
	"fmt"

	"gpusimpow/internal/config"
	"gpusimpow/internal/kernel"
	"gpusimpow/internal/sim/cache"
)

// segmentBytes is the coalescing granularity (and L1/L2 line size on the
// global path): contiguous aligned 128-byte segments, after the NVIDIA
// coalescing patent the paper models.
const segmentBytes = 128

// constRegionBase maps the constant segment into the global address space
// for DRAM timing purposes (constant cache misses must pay memory latency).
const constRegionBase = 0xF000_0000

// memSys bundles the shared memory-system state: the (optional) L2, the
// DRAM channels, and NoC accounting. L1 and constant caches are per-core and
// live in coreState.
type memSys struct {
	cfg  *config.GPU
	l2   *cache.Cache // nil when absent
	dram *dramSys

	l2Lat uint64
}

func newMemSys(cfg *config.GPU) (*memSys, error) {
	m := &memSys{
		cfg:   cfg,
		dram:  newDRAMSys(cfg),
		l2Lat: uint64(cfg.DRAMLatencyCore) / 3,
	}
	if cfg.L2KB > 0 {
		l2, err := cache.New(cache.Config{
			SizeBytes: cfg.L2KB * 1024,
			LineBytes: cfg.L2LineB,
			Assoc:     cfg.L2Assoc,
			Policy:    cache.WriteBack,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: L2: %w", err)
		}
		m.l2 = l2
	}
	return m, nil
}

// globalSegment services one coalesced segment request and returns its
// completion cycle. The caller has already gone through (and counted) the
// per-core L1.
func (m *memSys) globalSegment(now uint64, addr uint32, segBytes int, write bool, a *Activity) uint64 {
	// Request flit towards the L2/MC partition; writes carry payload flits.
	a.NoCFlits++
	if write {
		a.NoCFlits += uint64((segBytes + 31) / 32)
	}

	var done uint64
	if m.l2 != nil {
		res := m.l2.Access(uint64(addr), write)
		if write {
			a.L2Writes++
		} else {
			a.L2Reads++
		}
		switch {
		case res.Hit:
			done = now + m.l2Lat
		default:
			a.L2Misses++
			if res.Writeback {
				// Dirty victim heads to DRAM; its latency is off the load's
				// critical path but consumes bandwidth.
				m.dram.access(now, uint32(res.VictimLine), m.cfg.L2LineB, true, a)
			}
			if write {
				// Write-allocate without fetch: coalesced stores cover whole
				// segments, so the line is installed dirty with no fill read.
				done = now + m.l2Lat
			} else {
				done = m.dram.access(now, addr, segBytes, false, a) + m.l2Lat
			}
		}
	} else {
		done = m.dram.access(now, addr, segBytes, write, a)
	}

	// Response flits back to the core (reads carry data).
	if !write {
		a.NoCFlits += uint64((segBytes+31)/32) + 1
	} else {
		a.NoCFlits++ // ack
	}
	return done
}

// finalize drains dirty L2 state at kernel end: lines written during the
// kernel ultimately reach DRAM, so the flush traffic is charged to the
// kernel's DRAM command counts.
func (m *memSys) finalize(a *Activity) {
	if m.l2 == nil {
		return
	}
	dirty := m.l2.Flush()
	if dirty > 0 {
		bursts := uint64(dirty) * uint64((m.cfg.L2LineB+31)/32)
		a.DRAMWriteBursts += bursts
		a.MCRequests += uint64(dirty)
		a.NoCFlits += bursts // writeback payload crosses the NoC partition links
	}
}

// coalesce groups the active lanes' byte addresses into aligned segments.
// It appends the distinct segment base addresses to buf (sorted ascending),
// mirroring the input queue / pending request table / FSM structure of the
// coalescing patent: the goal is "to service the addresses requested by the
// memory access in as few memory requests as possible". The caller passes a
// reusable buffer; with at most WarpSize segments per warp access, linear
// dedup plus insertion sort beats a map without allocating.
func coalesce(info *kernel.StepInfo, buf []uint32) []uint32 {
	segs := buf
	for l := 0; l < kernel.WarpSize; l++ {
		if info.ExecMask&(1<<l) == 0 {
			continue
		}
		base := info.Addrs[l] &^ (segmentBytes - 1)
		dup := false
		for _, s := range segs {
			if s == base {
				dup = true
				break
			}
		}
		if !dup {
			segs = append(segs, base)
		}
	}
	// Insertion sort: ≤32 elements, usually already ordered (unit strides).
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j] < segs[j-1]; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	return segs
}

// smemExtraCycles computes the bank-conflict serialization cost of a
// shared-memory access, per the shared-memory patent's conflict resolution
// mechanism: within each access group (a half-warp on 16-bank Tesla parts,
// a full warp on 32-bank Fermi parts) the cost is the maximum number of
// *distinct* addresses mapping to one bank (equal addresses broadcast). The
// return value is the total extra cycles beyond a conflict-free access.
func smemExtraCycles(info *kernel.StepInfo, banks int) int {
	group := banks
	if group > kernel.WarpSize {
		group = kernel.WarpSize
	}
	extra := 0
	// Fixed-size stack scratch (a group never exceeds the warp width):
	// addrs/bankOf collect the group's active lanes, firsts marks the first
	// occurrence of each (bank, address) pair so equal addresses broadcast.
	var addrs [kernel.WarpSize]uint32
	var bankOf [kernel.WarpSize]int32
	var firsts [kernel.WarpSize]bool
	var firstAddr [64]uint32 // the screen's first address per bank
	fastBanks := banks <= 64
	for g := 0; g < kernel.WarpSize; g += group {
		if fastBanks {
			// Single-pass conflict screen: mark each active lane's bank in
			// a word and remember the first address seen on it; a repeat
			// of that address is a broadcast. If no bank sees a second
			// distinct address, the group is conflict-free (the max
			// distinct-address degree is 1) and the quadratic
			// first-occurrence analysis below is skipped; otherwise it
			// falls through to the exact algorithm.
			var occ uint64
			clash := false
			for l := g; l < g+group && l < kernel.WarpSize; l++ {
				if info.ExecMask&(1<<l) == 0 {
					continue
				}
				b := int(info.Addrs[l]/4) % banks
				bank := uint64(1) << b
				if occ&bank == 0 {
					occ |= bank
					firstAddr[b] = info.Addrs[l]
				} else if firstAddr[b] != info.Addrs[l] {
					clash = true
					break
				}
			}
			if !clash {
				continue
			}
		}
		m := 0
		for l := g; l < g+group && l < kernel.WarpSize; l++ {
			if info.ExecMask&(1<<l) == 0 {
				continue
			}
			addrs[m] = info.Addrs[l]
			bankOf[m] = int32(int(info.Addrs[l]/4) % banks)
			m++
		}
		deg := 1
		for i := 0; i < m; i++ {
			first := true
			for j := 0; j < i; j++ {
				if bankOf[j] == bankOf[i] && addrs[j] == addrs[i] {
					first = false
					break
				}
			}
			firsts[i] = first
			if !first {
				continue
			}
			cnt := 1
			for j := 0; j < i; j++ {
				if firsts[j] && bankOf[j] == bankOf[i] {
					cnt++
				}
			}
			if cnt > deg {
				deg = cnt
			}
		}
		extra += deg - 1
	}
	return extra
}

// constDistinctAddrs collects the distinct addresses of a constant access
// into the caller's reusable buffer, in lane order: "the number of generated
// constant cache accesses is equal to the number of different addresses in
// the address bundle".
func constDistinctAddrs(info *kernel.StepInfo, buf []uint32) []uint32 {
	out := buf
	for l := 0; l < kernel.WarpSize; l++ {
		if info.ExecMask&(1<<l) == 0 {
			continue
		}
		addr := info.Addrs[l]
		dup := false
		for _, a := range out {
			if a == addr {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, addr)
		}
	}
	return out
}
