package power

import (
	"fmt"

	"gpusimpow/internal/circuit"
	"gpusimpow/internal/gddr"
	"gpusimpow/internal/sim"
)

// Item is one row of a power breakdown.
type Item struct {
	Name     string
	StaticW  float64
	DynamicW float64
}

// Total returns static + dynamic.
func (i Item) Total() float64 { return i.StaticW + i.DynamicW }

// StaticReport carries the architectural (workload-independent) estimates:
// area, leakage power and peak dynamic power — the numbers Table IV compares
// against the real chips.
type StaticReport struct {
	GPUName      string
	AreaMM2      float64
	CoreAreaMM2  float64 // one core, including its undifferentiated share
	StaticW      float64
	PeakDynamicW float64
	Items        []Item // GPU-level static split: Cores, NoC, MC, PCIe
}

// leakScale returns the temperature-adjusted leakage multiplier.
func (m *Model) leakScale() float64 {
	f := m.cfg.Power.LeakageTempFactor
	if f <= 0 {
		f = 1
	}
	return f
}

// staticSplit holds the precomputed leakage decomposition of one model:
// per-core components (WCU, RF, EXE, LDSTU, Undiff, and their sum) and
// chip-level ones (NoC, MC including L2, PCIe, and the chip total),
// temperature-scaled. It depends only on the built circuit budgets and the
// configuration, so it is computed once per Model (computeStaticSplit) —
// the amortization that makes re-pricing one timing snapshot under N power
// variants a pure arithmetic pass.
type staticSplit struct {
	wcu, rf, exe, ldst, undiff, core float64 // one core
	noc, mc, pcie, total             float64 // chip level
}

// computeStaticSplit fills the cached split; called once from New after the
// circuit budgets are built.
func (m *Model) computeStaticSplit() {
	ls := m.leakScale()
	p := m.cfg.Power
	s := &m.static
	s.wcu = float64(m.coreWCUBudget().LeakageW * ls)
	s.rf = float64(m.coreRFBudget().LeakageW * ls)
	s.exe = float64(m.exeLeakage.LeakageW * ls)
	s.ldst = float64(m.coreLDSTBudget().LeakageW * ls)
	s.undiff = p.UndiffCoreStaticW
	s.core = s.wcu + s.rf + s.exe + s.ldst + s.undiff
	s.noc = float64(m.nocXbar.LeakageW*ls) + p.NoCStaticW
	nMC := (m.cfg.MemChannels + 1) / 2
	s.mc = float64(m.mcLogic.LeakageW*float64(nMC)*ls) + float64((m.l2Tag.LeakageW+m.l2Data.LeakageW)*ls) + p.MCStaticW
	s.pcie = p.PCIeIdleW
	s.total = float64(s.core*float64(m.cfg.NumCores())) + s.noc + s.mc + s.pcie + p.UncoreStaticW
}

// Static computes the architectural report.
func (m *Model) Static() *StaticReport {
	cfg := m.cfg
	n := float64(cfg.NumCores())
	s := &m.static

	coreArea := m.coreWCUBudget().AreaMM2 + m.coreRFBudget().AreaMM2 +
		m.exeLeakage.AreaMM2 + m.coreLDSTBudget().AreaMM2 + cfg.Power.UndiffCoreAreaMM2
	nMC := (cfg.MemChannels + 1) / 2
	area := float64(coreArea*n) + m.nocXbar.AreaMM2 + float64(m.mcLogic.AreaMM2*float64(nMC)) +
		m.l2Tag.AreaMM2 + m.l2Data.AreaMM2 + cfg.Power.UncoreAreaMM2

	r := &StaticReport{
		GPUName:     cfg.Name,
		AreaMM2:     area,
		CoreAreaMM2: coreArea,
		StaticW:     s.total,
		Items: []Item{
			{Name: "Cores", StaticW: s.core * n},
			{Name: "NoC", StaticW: s.noc},
			{Name: "Memory Controller", StaticW: s.mc},
			{Name: "PCIe Controller", StaticW: s.pcie},
		},
	}
	r.PeakDynamicW = m.peakDynamic()
	return r
}

// peakDynamic estimates the worst-case sustained dynamic power: every
// pipeline, bank and interface busy every cycle.
func (m *Model) peakDynamic() float64 {
	cfg := m.cfg
	f := cfg.CoreClockHz()
	n := float64(cfg.NumCores())
	p := cfg.Power

	exe := float64(n * f * (float64(float64(cfg.FUsPerCore)*(p.FPOpPJ*1e-12)) + float64(float64(cfg.SFUsPerCore)*(p.SFUOpPJ*1e-12))))
	// Issue machinery at one instruction per scheduler per cycle.
	issueRate := n * float64(cfg.Schedulers) * f
	wcu := float64(issueRate * (m.ibuf.ReadEnergyJ + m.wst.ReadEnergyJ + m.scheduler.ReadEnergyJ + float64(p.DecodePJ*1e-12)))
	rf := float64(issueRate * m.rowsPerOperand * (float64(3*m.rfBank.ReadEnergyJ) + m.rfBank.WriteEnergyJ + m.opXbar.ReadEnergyJ))
	smem := float64(n * f * float64(m.smemBanks) * m.smemBank.ReadEnergyJ)
	// Memory interfaces at full bandwidth: one 32B flit per uncore cycle per
	// channel and DRAM bursting continuously.
	uncoreHz := cfg.UncoreClockMHz * 1e6
	noc := float64(float64(cfg.MemChannels) * uncoreHz * (p.NoCFlitPJ * 1e-12))
	mc := float64(float64(cfg.MemChannels) * uncoreHz / 4 * (p.MCRequestPJ * 1e-12))
	base := p.GlobalSchedW + float64(float64(cfg.Clusters)*p.ClusterBaseW) + float64(n*p.CoreBaseDynW)

	return (exe + wcu + rf + smem + noc + mc + base + p.PCIeActiveW) * p.DynScaleFactor
}

// RuntimeReport is the per-kernel power result, mirroring the paper's
// Table V structure: a GPU-level breakdown and a single-core breakdown.
type RuntimeReport struct {
	GPUName string
	Seconds float64

	StaticW  float64
	DynamicW float64 // on-chip runtime dynamic
	TotalW   float64 // static + dynamic (GPU only, excludes DRAM)

	// DRAMW is the off-chip graphics memory power (excluded from TotalW,
	// as in the paper's Table V note).
	DRAMW float64
	DRAM  gddr.Breakdown

	GPU  []Item // Cores, NoC, Memory Controller, PCIe Controller
	Core []Item // one core: Base Power, WCU, Register File, Execution Units, LDSTU, Undiff. Core
}

// Find returns the item with the given name from a breakdown slice.
func Find(items []Item, name string) (Item, bool) {
	for _, it := range items {
		if it.Name == name {
			return it, true
		}
	}
	return Item{}, false
}

// Evaluate is the pure power stage of the two-stage (simulate-once,
// evaluate-many) pipeline: it computes runtime power from a timing snapshot
// alone, deriving the kernel duration from the cycle count at this model's
// own core clock. A snapshot replayed from the simulation-result cache thus
// evaluates at the evaluating configuration's operating point — and since
// the core clock is part of the timing key, the derived duration is
// bit-identical to what a live simulation would have reported.
func (m *Model) Evaluate(res *sim.Result) (*RuntimeReport, error) {
	if res == nil || res.Activity.Cycles == 0 {
		return nil, fmt.Errorf("power: timing snapshot with no cycles")
	}
	return m.runtimeAt(res, float64(res.Activity.Cycles)/m.cfg.CoreClockHz())
}

// The report items the runtime term table prices into. The scoreboard
// terms keep a sum of their own, added to the WCU's after the loop: the
// WCU's dynamic power is wcu + (searches + writes), and records carry
// its last bits.
const (
	itemWCU = iota
	itemScoreboard
	itemRF
	itemEXE
	itemLDST
	itemNoC
	itemMC
	itemPCIe
	numItems
)

// term is one per-event row of Eq. (1): count events of joules each,
// priced into item.
type term struct {
	item   int
	count  uint64
	joules float64
}

// runtimeAt maps activity counts to power over a kernel duration of T
// seconds.
func (m *Model) runtimeAt(res *sim.Result, T float64) (*RuntimeReport, error) {
	cfg := m.cfg
	p := cfg.Power
	a := &res.Activity
	// A snapshot can arrive from the simulation cache's disk spill; refuse
	// activity no simulation produces rather than price a wrapped L1 count.
	if a.L1Misses > a.L1Reads {
		return nil, fmt.Errorf("power: timing snapshot has %d L1 misses but only %d L1 reads", a.L1Misses, a.L1Reads)
	}
	scale := p.DynScaleFactor
	nCores := float64(cfg.NumCores())
	rows := m.rowsPerOperand
	lineAccesses := uint64(0)
	if cfg.L1KB > 0 {
		lineAccesses = (a.L1Reads - a.L1Misses) * uint64(cfg.L1LineB/4) // data rows on hits
	}

	// Dynamic power, one term per event kind. Each item sums its terms in
	// this order (see the package comment). Execution units use empirical
	// pJ/op, lane-weighted; a structure the GPU lacks has zero energies.
	terms := []term{
		{itemWCU, a.ICacheReads, m.icache.ReadEnergyJ},
		{itemWCU, a.Decodes, float64(p.DecodePJ*1e-12) + m.decoder.ReadEnergyJ},
		{itemWCU, a.WSTReads, m.wst.ReadEnergyJ},
		{itemWCU, a.WSTWrites, m.wst.WriteEnergyJ},
		{itemWCU, a.IBufReads, m.ibuf.ReadEnergyJ},
		{itemWCU, a.IBufWrites, m.ibuf.WriteEnergyJ},
		{itemWCU, a.SchedArbs, m.scheduler.ReadEnergyJ},
		{itemWCU, a.ReconvReads, m.reconv.ReadEnergyJ},
		{itemWCU, a.ReconvPushes, m.reconv.WriteEnergyJ},
		{itemWCU, a.ReconvPops, m.reconv.ReadEnergyJ},
		{itemScoreboard, a.SBSearches, m.scoreboard.ReadEnergyJ},
		{itemScoreboard, a.SBWrites, m.scoreboard.WriteEnergyJ},
		{itemRF, a.RFBankReads, rows * m.rfBank.ReadEnergyJ},
		{itemRF, a.RFBankWrites, rows * m.rfBank.WriteEnergyJ},
		{itemRF, a.OCWrites, m.oc.WriteEnergyJ},
		{itemRF, a.OperandXbar, rows * m.opXbar.ReadEnergyJ},
		{itemEXE, a.IntThreadInstrs, p.IntOpPJ * 1e-12},
		{itemEXE, a.FPThreadInstrs, p.FPOpPJ * 1e-12},
		{itemEXE, a.SFUThreadInstrs, p.SFUOpPJ * 1e-12},
		{itemLDST, a.AGUAddresses, float64(p.AGUOpPJ*1e-12) + float64(m.sagu.ReadEnergyJ/8)},
		{itemLDST, a.CoalescerQueries, m.coalInQ.WriteEnergyJ},
		{itemLDST, a.PRTWrites, m.coalPRT.WriteEnergyJ},
		{itemLDST, a.SMemAccesses, m.smemBank.ReadEnergyJ + m.smemXbar.ReadEnergyJ},
		{itemLDST, lineAccesses, m.smemBank.ReadEnergyJ},
		{itemLDST, a.L1Reads + a.L1Writes, m.l1Tag.ReadEnergyJ},
		{itemLDST, a.ConstReads, m.ccTag.ReadEnergyJ + m.ccData.ReadEnergyJ},
		{itemLDST, a.TexReads, m.texTag.ReadEnergyJ + m.texData.ReadEnergyJ},
		{itemNoC, a.NoCFlits, float64(p.NoCFlitPJ*1e-12) + m.nocXbar.ReadEnergyJ},
		{itemMC, a.MCRequests, p.MCRequestPJ * 1e-12},
		{itemMC, a.L2Reads, m.l2Tag.ReadEnergyJ + m.l2Data.ReadEnergyJ},
		{itemMC, a.L2Writes, m.l2Tag.ReadEnergyJ + m.l2Data.WriteEnergyJ},
		{itemPCIe, a.PCIeBytes, p.PCIeDynPerKBJ / 1024},
	}
	var sum [numItems]float64
	for _, t := range terms {
		sum[t.item] += float64(float64(t.count) * t.joules / T * scale)
	}
	wcuDyn := sum[itemWCU] + sum[itemScoreboard]

	// --- Base power (empirical, paper Fig. 4 / Table V) ---
	cycles := float64(a.Cycles)
	var coreBusy float64
	for _, c := range a.CoreBusyCycles {
		coreBusy += float64(c)
	}
	var clusterBusy float64
	for _, c := range a.ClusterBusyCycles {
		clusterBusy += float64(c)
	}
	baseCoreDyn := float64(p.CoreBaseDynW * coreBusy / cycles * scale)   // summed over cores
	clusterDyn := float64(p.ClusterBaseW * clusterBusy / cycles * scale) // summed over clusters
	schedDyn := float64(p.GlobalSchedW * float64(a.GlobalSchedCycles) / cycles * scale)

	coresDyn := wcuDyn + sum[itemRF] + sum[itemEXE] + sum[itemLDST] + baseCoreDyn + clusterDyn + schedDyn

	// --- PCIe: active power over the busy fraction plus the per-byte term ---
	activeFrac := float64(a.GlobalSchedCycles) / cycles
	if activeFrac > 1 {
		activeFrac = 1
	}
	pcieDyn := float64(p.PCIeActiveW*activeFrac*scale) + sum[itemPCIe]

	// --- DRAM (off-chip) ---
	chips := cfg.GDDRChips()
	perChip := gddr.Activity{
		Seconds:        T,
		Activates:      a.DRAMActivates / uint64(chips),
		ReadBursts:     a.DRAMReadBursts / uint64(chips),
		WriteBursts:    a.DRAMWriteBursts / uint64(chips),
		ActiveFraction: res.DRAMActiveFraction(cfg.MemChannels),
	}
	dramBk, err := m.dramChip.Power(perChip)
	if err != nil {
		return nil, err
	}
	dramBk.Background *= float64(chips)
	dramBk.Activate *= float64(chips)
	dramBk.ReadWrite *= float64(chips)
	dramBk.Termination *= float64(chips)
	dramBk.Refresh *= float64(chips)

	s := &m.static
	dyn := coresDyn + sum[itemNoC] + sum[itemMC] + pcieDyn
	r := &RuntimeReport{
		GPUName:  cfg.Name,
		Seconds:  T,
		StaticW:  s.total,
		DynamicW: dyn,
		TotalW:   s.total + dyn,
		DRAMW:    dramBk.Total(),
		DRAM:     dramBk,
		GPU: []Item{
			{Name: "Cores", StaticW: s.core * nCores, DynamicW: coresDyn},
			{Name: "NoC", StaticW: s.noc, DynamicW: sum[itemNoC]},
			{Name: "Memory Controller", StaticW: s.mc, DynamicW: sum[itemMC]},
			{Name: "PCIe Controller", StaticW: s.pcie, DynamicW: pcieDyn},
		},
		Core: []Item{
			{Name: "Base Power", StaticW: 0, DynamicW: baseCoreDyn / nCores},
			{Name: "WCU", StaticW: s.wcu, DynamicW: wcuDyn / nCores},
			{Name: "Register File", StaticW: s.rf, DynamicW: sum[itemRF] / nCores},
			{Name: "Execution Units", StaticW: s.exe, DynamicW: sum[itemEXE] / nCores},
			{Name: "LDSTU", StaticW: s.ldst, DynamicW: sum[itemLDST] / nCores},
			{Name: "Undiff. Core", StaticW: s.undiff, DynamicW: 0},
		},
	}
	return r, nil
}

// componentBudgets exposes the main circuit budgets for inspection and tests.
func (m *Model) componentBudgets() map[string]circuit.Budget {
	return map[string]circuit.Budget{
		"wst": m.wst, "ibuf": m.ibuf, "reconv": m.reconv,
		"scoreboard": m.scoreboard, "scheduler": m.scheduler,
		"decoder": m.decoder, "icache": m.icache,
		"rfBank": m.rfBank, "oc": m.oc, "opXbar": m.opXbar,
		"sagu": m.sagu, "coalInQ": m.coalInQ, "coalPRT": m.coalPRT,
		"smemBank": m.smemBank, "smemXbar": m.smemXbar,
		"l1Tag": m.l1Tag, "ccTag": m.ccTag, "ccData": m.ccData,
		"l2Tag": m.l2Tag, "l2Data": m.l2Data,
		"nocXbar": m.nocXbar, "mcLogic": m.mcLogic,
	}
}
