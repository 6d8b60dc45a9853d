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
// per-core components (WCU, RF, EXE, LDSTU, Undiff) and uncore components
// (NoC, MC including L2, PCIe), temperature-scaled. The split depends only
// on the built circuit budgets and the configuration, so it is computed once
// per Model (computeStaticSplit) instead of on every Evaluate call — the
// amortization that makes evaluating one timing snapshot under N power
// variants (EvaluateBatch) a pure arithmetic pass.
type staticSplit struct {
	wcu, rf, exe, ldst, undiff float64 // one core
	noc, mc, pcie              float64 // chip level
}

// computeStaticSplit fills the cached split; called once from New after the
// circuit budgets are built.
func (m *Model) computeStaticSplit() {
	ls := m.leakScale()
	p := m.cfg.Power
	s := &m.static
	s.wcu = m.coreWCUBudget().LeakageW * ls
	s.rf = m.coreRFBudget().LeakageW * ls
	s.exe = m.exeLeakage.LeakageW * ls
	s.ldst = m.coreLDSTBudget().LeakageW * ls
	s.undiff = p.UndiffCoreStaticW
	s.noc = m.nocXbar.LeakageW*ls + p.NoCStaticW
	nMC := (m.cfg.MemChannels + 1) / 2
	s.mc = m.mcLogic.LeakageW*float64(nMC)*ls + (m.l2Tag.LeakageW+m.l2Data.LeakageW)*ls + p.MCStaticW
	s.pcie = p.PCIeIdleW
}

// coreStaticSplit returns the cached leakage of one core by component.
func (m *Model) coreStaticSplit() (wcu, rf, exe, ldst, undiff float64) {
	s := &m.static
	return s.wcu, s.rf, s.exe, s.ldst, s.undiff
}

// uncoreStaticSplit returns the cached NoC, MC (including L2) and PCIe
// leakage.
func (m *Model) uncoreStaticSplit() (noc, mc, pcie float64) {
	s := &m.static
	return s.noc, s.mc, s.pcie
}

// Static computes the architectural report.
func (m *Model) Static() *StaticReport {
	cfg := m.cfg
	n := float64(cfg.NumCores())

	wcu, rf, exe, ldst, undiff := m.coreStaticSplit()
	coreStatic := wcu + rf + exe + ldst + undiff
	noc, mc, pcie := m.uncoreStaticSplit()

	coreArea := m.coreWCUBudget().AreaMM2 + m.coreRFBudget().AreaMM2 +
		m.exeLeakage.AreaMM2 + m.coreLDSTBudget().AreaMM2 + cfg.Power.UndiffCoreAreaMM2
	nMC := (cfg.MemChannels + 1) / 2
	area := coreArea*n + m.nocXbar.AreaMM2 + m.mcLogic.AreaMM2*float64(nMC) +
		m.l2Tag.AreaMM2 + m.l2Data.AreaMM2 + cfg.Power.UncoreAreaMM2

	r := &StaticReport{
		GPUName:     cfg.Name,
		AreaMM2:     area,
		CoreAreaMM2: coreArea,
		StaticW:     coreStatic*n + noc + mc + pcie + cfg.Power.UncoreStaticW,
		Items: []Item{
			{Name: "Cores", StaticW: coreStatic * n},
			{Name: "NoC", StaticW: noc},
			{Name: "Memory Controller", StaticW: mc},
			{Name: "PCIe Controller", StaticW: pcie},
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

	exe := n * f * (float64(cfg.FUsPerCore)*m.eFP + float64(cfg.SFUsPerCore)*m.eSFU)
	// Issue machinery at one instruction per scheduler per cycle.
	issueRate := n * float64(cfg.Schedulers) * f
	wcu := issueRate * (m.ibuf.ReadEnergyJ + m.wst.ReadEnergyJ + m.scheduler.ReadEnergyJ + m.eDecode)
	rf := issueRate * m.rowsPerOperand * (3*m.rfBank.ReadEnergyJ + m.rfBank.WriteEnergyJ + m.opXbar.ReadEnergyJ)
	smem := n * f * float64(m.smemBanks) * m.smemBank.ReadEnergyJ
	// Memory interfaces at full bandwidth: one 32B flit per uncore cycle per
	// channel and DRAM bursting continuously.
	uncoreHz := cfg.UncoreClockMHz * 1e6
	noc := float64(cfg.MemChannels) * uncoreHz * m.eNoCFlit
	mc := float64(cfg.MemChannels) * uncoreHz / 4 * m.eMCReq
	base := p.GlobalSchedW + float64(cfg.Clusters)*p.ClusterBaseW + n*p.CoreBaseDynW

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
	// A snapshot can arrive from the simulation cache's disk spill; refuse
	// activity no simulation produces rather than price a wrapped count.
	if a := &res.Activity; a.L1Misses > a.L1Reads {
		return nil, fmt.Errorf("power: timing snapshot has %d L1 misses but only %d L1 reads", a.L1Misses, a.L1Reads)
	}
	return m.runtimeAt(res, float64(res.Activity.Cycles)/m.cfg.CoreClockHz())
}

// EvaluateBatch evaluates one timing snapshot under every model, returning
// reports in argument order — the power stage of a sweep group that pairs N
// power-parameter variants with a single timing run. The result is
// bit-identical to N sequential Evaluate calls (each model's static split is
// precomputed at build time, so the batch is a pure arithmetic pass over the
// shared activity counters); the first failing model aborts the batch.
func EvaluateBatch(models []*Model, res *sim.Result) ([]*RuntimeReport, error) {
	out := make([]*RuntimeReport, len(models))
	for i, m := range models {
		r, err := m.Evaluate(res)
		if err != nil {
			return nil, fmt.Errorf("power: batch variant %d (%s): %w", i, m.cfg.Name, err)
		}
		out[i] = r
	}
	return out, nil
}

// runtimeAt maps activity counts to power over a kernel duration of T
// seconds.
func (m *Model) runtimeAt(res *sim.Result, T float64) (*RuntimeReport, error) {
	cfg := m.cfg
	p := cfg.Power
	a := &res.Activity
	scale := p.DynScaleFactor
	nCores := float64(cfg.NumCores())

	perT := func(count uint64, energy float64) float64 {
		return float64(count) * energy / T * scale
	}

	// --- WCU dynamic (all cores aggregated) ---
	wcuDyn := perT(a.ICacheReads, m.icache.ReadEnergyJ) +
		perT(a.Decodes, m.eDecode+m.decoder.ReadEnergyJ) +
		perT(a.WSTReads, m.wst.ReadEnergyJ) +
		perT(a.WSTWrites, m.wst.WriteEnergyJ) +
		perT(a.IBufReads, m.ibuf.ReadEnergyJ) +
		perT(a.IBufWrites, m.ibuf.WriteEnergyJ) +
		perT(a.SchedArbs, m.scheduler.ReadEnergyJ) +
		perT(a.ReconvReads, m.reconv.ReadEnergyJ) +
		perT(a.ReconvPushes, m.reconv.WriteEnergyJ) +
		perT(a.ReconvPops, m.reconv.ReadEnergyJ)
	if cfg.HasScoreboard {
		wcuDyn += perT(a.SBSearches, m.scoreboard.ReadEnergyJ) +
			perT(a.SBWrites, m.scoreboard.WriteEnergyJ)
	}

	// --- Register file dynamic ---
	rows := m.rowsPerOperand
	rfDyn := perT(a.RFBankReads, rows*m.rfBank.ReadEnergyJ) +
		perT(a.RFBankWrites, rows*m.rfBank.WriteEnergyJ) +
		perT(a.OCWrites, m.oc.WriteEnergyJ) +
		perT(a.OperandXbar, rows*m.opXbar.ReadEnergyJ)

	// --- Execution units (empirical pJ/op, lane-weighted) ---
	exeDyn := perT(a.IntThreadInstrs, m.eInt) +
		perT(a.FPThreadInstrs, m.eFP) +
		perT(a.SFUThreadInstrs, m.eSFU)

	// --- LDST unit ---
	lineAccesses := uint64(0)
	if cfg.L1KB > 0 {
		lineAccesses = (a.L1Reads - a.L1Misses) * uint64(cfg.L1LineB/4) // data rows on hits
	}
	ldstDyn := perT(a.AGUAddresses, m.eAGU+m.sagu.ReadEnergyJ/8) +
		perT(a.CoalescerQueries, m.coalInQ.WriteEnergyJ) +
		perT(a.PRTWrites, m.coalPRT.WriteEnergyJ) +
		perT(a.SMemAccesses, m.smemBank.ReadEnergyJ+m.smemXbar.ReadEnergyJ) +
		perT(lineAccesses, m.smemBank.ReadEnergyJ) +
		perT(a.L1Reads+a.L1Writes, m.l1Tag.ReadEnergyJ) +
		perT(a.ConstReads, m.ccTag.ReadEnergyJ+m.ccData.ReadEnergyJ) +
		perT(a.TexReads, m.texTag.ReadEnergyJ+m.texData.ReadEnergyJ)

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
	baseCoreDyn := p.CoreBaseDynW * coreBusy / cycles * scale   // summed over cores
	clusterDyn := p.ClusterBaseW * clusterBusy / cycles * scale // summed over clusters
	schedDyn := p.GlobalSchedW * float64(a.GlobalSchedCycles) / cycles * scale

	coresDyn := wcuDyn + rfDyn + exeDyn + ldstDyn + baseCoreDyn + clusterDyn + schedDyn

	// --- Uncore dynamic ---
	nocDyn := perT(a.NoCFlits, m.eNoCFlit+m.nocXbar.ReadEnergyJ)
	mcDyn := perT(a.MCRequests, m.eMCReq) +
		perT(a.L2Reads, m.l2Tag.ReadEnergyJ+m.l2Data.ReadEnergyJ) +
		perT(a.L2Writes, m.l2Tag.ReadEnergyJ+m.l2Data.WriteEnergyJ)
	activeFrac := float64(a.GlobalSchedCycles) / cycles
	if activeFrac > 1 {
		activeFrac = 1
	}
	pcieDyn := p.PCIeActiveW*activeFrac*scale + perT(a.PCIeBytes, m.ePCIePerByte)

	// --- Static ---
	wcuS, rfS, exeS, ldstS, undiffS := m.coreStaticSplit()
	coreStatic := wcuS + rfS + exeS + ldstS + undiffS
	nocS, mcS, pcieS := m.uncoreStaticSplit()
	staticW := coreStatic*nCores + nocS + mcS + pcieS + p.UncoreStaticW

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

	dyn := coresDyn + nocDyn + mcDyn + pcieDyn
	r := &RuntimeReport{
		GPUName:  cfg.Name,
		Seconds:  T,
		StaticW:  staticW,
		DynamicW: dyn,
		TotalW:   staticW + dyn,
		DRAMW:    dramBk.Total(),
		DRAM:     dramBk,
		GPU: []Item{
			{Name: "Cores", StaticW: coreStatic * nCores, DynamicW: coresDyn},
			{Name: "NoC", StaticW: nocS, DynamicW: nocDyn},
			{Name: "Memory Controller", StaticW: mcS, DynamicW: mcDyn},
			{Name: "PCIe Controller", StaticW: pcieS, DynamicW: pcieDyn},
		},
		Core: []Item{
			{Name: "Base Power", StaticW: 0, DynamicW: baseCoreDyn / nCores},
			{Name: "WCU", StaticW: wcuS, DynamicW: wcuDyn / nCores},
			{Name: "Register File", StaticW: rfS, DynamicW: rfDyn / nCores},
			{Name: "Execution Units", StaticW: exeS, DynamicW: exeDyn / nCores},
			{Name: "LDSTU", StaticW: ldstS, DynamicW: ldstDyn / nCores},
			{Name: "Undiff. Core", StaticW: undiffS, DynamicW: 0},
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
