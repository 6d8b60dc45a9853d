// Package power implements GPGPU-Pow, the architecture tier of the
// GPUSimPow power model: it maps the configured GPU onto circuit-tier
// structures (package circuit) and empirical component models, producing
//
//   - architectural estimates: chip area, leakage (static) power, and peak
//     dynamic power, and
//   - runtime dynamic power for a kernel, from the activity counts the
//     performance simulator (package sim) collected,
//
// following Eq. (1) of the paper: P = alpha*C*Vdd^2*f (dynamic, via
// per-event energies x event counts) + short-circuit (folded into the
// energies) + Vdd*Ileak (static).
package power

import (
	"fmt"

	"gpusimpow/internal/circuit"
	"gpusimpow/internal/config"
	"gpusimpow/internal/gddr"
	"gpusimpow/internal/tech"
)

// Model holds the per-component circuit budgets and energy coefficients for
// one GPU configuration.
type Model struct {
	cfg  *config.GPU
	node tech.Node

	// Per-core structures (budgets are for ONE core).
	wst, ibuf, reconv circuit.Budget
	scoreboard        circuit.Budget // zero when absent
	scheduler         circuit.Budget // one warp scheduler
	decoder           circuit.Budget
	icache            circuit.Budget

	rfBank         circuit.Budget // one register bank
	rfBanks        int
	oc             circuit.Budget // one operand collector entry write
	opXbar         circuit.Budget
	rowsPerOperand float64 // bank rows read per warp-wide operand

	exeLeakage circuit.Budget // FPU+SFU leakage/area, one core

	sagu      circuit.Budget
	saguCount int
	coalInQ   circuit.Budget
	coalPRT   circuit.Budget
	smemBank  circuit.Budget // one shared-memory/L1 bank
	smemBanks int
	smemXbar  circuit.Budget
	l1Tag     circuit.Budget // zero when no L1
	ccTag     circuit.Budget
	ccData    circuit.Budget
	texTag    circuit.Budget // zero when no texture cache
	texData   circuit.Budget

	// Chip-level structures.
	l2Tag, l2Data circuit.Budget // zero when no L2
	nocXbar       circuit.Budget
	mcLogic       circuit.Budget

	// Off-chip DRAM.
	dramChip gddr.Chip

	// Cached energy coefficients in joules.
	eInt, eFP, eSFU, eAGU     float64
	eNoCFlit, eMCReq, eDecode float64
	ePCIePerByte              float64

	// static is the precomputed leakage decomposition (see staticSplit):
	// filled once by computeStaticSplit so Evaluate never recomputes it
	// per call.
	static staticSplit
}

// New builds the power model for a configuration.
func New(cfg *config.GPU) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	node, err := tech.ForNode(cfg.ProcessNM)
	if err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, node: node}
	if err := m.build(); err != nil {
		return nil, err
	}
	p := cfg.Power
	m.eInt = p.IntOpPJ * 1e-12
	m.eFP = p.FPOpPJ * 1e-12
	m.eSFU = p.SFUOpPJ * 1e-12
	m.eAGU = p.AGUOpPJ * 1e-12
	m.eNoCFlit = p.NoCFlitPJ * 1e-12
	m.eMCReq = p.MCRequestPJ * 1e-12
	m.eDecode = p.DecodePJ * 1e-12
	m.ePCIePerByte = p.PCIeDynPerKBJ / 1024
	chip, err := gddr.ForType(cfg.MemType, cfg.MemDataRateGbps)
	if err != nil {
		return nil, err
	}
	m.dramChip = chip
	m.computeStaticSplit()
	return m, nil
}

// build instantiates every circuit structure. Geometry follows Section III-C
// of the paper and the patents it cites.
func (m *Model) build() error {
	cfg, t := m.cfg, m.node
	var err error

	// --- Warp control unit ---
	// Warp status table: one entry per in-flight warp; master PC, priority,
	// valid/ready/barrier bits and block binding: ~64 bits, multi-ported.
	if m.wst, err = circuit.Array(t, circuit.ArraySpec{
		Entries: cfg.MaxWarpsPerCore, BitsPerEntry: 64,
		ReadPorts: 2, WritePorts: 2,
	}); err != nil {
		return fmt.Errorf("power: WST: %w", err)
	}
	// Instruction buffer: cache-like, 2 slots per warp, decoded instruction
	// plus warp-ID tag: ~80 bits per slot.
	if m.ibuf, err = circuit.Array(t, circuit.ArraySpec{
		Entries: cfg.MaxWarpsPerCore * 2, BitsPerEntry: 80,
		ReadPorts: 1, WritePorts: 1,
	}); err != nil {
		return fmt.Errorf("power: IBuf: %w", err)
	}
	// Per-warp reconvergence stack: 16 tokens of {exec PC, reconv PC, mask}.
	if m.reconv, err = circuit.Array(t, circuit.ArraySpec{
		Entries: cfg.MaxWarpsPerCore * 16, BitsPerEntry: 96,
		ReadPorts: 1, WritePorts: 1, Banks: cfg.MaxWarpsPerCore,
	}); err != nil {
		return fmt.Errorf("power: reconvergence stack: %w", err)
	}
	// Scoreboard: cache-like table tagged by warp ID; per warp up to
	// ScoreboardEntries destination registers are matched associatively.
	if cfg.HasScoreboard {
		if m.scoreboard, err = circuit.CAM(t, circuit.CAMSpec{
			Entries: cfg.MaxWarpsPerCore, TagBits: 8 * cfg.ScoreboardEntries,
		}); err != nil {
			return fmt.Errorf("power: scoreboard: %w", err)
		}
	}
	// Warp scheduler (inverters + priority encoder + phase counter, Kun et
	// al.). The encoder width depends on the policy: the rotating-priority
	// baseline arbitrates all warps of the scheduler; the two-level policy
	// only arbitrates its small active set (its power advantage); GTO needs
	// the full width plus age comparators.
	schedWidth := cfg.MaxWarpsPerCore / cfg.Schedulers
	if cfg.SchedulerPolicy == "twolevel" {
		aw := cfg.ActiveWarpsPerSched
		if aw <= 0 {
			aw = 8
		}
		if aw < schedWidth {
			schedWidth = aw
		}
	}
	if m.scheduler, err = circuit.PriorityEncoder(t, circuit.PriorityEncoderSpec{
		Width: schedWidth,
	}); err != nil {
		return fmt.Errorf("power: scheduler: %w", err)
	}
	if cfg.SchedulerPolicy == "gto" {
		// Age CAM/comparator overhead alongside the encoder.
		gtoCmp, err := circuit.Logic(t, circuit.LogicSpec{Gates: 40 * schedWidth, ActivityFraction: 0.3})
		if err != nil {
			return fmt.Errorf("power: GTO comparators: %w", err)
		}
		m.scheduler.Add(gtoCmp)
	}
	if cfg.SchedulerPolicy == "twolevel" {
		// Active/pending swap machinery: a small table and swap FSM.
		swap, err := circuit.FFBank(t, cfg.MaxWarpsPerCore*8)
		if err != nil {
			return fmt.Errorf("power: two-level swap state: %w", err)
		}
		m.scheduler.Add(circuit.Budget{
			AreaMM2:     swap.AreaMM2,
			LeakageW:    swap.LeakageW,
			ReadEnergyJ: swap.ReadEnergyJ * 0.1, // swaps are rare relative to arbitrations
		})
	}
	// Instruction decoder (reused from McPAT's decoder model: random logic).
	if m.decoder, err = circuit.Logic(t, circuit.LogicSpec{Gates: 6000, ActivityFraction: 0.3}); err != nil {
		return fmt.Errorf("power: decoder: %w", err)
	}
	// Instruction cache: 8 KB, 128-bit fetch rows.
	if m.icache, err = circuit.Array(t, circuit.ArraySpec{
		Entries: 8 * 1024 * 8 / 128, BitsPerEntry: 128,
		ReadPorts: 1, WritePorts: 1,
	}); err != nil {
		return fmt.Errorf("power: I-cache: %w", err)
	}

	// --- Register file (NVIDIA patent: single-ported banks + operand
	// collectors + crossbar) ---
	m.rfBanks = 16
	rfBytes := cfg.RegsPerCore * 4
	rowBytes := 32 // 8 lanes x 32 bit collected per cycle
	entriesPerBank := rfBytes / m.rfBanks / rowBytes
	if m.rfBank, err = circuit.Array(t, circuit.ArraySpec{
		Entries: entriesPerBank, BitsPerEntry: rowBytes * 8,
		ReadPorts: 0, WritePorts: 1, // single-ported
	}); err != nil {
		return fmt.Errorf("power: RF bank: %w", err)
	}
	m.rowsPerOperand = float64(cfg.WarpSize * 4 / rowBytes)
	// Operand collector: two-ported four-entry register files holding a
	// warp-wide operand (128 B).
	if m.oc, err = circuit.Array(t, circuit.ArraySpec{
		Entries: 4, BitsPerEntry: cfg.WarpSize * 32,
		ReadPorts: 1, WritePorts: 1,
	}); err != nil {
		return fmt.Errorf("power: operand collector: %w", err)
	}
	if m.opXbar, err = circuit.Crossbar(t, circuit.CrossbarSpec{
		Inputs: m.rfBanks, Outputs: 6, WidthBits: rowBytes * 8,
	}); err != nil {
		return fmt.Errorf("power: operand crossbar: %w", err)
	}

	// --- Execution units: empirical energy (paper §III-D), area from Galal
	// & Horowitz (FPU) and De Caro et al. (SFU) ---
	exeArea := float64(cfg.FUsPerCore)*cfg.Power.FPUAreaMM2 + float64(cfg.SFUsPerCore)*cfg.Power.SFUAreaMM2
	m.exeLeakage = circuit.Budget{
		AreaMM2:  exeArea,
		LeakageW: exeArea*t.LeakagePerMM2*0.3 + float64(cfg.SFUsPerCore)*cfg.Power.SFUStaticWPerUnit,
	}

	// --- Load/store unit ---
	m.saguCount = cfg.WarpSize / 8 // each sub-AGU makes 8 addresses/cycle
	if m.sagu, err = circuit.Logic(t, circuit.LogicSpec{Gates: 4500, ActivityFraction: 0.35}); err != nil {
		return fmt.Errorf("power: SAGU: %w", err)
	}
	// Coalescer: input queue entries are warp-wide address bundles; the
	// pending request table tracks outstanding segments. Both are too wide
	// for CACTI-style arrays, so they are built from D flip-flops (paper
	// §III-C4).
	if m.coalInQ, err = circuit.FFBank(t, 4*cfg.WarpSize*32); err != nil {
		return fmt.Errorf("power: coalescer input queue: %w", err)
	}
	if m.coalPRT, err = circuit.FFBank(t, 16*96); err != nil {
		return fmt.Errorf("power: coalescer PRT: %w", err)
	}
	// Unified SMEM/L1 physical banks (32-bit wide each).
	m.smemBanks = cfg.SMemBanks
	smemBytes := (cfg.SharedMemPerCoreKB + cfg.L1KB) * 1024
	if smemBytes > 0 {
		if m.smemBank, err = circuit.Array(t, circuit.ArraySpec{
			Entries: smemBytes / m.smemBanks / 4, BitsPerEntry: 32,
			ReadPorts: 1, WritePorts: 1,
		}); err != nil {
			return fmt.Errorf("power: SMEM bank: %w", err)
		}
	}
	if m.smemXbar, err = circuit.Crossbar(t, circuit.CrossbarSpec{
		Inputs: cfg.WarpSize, Outputs: m.smemBanks, WidthBits: 32,
	}); err != nil {
		return fmt.Errorf("power: SMEM crossbar: %w", err)
	}
	if cfg.L1KB > 0 {
		lines := cfg.L1KB * 1024 / cfg.L1LineB
		if m.l1Tag, err = circuit.Array(t, circuit.ArraySpec{
			Entries: lines / cfg.L1Assoc, BitsPerEntry: 24 * cfg.L1Assoc,
			ReadPorts: 1, WritePorts: 1,
		}); err != nil {
			return fmt.Errorf("power: L1 tags: %w", err)
		}
	}
	// Constant cache: tag + 64-bit data rows (scalar broadcast reads).
	ccLines := cfg.ConstCacheKB * 1024 / cfg.ConstLineB
	if m.ccTag, err = circuit.Array(t, circuit.ArraySpec{
		Entries: ccLines / 4, BitsPerEntry: 24 * 4, ReadPorts: 1, WritePorts: 1,
	}); err != nil {
		return fmt.Errorf("power: const tags: %w", err)
	}
	if m.ccData, err = circuit.Array(t, circuit.ArraySpec{
		Entries: cfg.ConstCacheKB * 1024 / 8, BitsPerEntry: 64,
		ReadPorts: 1, WritePorts: 1,
	}); err != nil {
		return fmt.Errorf("power: const data: %w", err)
	}

	// Texture cache ("future variant" of the LDSTU, enabled via config).
	if cfg.TexCacheKB > 0 {
		lines := cfg.TexCacheKB * 1024 / cfg.TexLineB
		if m.texTag, err = circuit.Array(t, circuit.ArraySpec{
			Entries: lines / 4, BitsPerEntry: 24 * 4, ReadPorts: 1, WritePorts: 1,
		}); err != nil {
			return fmt.Errorf("power: texture tags: %w", err)
		}
		if m.texData, err = circuit.Array(t, circuit.ArraySpec{
			Entries: lines, BitsPerEntry: cfg.TexLineB * 8,
			ReadPorts: 1, WritePorts: 1,
		}); err != nil {
			return fmt.Errorf("power: texture data: %w", err)
		}
	}

	// --- L2 ---
	if cfg.L2KB > 0 {
		lines := cfg.L2KB * 1024 / cfg.L2LineB
		if m.l2Tag, err = circuit.Array(t, circuit.ArraySpec{
			Entries: lines / cfg.L2Assoc, BitsPerEntry: 24 * cfg.L2Assoc,
			ReadPorts: 1, WritePorts: 1, Banks: cfg.MemChannels,
		}); err != nil {
			return fmt.Errorf("power: L2 tags: %w", err)
		}
		if m.l2Data, err = circuit.Array(t, circuit.ArraySpec{
			Entries: lines, BitsPerEntry: cfg.L2LineB * 8,
			ReadPorts: 1, WritePorts: 1, Banks: cfg.MemChannels,
		}); err != nil {
			return fmt.Errorf("power: L2 data: %w", err)
		}
	}

	// --- NoC and memory controllers (area/leakage analytic; per-event
	// energies are the configured McPAT-style anchors) ---
	if m.nocXbar, err = circuit.Crossbar(t, circuit.CrossbarSpec{
		Inputs: cfg.NumCores(), Outputs: cfg.MemChannels, WidthBits: 256,
		SpanMM: 6,
	}); err != nil {
		return fmt.Errorf("power: NoC crossbar: %w", err)
	}
	if m.mcLogic, err = circuit.Logic(t, circuit.LogicSpec{Gates: 90000, ActivityFraction: 0.2}); err != nil {
		return fmt.Errorf("power: MC logic: %w", err)
	}
	return nil
}

// coreWCUBudget sums the warp-control-unit structures of one core.
func (m *Model) coreWCUBudget() circuit.Budget {
	var b circuit.Budget
	b.Add(m.wst)
	b.Add(m.ibuf)
	b.Add(m.reconv)
	b.Add(m.scoreboard)
	b.Add(m.scheduler.Scale(float64(m.cfg.Schedulers)))
	b.Add(m.decoder)
	b.Add(m.icache)
	return b
}

// coreRFBudget sums register file structures of one core.
func (m *Model) coreRFBudget() circuit.Budget {
	var b circuit.Budget
	b.Add(m.rfBank.Scale(float64(m.rfBanks)))
	b.Add(m.oc.Scale(6))
	b.Add(m.opXbar)
	return b
}

// coreLDSTBudget sums load/store structures of one core.
func (m *Model) coreLDSTBudget() circuit.Budget {
	var b circuit.Budget
	b.Add(m.sagu.Scale(float64(m.saguCount)))
	b.Add(m.coalInQ)
	b.Add(m.coalPRT)
	b.Add(m.smemBank.Scale(float64(m.smemBanks)))
	b.Add(m.smemXbar.Scale(2)) // address + data crossbars
	b.Add(m.l1Tag)
	b.Add(m.ccTag)
	b.Add(m.ccData)
	b.Add(m.texTag)
	b.Add(m.texData)
	return b
}

// Node returns the technology node used by the model.
func (m *Model) Node() tech.Node { return m.node }

// Config returns the modeled configuration.
func (m *Model) Config() *config.GPU { return m.cfg }
