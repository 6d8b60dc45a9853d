// Package circuit provides the circuit tier of the GPUSimPow power model:
// CACTI-style analytical area/energy/leakage models for the basic structures
// that architectural components are mapped onto — RAM arrays, CAM tags,
// crossbars, flip-flop banks, priority encoders, random logic, wires and
// clock distribution.
//
// Every model produces a Budget: silicon area, leakage power, and per-event
// dynamic energies. The architecture tier (package power) instantiates these
// for the concrete GPU configuration and multiplies per-event energies with
// activity counts from the performance simulator.
package circuit

import (
	"fmt"
	"math"

	"gpusimpow/internal/tech"
)

// Budget is the common output of all circuit models.
type Budget struct {
	// AreaMM2 is the silicon area in square millimetres.
	AreaMM2 float64
	// LeakageW is the static power in watts (sub-threshold + gate).
	LeakageW float64
	// ReadEnergyJ is the dynamic energy per read access in joules.
	ReadEnergyJ float64
	// WriteEnergyJ is the dynamic energy per write access in joules.
	WriteEnergyJ float64
}

// Add accumulates another budget into b (areas, leakage and energies sum;
// summing energies is meaningful for structures accessed together). Each
// field of o is rounded before the sum, so a product a caller inlines
// into o (a Scale, say) never fuses with the addition.
func (b *Budget) Add(o Budget) {
	b.AreaMM2 += float64(o.AreaMM2)
	b.LeakageW += float64(o.LeakageW)
	b.ReadEnergyJ += float64(o.ReadEnergyJ)
	b.WriteEnergyJ += float64(o.WriteEnergyJ)
}

// Scale returns the budget with all fields multiplied by k (e.g. for k
// identical instances).
func (b Budget) Scale(k float64) Budget {
	return Budget{b.AreaMM2 * k, b.LeakageW * k, b.ReadEnergyJ * k, b.WriteEnergyJ * k}
}

// ArraySpec describes an SRAM array (register file bank, cache data/tag
// array, buffer RAM, status table...).
type ArraySpec struct {
	// Entries is the number of addressable rows.
	Entries int
	// BitsPerEntry is the row width in bits.
	BitsPerEntry int
	// ReadPorts and WritePorts; at least one total. Multi-porting grows the
	// cell (two extra transistors and one wordline/bitline pair per port).
	ReadPorts, WritePorts int
	// Banks splits the array into independently addressed banks. Energy per
	// access is for one bank; leakage and area cover all banks.
	Banks int
}

// Array models an SRAM structure in the given technology.
//
// The model follows CACTI's decomposition: decoder, wordline drive, bitline
// swing, sense amplifiers and output drivers. It is deliberately simpler than
// CACTI 6.5 (no H-tree exploration) but preserves the scaling behaviour:
// energy grows with sqrt(entries) on the wordline/bitline dimensions and
// linearly with row width; leakage grows with total bit count.
func Array(t tech.Node, s ArraySpec) (Budget, error) {
	if s.Entries <= 0 || s.BitsPerEntry <= 0 {
		return Budget{}, fmt.Errorf("circuit: array needs positive entries and width, got %d x %d", s.Entries, s.BitsPerEntry)
	}
	if s.Banks <= 0 {
		s.Banks = 1
	}
	ports := s.ReadPorts + s.WritePorts
	if ports <= 0 {
		ports = 1
	}
	entriesPerBank := (s.Entries + s.Banks - 1) / s.Banks
	totalBits := float64(s.Entries * s.BitsPerEntry)

	// --- Area ---
	// Cell grows ~linearly with extra ports beyond the first.
	cellUM2 := t.SRAMCellUM2 * (1 + float64(0.6*float64(ports-1)))
	// Peripheral overhead (decoder, sense amps, drivers): ~35 % plus a fixed
	// per-bank overhead.
	areaUM2 := float64(totalBits*cellUM2*1.35) + float64(float64(s.Banks)*1200*t.LogicGateUM2)
	areaMM2 := areaUM2 / 1e6

	// --- Dynamic energy (per access of one bank, one port) ---
	rows := float64(entriesPerBank)
	colsBits := float64(s.BitsPerEntry)
	cellW := math.Sqrt(cellUM2) // cell pitch, um
	// Decoder: log2(rows) stages of ~4x gates.
	decCap := float64(math.Log2(math.Max(rows, 2)) * 4 * t.GateCap(4*t.MinWidthUm()))
	// Wordline: one access transistor gate per column bit (x ports wired but
	// only one toggles), plus wire along the row.
	wlWireMM := colsBits * cellW / 1000
	wlCap := float64(colsBits*t.GateCap(t.MinWidthUm())) + float64(wlWireMM*t.WireCPerMM)
	// Bitlines: column height wire + one diffusion per row; reads use a
	// reduced swing (~Vdd/3), writes full swing.
	blWireMM := rows * cellW / 1000
	blCapPerCol := float64(blWireMM*t.WireCPerMM) + float64(rows*t.CDiffPerUm*t.MinWidthUm())
	blCapTotal := blCapPerCol * colsBits
	// Sense amps + output drivers: proportional to row width.
	saCap := float64(colsBits * 3 * t.GateCap(2*t.MinWidthUm()))

	readE := float64(t.SwitchEnergy(decCap+wlCap+saCap)) + t.SwitchEnergy(blCapTotal)/3
	writeE := float64(t.SwitchEnergy(decCap+wlCap+saCap)) + float64(t.SwitchEnergy(blCapTotal))

	// --- Leakage ---
	// Six transistors of minimum width per cell (plus port overhead), and
	// peripheral logic leakage from its area.
	cellWidthUm := 6 * t.MinWidthUm() * (1 + float64(0.4*float64(ports-1)))
	leak := float64(t.LeakagePower(totalBits*cellWidthUm*0.25)) + // cells leak at reduced duty (stacked)
		float64(areaMM2*0.35*t.LeakagePerMM2) // periphery

	return Budget{AreaMM2: areaMM2, LeakageW: leak, ReadEnergyJ: readE, WriteEnergyJ: writeE}, nil
}

// CAMSpec describes a content-addressable tag structure (scoreboard tag
// match, cache tag compare, coalescer pending-request lookup).
type CAMSpec struct {
	Entries int
	TagBits int
}

// CAM models a content-addressable memory. A search charges every entry's
// matchline; writes behave like a RAM write of one entry.
func CAM(t tech.Node, s CAMSpec) (Budget, error) {
	if s.Entries <= 0 || s.TagBits <= 0 {
		return Budget{}, fmt.Errorf("circuit: CAM needs positive entries and tag bits, got %d x %d", s.Entries, s.TagBits)
	}
	totalBits := float64(s.Entries * s.TagBits)
	areaMM2 := totalBits * t.CAMCellUM2 * 1.4 / 1e6

	// Search: all matchlines precharged and (mostly) discharged, plus the
	// searchlines driving every row's compare gates.
	matchCap := float64(s.Entries) * (float64(float64(s.TagBits)*t.CDiffPerUm*t.MinWidthUm()) + 2*float64(t.GateCap(t.MinWidthUm())))
	searchCap := float64(s.TagBits) * float64(s.Entries) * t.GateCap(t.MinWidthUm())
	searchE := t.SwitchEnergy(float64(matchCap) + float64(searchCap/2))

	// Write: like a small RAM row write.
	writeE := t.SwitchEnergy(float64(s.TagBits) * (float64(t.GateCap(t.MinWidthUm())) + float64(t.CDiffPerUm*t.MinWidthUm())) * 3)

	leak := float64(t.LeakagePower(totalBits*10*t.MinWidthUm()*0.25)) + float64(areaMM2*0.3*t.LeakagePerMM2)

	return Budget{AreaMM2: areaMM2, LeakageW: leak, ReadEnergyJ: searchE, WriteEnergyJ: writeE}, nil
}

// FFBank models a bank of D flip-flops holding the given number of bits.
// The paper uses this explicitly for the coalescer: "CACTI cannot be used to
// model buffers with few but very large entries ... we compute the total
// amount of bits which must be held in the coalescing system at any time and
// model the required storage using D-FlipFlops."
//
// ReadEnergyJ is the energy of clocking the bank for one cycle with a typical
// activity factor; WriteEnergyJ is the energy of toggling all bits once.
func FFBank(t tech.Node, bits int) (Budget, error) {
	if bits <= 0 {
		return Budget{}, fmt.Errorf("circuit: FF bank needs positive bit count, got %d", bits)
	}
	// A D-FF is ~24 transistors, ~6 of which see the clock each cycle.
	ffAreaUM2 := 24.0 / 4.0 * t.LogicGateUM2 // 4 transistors per NAND-equivalent
	areaMM2 := float64(bits) * ffAreaUM2 / 1e6
	clkCapPerFF := 6 * t.GateCap(t.MinWidthUm())
	dataCapPerFF := 10 * t.GateCap(t.MinWidthUm())
	readE := t.SwitchEnergy(float64(bits) * clkCapPerFF * 0.5) // clock at 50% internal activity
	writeE := t.SwitchEnergy(float64(bits) * (float64(clkCapPerFF) + float64(dataCapPerFF)) * 0.5)
	leak := t.LeakagePower(float64(bits) * 24 * t.MinWidthUm() * 0.2)
	return Budget{AreaMM2: areaMM2, LeakageW: leak, ReadEnergyJ: readE, WriteEnergyJ: writeE}, nil
}
