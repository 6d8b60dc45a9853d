// Package tech provides the technology tier of the GPUSimPow power model.
//
// It corresponds to McPAT's lowest modeling layer: for a given process node it
// supplies supply voltage, per-transistor and per-micron capacitances, leakage
// current densities and wire parasitics. Higher tiers (package circuit) build
// energy-per-access and leakage estimates for concrete circuit structures out
// of these numbers, and the architecture tier (package power) assembles those
// into GPU components.
//
// The parameter tables follow the ITRS-roadmap-style scaling McPAT uses: each
// node carries absolute values; Scale interpolates between nodes so that
// hypothetical processes (e.g. 28 nm) can be explored, mirroring the paper's
// claim that "to scale the GPU power model for a specific manufacturing
// process node, we can use the ITRS roadmap scaling techniques within McPAT".
package tech

import (
	"fmt"
	"math"
	"sort"
)

// Node describes a manufacturing process node.
type Node struct {
	// FeatureNM is the drawn feature size in nanometres (e.g. 40).
	FeatureNM float64
	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// Vth is the nominal threshold voltage in volts.
	Vth float64
	// CGatePerUm is gate capacitance per micron of transistor width (F/um).
	CGatePerUm float64
	// CDiffPerUm is drain/source diffusion capacitance per micron (F/um).
	CDiffPerUm float64
	// ISubPerUm is sub-threshold leakage current per micron of width at the
	// nominal temperature (A/um).
	ISubPerUm float64
	// IGatePerUm is gate leakage current per micron of width (A/um).
	IGatePerUm float64
	// WireCPerMM is wire capacitance per millimetre for intermediate-layer
	// wires (F/mm).
	WireCPerMM float64
	// WireRPerMM is wire resistance per millimetre (Ohm/mm).
	WireRPerMM float64
	// SRAMCellUM2 is the area of a 6T SRAM cell (um^2).
	SRAMCellUM2 float64
	// CAMCellUM2 is the area of a 10T CAM cell (um^2).
	CAMCellUM2 float64
	// LogicGateUM2 is the area of an average 2-input NAND gate (um^2),
	// used to convert gate counts into silicon area.
	LogicGateUM2 float64
	// LeakagePerMM2 is the bulk logic leakage power density (W/mm^2) at the
	// nominal temperature and Vdd, used for random logic whose transistor
	// composition we do not model individually.
	LeakagePerMM2 float64
	// ShortCircuitFraction is the fraction of dynamic power additionally
	// consumed as short-circuit power (both networks briefly on).
	ShortCircuitFraction float64
}

// nodes is ordered by descending feature size.
var nodes = []Node{
	{
		FeatureNM: 90, Vdd: 1.20, Vth: 0.24,
		CGatePerUm: 1.60e-15, CDiffPerUm: 0.80e-15,
		ISubPerUm: 30e-9, IGatePerUm: 2.2e-9,
		WireCPerMM: 0.30e-12, WireRPerMM: 750,
		SRAMCellUM2: 1.30, CAMCellUM2: 2.40, LogicGateUM2: 3.50,
		LeakagePerMM2: 0.055, ShortCircuitFraction: 0.10,
	},
	{
		FeatureNM: 65, Vdd: 1.10, Vth: 0.22,
		CGatePerUm: 1.35e-15, CDiffPerUm: 0.68e-15,
		ISubPerUm: 60e-9, IGatePerUm: 4.5e-9,
		WireCPerMM: 0.28e-12, WireRPerMM: 1100,
		SRAMCellUM2: 0.68, CAMCellUM2: 1.30, LogicGateUM2: 1.90,
		LeakagePerMM2: 0.075, ShortCircuitFraction: 0.10,
	},
	{
		FeatureNM: 45, Vdd: 1.00, Vth: 0.20,
		CGatePerUm: 1.10e-15, CDiffPerUm: 0.55e-15,
		ISubPerUm: 120e-9, IGatePerUm: 7.0e-9,
		WireCPerMM: 0.25e-12, WireRPerMM: 1700,
		SRAMCellUM2: 0.35, CAMCellUM2: 0.65, LogicGateUM2: 1.00,
		LeakagePerMM2: 0.095, ShortCircuitFraction: 0.09,
	},
	{
		FeatureNM: 40, Vdd: 1.00, Vth: 0.19,
		CGatePerUm: 1.00e-15, CDiffPerUm: 0.50e-15,
		ISubPerUm: 150e-9, IGatePerUm: 8.0e-9,
		WireCPerMM: 0.24e-12, WireRPerMM: 1900,
		SRAMCellUM2: 0.30, CAMCellUM2: 0.55, LogicGateUM2: 0.85,
		LeakagePerMM2: 0.105, ShortCircuitFraction: 0.09,
	},
	{
		FeatureNM: 32, Vdd: 0.95, Vth: 0.18,
		CGatePerUm: 0.90e-15, CDiffPerUm: 0.45e-15,
		ISubPerUm: 210e-9, IGatePerUm: 11e-9,
		WireCPerMM: 0.22e-12, WireRPerMM: 2500,
		SRAMCellUM2: 0.18, CAMCellUM2: 0.34, LogicGateUM2: 0.55,
		LeakagePerMM2: 0.125, ShortCircuitFraction: 0.08,
	},
	{
		FeatureNM: 22, Vdd: 0.85, Vth: 0.17,
		CGatePerUm: 0.75e-15, CDiffPerUm: 0.38e-15,
		ISubPerUm: 300e-9, IGatePerUm: 15e-9,
		WireCPerMM: 0.20e-12, WireRPerMM: 3600,
		SRAMCellUM2: 0.092, CAMCellUM2: 0.17, LogicGateUM2: 0.28,
		LeakagePerMM2: 0.150, ShortCircuitFraction: 0.08,
	},
}

// CheckNode reports whether ForNode supports a feature size: sizes outside
// [22, 90] nm, and NaN, are an error.
func CheckNode(nm float64) error {
	if !(nm <= nodes[0].FeatureNM && nm >= nodes[len(nodes)-1].FeatureNM) {
		return fmt.Errorf("tech: node %.0f nm outside supported range [%g, %g] nm",
			nm, nodes[len(nodes)-1].FeatureNM, nodes[0].FeatureNM)
	}
	return nil
}

// ForNode returns the technology parameters for the given feature size in
// nanometres. Sizes between tabulated nodes are geometrically interpolated;
// sizes CheckNode rejects are an error.
func ForNode(nm float64) (Node, error) {
	if err := CheckNode(nm); err != nil {
		return Node{}, err
	}
	// Exact match.
	for _, n := range nodes {
		if n.FeatureNM == nm {
			return n, nil
		}
	}
	// Find bracketing nodes (nodes sorted descending).
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i].FeatureNM <= nm })
	hi, lo := nodes[i-1], nodes[i] // hi has larger feature size
	// Geometric interpolation on feature size.
	t := (math.Log(hi.FeatureNM) - math.Log(nm)) / (math.Log(hi.FeatureNM) - math.Log(lo.FeatureNM))
	lerp := func(a, b float64) float64 { return a * math.Pow(b/a, t) }
	return Node{
		FeatureNM:            nm,
		Vdd:                  lerp(hi.Vdd, lo.Vdd),
		Vth:                  lerp(hi.Vth, lo.Vth),
		CGatePerUm:           lerp(hi.CGatePerUm, lo.CGatePerUm),
		CDiffPerUm:           lerp(hi.CDiffPerUm, lo.CDiffPerUm),
		ISubPerUm:            lerp(hi.ISubPerUm, lo.ISubPerUm),
		IGatePerUm:           lerp(hi.IGatePerUm, lo.IGatePerUm),
		WireCPerMM:           lerp(hi.WireCPerMM, lo.WireCPerMM),
		WireRPerMM:           lerp(hi.WireRPerMM, lo.WireRPerMM),
		SRAMCellUM2:          lerp(hi.SRAMCellUM2, lo.SRAMCellUM2),
		CAMCellUM2:           lerp(hi.CAMCellUM2, lo.CAMCellUM2),
		LogicGateUM2:         lerp(hi.LogicGateUM2, lo.LogicGateUM2),
		LeakagePerMM2:        lerp(hi.LeakagePerMM2, lo.LeakagePerMM2),
		ShortCircuitFraction: lerp(hi.ShortCircuitFraction, lo.ShortCircuitFraction),
	}, nil
}

// MustNode is ForNode but panics on error; for use with known-good constants.
func MustNode(nm float64) Node {
	n, err := ForNode(nm)
	if err != nil {
		panic(err)
	}
	return n
}

// SwitchEnergy returns the energy in joules of charging-and-discharging the
// given capacitance once at full swing (E = C * Vdd^2), including the
// short-circuit surcharge from Eq. (1) of the paper.
func (n Node) SwitchEnergy(capF float64) float64 {
	return capF * n.Vdd * n.Vdd * (1 + n.ShortCircuitFraction)
}

// LeakagePower returns the static power in watts of the given total
// transistor width (in microns), combining sub-threshold and gate leakage
// (third term of Eq. (1): Vdd * Ileak).
func (n Node) LeakagePower(widthUm float64) float64 {
	return n.Vdd * widthUm * (n.ISubPerUm + n.IGatePerUm)
}

// GateCap returns the input capacitance in farads of a transistor of the
// given width in microns.
func (n Node) GateCap(widthUm float64) float64 { return n.CGatePerUm * widthUm }

// MinWidthUm returns the minimum transistor width in microns, taken as twice
// the feature size (a typical minimum-size device).
func (n Node) MinWidthUm() float64 { return 2 * n.FeatureNM / 1000 }

// FO4DelaySeconds estimates the fanout-of-4 inverter delay for this node.
// Not used for power, but exposed so that timing sanity checks can relate
// modeled clock frequencies to the process.
func (n Node) FO4DelaySeconds() float64 {
	// Classic approximation: ~0.5 ps per nm of feature size / 1000 * 9.
	return 9 * 0.05e-12 * n.FeatureNM / 10
}
