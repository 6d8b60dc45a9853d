package circuit

import (
	"fmt"
	"math"

	"gpusimpow/internal/tech"
)

// CrossbarSpec describes a full crossbar switch (register-file operand
// distribution, shared-memory address/data interconnect, NoC switch).
type CrossbarSpec struct {
	Inputs, Outputs int
	// WidthBits is the datapath width of one port.
	WidthBits int
	// SpanMM is the physical span the wires must cross; if zero a span is
	// estimated from port count and width.
	SpanMM float64
}

// Crossbar models a matrix crossbar. ReadEnergyJ is the energy of one
// transfer of WidthBits across the switch (one input driving one output);
// WriteEnergyJ is identical (transfers are symmetric).
func Crossbar(t tech.Node, s CrossbarSpec) (Budget, error) {
	if s.Inputs <= 0 || s.Outputs <= 0 || s.WidthBits <= 0 {
		return Budget{}, fmt.Errorf("circuit: crossbar needs positive inputs/outputs/width, got %d/%d/%d", s.Inputs, s.Outputs, s.WidthBits)
	}
	span := s.SpanMM
	if span == 0 {
		// Estimate: each port's wires occupy ~width * wire pitch; the switch
		// is roughly square.
		pitchMM := 4 * t.FeatureNM / 1e6 // wire pitch in mm
		span = math.Sqrt(float64(s.Inputs*s.Outputs)) * float64(s.WidthBits) * pitchMM
		if span < 0.05 {
			span = 0.05
		}
	}
	// One transfer drives input wires across the span plus the crosspoint
	// drain junctions of all the output columns it passes.
	wireCap := span * t.WireCPerMM * float64(s.WidthBits)
	junctionCap := float64(float64(s.Outputs)*float64(s.WidthBits)*t.CDiffPerUm) * 2 * t.MinWidthUm()
	driverCap := float64(s.WidthBits) * t.GateCap(8*t.MinWidthUm())
	transferE := t.SwitchEnergy(float64((float64(wireCap)+float64(junctionCap))*0.5) + float64(driverCap)) // ~50% bit toggle

	// Area: crosspoint transistors plus wire tracks.
	xpointUM2 := float64(s.Inputs*s.Outputs*s.WidthBits) * 2 * t.LogicGateUM2 / 4
	wireUM2 := span * 1000 * float64((s.Inputs+s.Outputs)*s.WidthBits) * (4 * t.FeatureNM / 1000)
	areaMM2 := (float64(xpointUM2) + float64(wireUM2)) / 1e6

	leak := float64(t.LeakagePower(float64(s.Inputs*s.Outputs*s.WidthBits)*2*t.MinWidthUm()*0.15)) +
		float64(areaMM2*0.1*t.LeakagePerMM2)

	return Budget{AreaMM2: areaMM2, LeakageW: leak, ReadEnergyJ: transferE, WriteEnergyJ: transferE}, nil
}

// WireEnergy returns the energy in joules of sending `bits` bits over a
// repeated wire of the given length with ~50 % toggle probability.
func WireEnergy(t tech.Node, lengthMM float64, bits int) float64 {
	if lengthMM <= 0 || bits <= 0 {
		return 0
	}
	// Repeaters add ~40 % capacitance overhead.
	return t.SwitchEnergy(lengthMM*t.WireCPerMM*1.4) * 0.5 * float64(bits)
}

// PriorityEncoderSpec describes the rotating-priority (round-robin) warp
// scheduler circuit from the paper: "Such schedulers consist of a set of
// inverters, a wide priority encoder, and a phase counter" (after Kun,
// Quan & Mason, ISCAS 2004).
type PriorityEncoderSpec struct {
	// Width is the number of request lines arbitrated (e.g. warps in flight).
	Width int
}

// PriorityEncoder models the scheduler circuit. ReadEnergyJ is the energy of
// one arbitration (inverter bank + look-ahead priority encode + phase counter
// update); WriteEnergyJ is zero.
func PriorityEncoder(t tech.Node, s PriorityEncoderSpec) (Budget, error) {
	if s.Width <= 0 {
		return Budget{}, fmt.Errorf("circuit: priority encoder needs positive width, got %d", s.Width)
	}
	w := float64(s.Width)
	stages := math.Ceil(math.Log2(math.Max(w, 2)))
	// Parallel priority look-ahead: ~6 gates per input plus log-depth
	// look-ahead tree of ~4 gates per node.
	gates := float64(w*6) + float64(stages*w*4/2)
	// Phase counter: log2(width) bits of counter + comparator.
	gates += float64(stages * 12)
	areaMM2 := gates * t.LogicGateUM2 / 1e6
	// ~30 % of gates switch per arbitration.
	arbE := t.SwitchEnergy(float64(gates*0.3) * 2 * t.GateCap(2*t.MinWidthUm()))
	leak := float64(t.LeakagePower(gates*4*t.MinWidthUm()*0.2)) + float64(areaMM2*0.1*t.LeakagePerMM2)
	return Budget{AreaMM2: areaMM2, LeakageW: leak, ReadEnergyJ: arbE}, nil
}

// LogicSpec describes a block of random logic characterised by an equivalent
// 2-input gate count (instruction decoders, FSMs, ALU control...).
type LogicSpec struct {
	Gates int
	// ActivityFraction is the fraction of gates toggling per operation
	// (default 0.25 when zero).
	ActivityFraction float64
}

// Logic models a random-logic block. ReadEnergyJ is the energy per operation.
func Logic(t tech.Node, s LogicSpec) (Budget, error) {
	if s.Gates <= 0 {
		return Budget{}, fmt.Errorf("circuit: logic block needs positive gate count, got %d", s.Gates)
	}
	af := s.ActivityFraction
	if af == 0 {
		af = 0.25
	}
	g := float64(s.Gates)
	areaMM2 := g * t.LogicGateUM2 / 1e6
	opE := t.SwitchEnergy(float64(g*af) * 2 * t.GateCap(2*t.MinWidthUm()))
	leak := float64(t.LeakagePower(g*4*t.MinWidthUm()*0.2)) + float64(areaMM2*0.1*t.LeakagePerMM2)
	return Budget{AreaMM2: areaMM2, LeakageW: leak, ReadEnergyJ: opE}, nil
}

// ClockTree models clock distribution over an area. ReadEnergyJ is the energy
// per clock cycle of driving the tree (excluding the latch clock pins, which
// FFBank accounts for).
func ClockTree(t tech.Node, areaMM2 float64) Budget {
	if areaMM2 <= 0 {
		return Budget{}
	}
	// H-tree wire length scales ~ 3x the sqrt of the area per level; total
	// roughly 6*sqrt(area) mm of wire plus buffers.
	wireMM := 6 * math.Sqrt(areaMM2)
	cap_ := float64(wireMM*t.WireCPerMM*1.5) + float64(wireMM*4*t.GateCap(16*t.MinWidthUm()))
	return Budget{
		AreaMM2:     wireMM * 4 * 16 * t.MinWidthUm() * 1e-3 / 1e3,
		LeakageW:    t.LeakagePower(wireMM * 4 * 16 * t.MinWidthUm() * 0.3),
		ReadEnergyJ: t.SwitchEnergy(cap_), // clock toggles every cycle (activity 1)
	}
}
