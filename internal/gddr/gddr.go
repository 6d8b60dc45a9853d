// Package gddr models graphics DRAM power following the Micron "Calculating
// Memory System Power" methodology the paper cites: total device power is
// decomposed into background, activate, read/write, termination and refresh
// components, each derived from datasheet IDD currents and the command
// activity observed by the memory-controller model.
package gddr

import "fmt"

// Chip holds datasheet-style electrical parameters for one DRAM device.
// Values are representative of the parts the two modeled cards use
// (Hynix H5GQ1H24AFR-class GDDR5 for both; the GT240 runs it slower).
type Chip struct {
	Name string
	// VDD is the core supply voltage in volts.
	VDD float64
	// Densities and interface.
	DataPins int // DQ width per device (x32 for GDDR5)

	// IDD currents in amperes (datasheet naming):
	IDD2N float64 // precharge standby
	IDD3N float64 // active standby
	IDD0  float64 // activate-precharge average over tRC
	IDD4R float64 // burst read
	IDD4W float64 // burst write
	IDD5  float64 // refresh average over tRFC

	// Timing in seconds.
	TRC   float64 // activate-to-activate, same bank
	TRFC  float64 // refresh cycle time
	TREFI float64 // average refresh interval
	// BurstSeconds is the duration of one read/write burst (BL/2 cycles of
	// the command clock for GDDR5's 8n prefetch).
	BurstSeconds float64

	// TerminationMWPerPin is the average ODT/termination power per active DQ
	// pin in milliwatts while bursting.
	TerminationMWPerPin float64
}

// HynixGDDR5 returns parameters for a 1 Gbit x32 GDDR5 device at the given
// data rate in Gbit/s/pin (e.g. 3.4 for GT240-class, 4.0 for GTX580-class).
func HynixGDDR5(dataRateGbps float64) Chip {
	if dataRateGbps <= 0 {
		dataRateGbps = 4.0
	}
	wck := dataRateGbps / 2 * 1e9 // write clock Hz (DDR)
	return Chip{
		Name:     fmt.Sprintf("H5GQ1H24AFR-%.1fGbps", dataRateGbps),
		VDD:      1.5,
		DataPins: 32,
		IDD2N:    0.115,
		IDD3N:    0.205,
		IDD0:     0.290,
		IDD4R:    0.850,
		IDD4W:    0.800,
		IDD5:     0.550,
		TRC:      40e-9,
		TRFC:     110e-9,
		TREFI:    1.9e-6,
		// burst of 8 data beats on a wck/2 command clock: 4 command cycles.
		BurstSeconds:        4 / (wck / 2),
		TerminationMWPerPin: 5.2,
	}
}

// Activity summarises DRAM command traffic for one device over an interval.
type Activity struct {
	// Seconds is the wall-clock duration of the interval.
	Seconds float64
	// Activates is the number of ACT (row open) commands.
	Activates uint64
	// ReadBursts and WriteBursts count CAS commands (one burst each).
	ReadBursts, WriteBursts uint64
	// ActiveFraction is the fraction of time at least one bank is open
	// (IDD3N vs IDD2N weighting); clamp to [0,1].
	ActiveFraction float64
}

// Breakdown is the per-component power split in watts for one device.
type Breakdown struct {
	Background  float64
	Activate    float64
	ReadWrite   float64
	Termination float64
	Refresh     float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Background + b.Activate + b.ReadWrite + b.Termination + b.Refresh
}

// Power computes the average power of one device over the activity interval.
func (c Chip) Power(a Activity) (Breakdown, error) {
	if a.Seconds <= 0 {
		return Breakdown{}, fmt.Errorf("gddr: non-positive interval %g s", a.Seconds)
	}
	af := a.ActiveFraction
	if af < 0 {
		af = 0
	}
	if af > 1 {
		af = 1
	}
	var b Breakdown

	// Background: weighted standby current.
	b.Background = c.VDD * (float64(c.IDD2N*(1-af)) + float64(c.IDD3N*af))

	// Activate: each ACT adds (IDD0-IDD3N)*tRC charge above standby.
	actEnergy := c.VDD * (c.IDD0 - c.IDD3N) * c.TRC
	b.Activate = actEnergy * float64(a.Activates) / a.Seconds

	// Read/write: burst current above active standby for the burst duration.
	rdE := c.VDD * (c.IDD4R - c.IDD3N) * c.BurstSeconds
	wrE := c.VDD * (c.IDD4W - c.IDD3N) * c.BurstSeconds
	b.ReadWrite = (float64(rdE*float64(a.ReadBursts)) + float64(wrE*float64(a.WriteBursts))) / a.Seconds

	// Termination: DQ pins dissipate ODT power while bursting.
	burstFrac := float64(a.ReadBursts+a.WriteBursts) * c.BurstSeconds / a.Seconds
	if burstFrac > 1 {
		burstFrac = 1
	}
	b.Termination = burstFrac * float64(c.DataPins) * c.TerminationMWPerPin / 1000

	// Refresh: duty-cycled refresh current above standby.
	b.Refresh = c.VDD * (c.IDD5 - c.IDD3N) * c.TRFC / c.TREFI

	return b, nil
}

// IdlePower returns the device power with no traffic and all banks closed.
func (c Chip) IdlePower() float64 {
	b, _ := c.Power(Activity{Seconds: 1})
	return b.Total()
}

// DDR3 returns parameters for a 2 Gbit x16 DDR3 SDRAM device at the given
// data rate in Gbit/s/pin (e.g. 1.6 for DDR3-1600). Low-end graphics cards
// of the paper's era shipped with DDR3 instead of GDDR5; the Micron power
// methodology applies identically.
func DDR3(dataRateGbps float64) Chip {
	if dataRateGbps <= 0 {
		dataRateGbps = 1.6
	}
	ck := dataRateGbps / 2 * 1e9 // command clock (DDR)
	return Chip{
		Name:     fmt.Sprintf("DDR3-%.0f", dataRateGbps*1000),
		VDD:      1.5,
		DataPins: 16,
		IDD2N:    0.032,
		IDD3N:    0.047,
		IDD0:     0.075,
		IDD4R:    0.180,
		IDD4W:    0.185,
		IDD5:     0.210,
		TRC:      49e-9,
		TRFC:     160e-9,
		TREFI:    7.8e-6,
		// Burst of 8 beats on the command clock: 4 cycles.
		BurstSeconds:        4 / ck,
		TerminationMWPerPin: 8.5,
	}
}

// ForType returns the chip model for a memory type name ("gddr5" or
// "ddr3"), the two technologies the paper names for contemporary cards.
func ForType(memType string, dataRateGbps float64) (Chip, error) {
	switch memType {
	case "", "gddr5":
		return HynixGDDR5(dataRateGbps), nil
	case "ddr3":
		return DDR3(dataRateGbps), nil
	}
	return Chip{}, fmt.Errorf("gddr: unknown memory type %q", memType)
}
