package sim

import (
	"math/bits"

	"gpusimpow/internal/config"
)

// dramSys models the memory controllers and GDDR5 channels: per-channel
// bandwidth serialization, per-bank open-row tracking (activate on row
// change), and the command counts the DRAM power model needs. Timing is kept
// in core cycles throughout.
type dramSys struct {
	cfg         *config.GPU
	channels    int
	banks       int
	rowShift    uint
	burstCycles uint64 // core cycles to transfer one 32B burst on one channel
	rowPenalty  uint64 // tRP + tRCD in core cycles
	frontLat    uint64 // core->MC pipeline latency
	backLat     uint64 // MC->core return latency

	nextFree []uint64 // per channel: earliest cycle the data bus is free
	openRow  [][]int64
	busy     []uint64 // per channel: accumulated busy cycles
}

func newDRAMSys(cfg *config.GPU) *dramSys {
	coreHz := cfg.CoreClockHz()
	// One x32 device per channel: 32 bytes take 8/dataRate ns.
	burstNS := 8 / cfg.MemDataRateGbps
	burst := uint64(burstNS*coreHz/1e9 + 0.5)
	if burst == 0 {
		burst = 1
	}
	rowNS := cfg.DRAMTRCDNS + cfg.DRAMTRPNS
	d := &dramSys{
		cfg:         cfg,
		channels:    cfg.MemChannels,
		banks:       cfg.DRAMBanks,
		rowShift:    uint(bits.TrailingZeros(uint(cfg.DRAMRowBytes))),
		burstCycles: burst,
		rowPenalty:  uint64(rowNS * coreHz / 1e9),
		frontLat:    uint64(cfg.DRAMLatencyCore) / 2,
		backLat:     uint64(cfg.DRAMLatencyCore) - uint64(cfg.DRAMLatencyCore)/2,
		nextFree:    make([]uint64, cfg.MemChannels),
		openRow:     make([][]int64, cfg.MemChannels),
		busy:        make([]uint64, cfg.MemChannels),
	}
	for i := range d.openRow {
		d.openRow[i] = make([]int64, cfg.DRAMBanks)
		for b := range d.openRow[i] {
			d.openRow[i][b] = -1
		}
	}
	return d
}

// access services a segment request of segBytes at addr issued at cycle now.
// It returns the completion cycle and records command activity.
func (d *dramSys) access(now uint64, addr uint32, segBytes int, write bool, a *Activity) uint64 {
	ch := int(addr>>8) % d.channels
	chLocal := uint32(addr) / uint32(d.channels)
	bank := int(chLocal>>d.rowShift) % d.banks
	row := int64(chLocal >> d.rowShift / uint32(d.banks))

	arrival := now + d.frontLat
	start := arrival
	if nf := d.nextFree[ch]; nf > start {
		start = nf
	}

	var penalty uint64
	if d.openRow[ch][bank] != row {
		penalty = d.rowPenalty
		d.openRow[ch][bank] = row
		a.DRAMActivates++
	}

	bursts := uint64((segBytes + 31) / 32)
	service := penalty + bursts*d.burstCycles
	d.nextFree[ch] = start + service
	d.busy[ch] += service

	a.MCRequests++
	if write {
		a.DRAMWriteBursts += bursts
	} else {
		a.DRAMReadBursts += bursts
	}
	return start + service + d.backLat
}

// totalBusy returns the summed channel busy cycles.
func (d *dramSys) totalBusy() uint64 {
	var t uint64
	for _, b := range d.busy {
		t += b
	}
	return t
}
