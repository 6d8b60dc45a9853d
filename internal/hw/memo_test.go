package hw

import (
	"fmt"
	"math"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sim"
	"gpusimpow/internal/simcache"
)

// sameMeasurements reports whether two measurement lists agree bit for bit.
func sameMeasurements(a, b []Measurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.AvgPowerW) != math.Float64bits(y.AvgPowerW) ||
			math.Float64bits(x.EnergyJ) != math.Float64bits(y.EnergyJ) {
			return false
		}
		x.AvgPowerW, x.EnergyJ, y.AvgPowerW, y.EnergyJ = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// TestMeasureHitContinuesStream: a card whose measurement is a memo hit
// returns what the DAQ pass returns and leaves its noise stream where the
// pass would, so its next measurement equals a twin card's that drew the
// waveform.
func TestMeasureHitContinuesStream(t *testing.T) {
	simcache.Default().Reset()
	newSession := func() *Card {
		c, err := NewCardSession(config.GT240(), "memo-test")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	items := func(blocks int) []SeqItem {
		l, mem := busyLaunch(blocks)
		return []SeqItem{{Launch: l, Mem: mem, MinWindowS: 0.06, GapS: 0.01}, {Launch: l, Mem: mem, Repeats: 3}}
	}
	twin, miss, hit := newSession(), newSession(), newSession()

	_, want, err := twin.MeasureSequence(items(4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := miss.Measure(items(4))
	if err != nil {
		t.Fatal(err)
	}
	before := simcache.Default().Stats()
	again, err := hit.Measure(items(4))
	if err != nil {
		t.Fatal(err)
	}
	after := simcache.Default().Stats()
	if after.MeasureHits != before.MeasureHits+1 || after.MeasureMisses != before.MeasureMisses {
		t.Fatalf("second session's measurement: %d hits, %d misses; want one more hit", after.MeasureHits-before.MeasureHits, after.MeasureMisses-before.MeasureMisses)
	}
	if !sameMeasurements(got, want) || !sameMeasurements(again, want) {
		t.Fatalf("memoized measurement differs from the waveform's:\nmiss %+v\nhit  %+v\nwant %+v", got, again, want)
	}
	for _, c := range []*Card{miss, hit} {
		if c.chain.noise.state != twin.chain.noise.state {
			t.Fatalf("noise state %#x after Measure, %#x after MeasureSequence", c.chain.noise.state, twin.chain.noise.state)
		}
	}

	// The same sequence again: only the noise stream's position tells
	// this measurement from the stored one.
	_, next, err := twin.MeasureSequence(items(4))
	if err != nil {
		t.Fatal(err)
	}
	afterHit, err := hit.Measure(items(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMeasurements(afterHit, next) {
		t.Fatalf("measurement after a hit %+v, twin card's %+v", afterHit, next)
	}
}

// TestMeasureKeyCoversPassInputs: changing any number the DAQ pass reads
// changes the memo key.
func TestMeasureKeyCoversPassInputs(t *testing.T) {
	c, err := NewCardSession(config.GTX580(), "memo-key")
	if err != nil {
		t.Fatal(err)
	}
	l, mem := busyLaunch(2)
	seq, _, err := c.sequence([]SeqItem{{Launch: l, Mem: mem, Repeats: 2}, {Launch: l, Mem: mem, MinWindowS: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	base := c.measureKey(seq)
	f64s := map[string]*float64{"idleW": &seq.idleW, "alpha": &seq.alpha}
	for i := range c.chain.rails {
		r := &c.chain.rails[i]
		for field, p := range map[string]*float64{"share": &r.share, "voltageGainErr": &r.voltageGainErr,
			"currentGainErr": &r.currentGainErr, "offsetW": &r.offsetW, "noiseW": &r.noiseW} {
			f64s[fmt.Sprintf("rail %d %s", i, field)] = p
		}
	}
	for i := range seq.phases {
		ph := &seq.phases[i]
		f64s[fmt.Sprintf("phase %d powerW", i)] = &ph.powerW
		f64s[fmt.Sprintf("phase %d durS", i)] = &ph.durS
	}
	for name, p := range f64s {
		old := *p
		*p = math.Nextafter(old, math.Inf(1))
		if c.measureKey(seq) == base {
			t.Errorf("key ignores %s", name)
		}
		*p = old
	}
	seq.phases[1].mark, seq.phases[3].mark = seq.phases[3].mark, seq.phases[1].mark
	if c.measureKey(seq) == base {
		t.Error("key ignores the phase marks")
	}
	seq.phases[1].mark, seq.phases[3].mark = seq.phases[3].mark, seq.phases[1].mark
	c.chain.noise.skip(1)
	if c.measureKey(seq) == base {
		t.Error("key ignores the noise stream's state")
	}
}

// fuzzTimings holds one busy-kernel timing result per card model, so fuzz
// iterations (which run one at a time) price sequences without simulating.
var fuzzTimings = map[string]*sim.Result{}

func fuzzTiming(t *testing.T, c *Card) *sim.Result {
	if r, ok := fuzzTimings[c.name]; ok {
		return r
	}
	l, mem := busyLaunch(8)
	tr, err := simcache.Run(c.perf, l, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	fuzzTimings[c.name] = tr.Perf
	return tr.Perf
}

// FuzzMeasureMemo: over arbitrary repeats, windows, gaps and clock scales
// on both cards, Measure — a miss on one session card, then a hit on a
// second — equals MeasureSequence on a third bit for bit, and all three
// noise streams end in the same state.
func FuzzMeasureMemo(f *testing.F) {
	f.Add(false, uint8(1), uint8(0), uint8(150), uint8(20), uint8(50), "s")
	f.Add(true, uint8(3), uint8(7), uint8(0), uint8(0), uint8(0), "")
	f.Add(true, uint8(2), uint8(255), uint8(255), uint8(255), uint8(255), "cell-3")
	f.Fuzz(func(t *testing.T, gtx bool, n, repeats, windowMs, gapMs, scale uint8, session string) {
		cfg := config.GT240
		if gtx {
			cfg = config.GTX580
		}
		newCard := func() *Card {
			c, err := NewCardSession(cfg(), session)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SetClockScale(0.5 + float64(scale%51)/100); err != nil {
				t.Fatal(err)
			}
			return c
		}
		ref, miss, hit := newCard(), newCard(), newCard()
		perf := fuzzTiming(t, ref)
		l, _ := busyLaunch(8)
		items := make([]SeqItem, 1+int(n%3))
		for i := range items {
			items[i] = SeqItem{
				Launch:     l,
				Timing:     perf,
				Repeats:    int(repeats>>uint(2*i)) % 64,
				MinWindowS: float64(windowMs) / 1000,
				GapS:       float64(gapMs) / 5000 * float64(i),
			}
		}
		_, want, err := ref.MeasureSequence(items)
		if err != nil {
			t.Fatal(err)
		}
		simcache.Default().Reset()
		got, err := miss.Measure(items)
		if err != nil {
			t.Fatal(err)
		}
		again, err := hit.Measure(items)
		if err != nil {
			t.Fatal(err)
		}
		if st := simcache.Default().Stats(); st.MeasureMisses != 1 || st.MeasureHits != 1 {
			t.Fatalf("memo counters %d misses, %d hits; want 1 and 1", st.MeasureMisses, st.MeasureHits)
		}
		if !sameMeasurements(got, want) || !sameMeasurements(again, want) {
			t.Fatalf("Measure differs from MeasureSequence:\nmiss %+v\nhit  %+v\nwant %+v", got, again, want)
		}
		if miss.chain.noise.state != ref.chain.noise.state || hit.chain.noise.state != ref.chain.noise.state {
			t.Fatalf("noise states miss %#x, hit %#x, waveform %#x", miss.chain.noise.state, hit.chain.noise.state, ref.chain.noise.state)
		}
	})
}
