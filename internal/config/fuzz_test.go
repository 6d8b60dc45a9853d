package config_test

import (
	"math"
	"reflect"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
	"gpusimpow/internal/power"
)

// floatPaths returns the index path of every float64 field of t,
// descending into struct fields.
func floatPaths(t reflect.Type, prefix []int) [][]int {
	var paths [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		switch t.Field(i).Type.Kind() {
		case reflect.Float64:
			paths = append(paths, path)
		case reflect.Struct:
			paths = append(paths, floatPaths(t.Field(i).Type, path)...)
		}
	}
	return paths
}

// FuzzConfigValidate sets one float field of a preset, chosen by index
// (GT240's fields, then GTX580's), to arbitrary bits. Validate must never
// panic, and a configuration it accepts must equal itself, which the
// per-configuration memos rely on, and must build through power.New and
// core.New.
func FuzzConfigValidate(f *testing.F) {
	paths := floatPaths(reflect.TypeOf(config.GPU{}), nil)
	presets := []func() *config.GPU{config.GT240, config.GTX580}
	f.Add(uint8(0), math.Float64bits(28))               // GT240 processNM
	f.Add(uint8(1), math.Float64bits(math.NaN()))       // GT240 coreClockMHz
	f.Add(uint8(len(paths)+6), math.Float64bits(1e300)) // GTX580 intOpPJ
	f.Add(uint8(len(paths)+1), math.Float64bits(math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, field uint8, bits uint64) {
		i := int(field) % (len(presets) * len(paths))
		c := presets[i/len(paths)]()
		reflect.ValueOf(c).Elem().FieldByIndex(paths[i%len(paths)]).SetFloat(math.Float64frombits(bits))
		if c.Validate() != nil {
			return
		}
		if *c != *c {
			t.Fatalf("accepted configuration is not equal to itself: field %d = %v", i, math.Float64frombits(bits))
		}
		if _, err := power.New(c); err != nil {
			t.Fatalf("accepted configuration fails power.New: %v", err)
		}
		if _, err := core.New(c); err != nil {
			t.Fatalf("accepted configuration fails core.New: %v", err)
		}
	})
}
