package config

import (
	"reflect"
	"testing"
)

// perturbValue nudges v to a different value of the same type. Returns
// false for kinds the GPU struct does not contain (a new field of an
// unhandled kind fails the test loudly instead of silently passing).
func perturbValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	default:
		return false
	}
	return true
}

// TestTimingPartitionExhaustive perturbs every GPU field one at a time and
// asserts the timing key changes exactly when the field is neither
// power-only nor timing-neutral. This is the runtime half of the
// partition contract: gpowlint's timingpartition pass proves the
// classified fields match what timing-side code actually reads; this test
// proves appendTimingFields matches the classification. A new GPU field
// fails here until it is either encoded or added to one of the lists in
// partition.go.
func TestTimingPartitionExhaustive(t *testing.T) {
	unkeyed := map[string]bool{}
	for _, name := range powerOnlyFields {
		unkeyed[name] = true
	}
	for _, name := range timingNeutralFields {
		if unkeyed[name] {
			t.Fatalf("%s appears in both powerOnlyFields and timingNeutralFields", name)
		}
		unkeyed[name] = true
	}

	gpuType := reflect.TypeOf(GPU{})
	for name := range unkeyed {
		if _, ok := gpuType.FieldByName(name); !ok {
			t.Fatalf("partition.go classifies %q, which is not a GPU field", name)
		}
	}

	baseKey := GT240().TimingKey()
	for i := 0; i < gpuType.NumField(); i++ {
		field := gpuType.Field(i)
		if field.Name == "XMLName" {
			continue // xml bookkeeping, not configuration
		}
		if field.Type.Kind() == reflect.Struct {
			// Power (PowerCal): perturb each sub-field individually; none
			// may move the key, since the whole block is power-only.
			if !unkeyed[field.Name] {
				t.Errorf("struct field %s must be classified in partition.go", field.Name)
				continue
			}
			for j := 0; j < field.Type.NumField(); j++ {
				cfg := GT240()
				sub := reflect.ValueOf(cfg).Elem().Field(i).Field(j)
				if !perturbValue(sub) {
					t.Errorf("%s.%s: unhandled kind %s", field.Name, field.Type.Field(j).Name, sub.Kind())
					continue
				}
				if cfg.TimingKey() != baseKey {
					t.Errorf("%s.%s is classified power-only but perturbing it changes the timing key", field.Name, field.Type.Field(j).Name)
				}
			}
			continue
		}

		cfg := GT240()
		v := reflect.ValueOf(cfg).Elem().Field(i)
		if !perturbValue(v) {
			t.Errorf("%s: unhandled kind %s — extend perturbValue", field.Name, v.Kind())
			continue
		}
		changed := cfg.TimingKey() != baseKey
		if unkeyed[field.Name] && changed {
			t.Errorf("%s is classified as unkeyed in partition.go but perturbing it changes the timing key", field.Name)
		}
		if !unkeyed[field.Name] && !changed {
			t.Errorf("%s is unclassified yet perturbing it leaves the timing key unchanged — encode it in appendTimingFields or add it to partition.go", field.Name)
		}
	}
}
