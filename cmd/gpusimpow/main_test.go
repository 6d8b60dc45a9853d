package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run(io.Discard, "GT240", "", "", false, true, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunStatic(t *testing.T) {
	for _, gpu := range []string{"GT240", "GTX580"} {
		if err := run(io.Discard, gpu, "", "", true, false, "", false); err != nil {
			t.Fatalf("%s: %v", gpu, err)
		}
	}
}

func TestRunBenchmark(t *testing.T) {
	if err := run(io.Discard, "GT240", "", "vectorAdd", false, false, "", true); err != nil {
		t.Fatal(err)
	}
}

// TestRunProfileOutput pins the full stdout of
// `gpusimpow -gpu GT240 -bench BlackScholes`: the per-launch header, the
// Table V-shaped power profile and the verification line.
func TestRunProfileOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "GT240", "", "BlackScholes", false, false, "", false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "blackscholes-gt240.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("stdout differs from testdata/blackscholes-gt240.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "NoSuchGPU", "", "vectorAdd", false, false, "", false); err == nil {
		t.Error("unknown GPU should error")
	}
	if err := run(io.Discard, "GT240", "", "noSuchBench", false, false, "", false); err == nil {
		t.Error("unknown benchmark should error")
	}
	if err := run(io.Discard, "GT240", "", "", false, false, "", false); err == nil {
		t.Error("nothing to do should error")
	}
	if err := run(io.Discard, "GT240", "/does/not/exist.xml", "vectorAdd", false, false, "", false); err == nil {
		t.Error("missing config file should error")
	}
	if err := run(io.Discard, "GT240", "", "", false, false, "NoSuchPreset", false); err == nil {
		t.Error("unknown dump preset should error")
	}
}

func TestDumpAndReloadConfig(t *testing.T) {
	// Round trip a preset through XML and a file.
	path := filepath.Join(t.TempDir(), "gt240.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	dumpErr := run(f, "", "", "", false, false, "GT240", false)
	f.Close()
	if dumpErr != nil {
		t.Fatal(dumpErr)
	}

	// Use the dumped config for a simulation.
	if err := run(io.Discard, "", path, "vectorAdd", false, false, "", false); err != nil {
		t.Fatalf("simulating with dumped config: %v", err)
	}
}
