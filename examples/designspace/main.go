// Designspace: the architect's use case the paper motivates — "computer
// architects can evaluate design choices early from a power perspective".
// This example sweeps core count and process node for a GT240-derived
// architecture and prints performance, power and energy for a fixed
// workload, showing where the energy-optimal configuration sits.
//
//	go run ./examples/designspace
package main

import (
	"fmt"
	"log"

	"gpusimpow/internal/bench"
	"gpusimpow/internal/config"
	"gpusimpow/internal/core"
)

func evaluate(cfg *config.GPU) (cycles uint64, totalW, energyMJ float64, err error) {
	simr, err := core.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	inst, err := bench.MatrixMul()
	if err != nil {
		return 0, 0, 0, err
	}
	var e float64
	for _, r := range inst.Runs {
		rep, err := simr.RunKernel(r.Launch, inst.Mem, r.CMem)
		if err != nil {
			return 0, 0, 0, err
		}
		cycles += rep.Perf.Activity.Cycles
		totalW = rep.Power.TotalW
		e += float64(rep.Power.TotalW * rep.Power.Seconds)
	}
	if err := inst.Verify(); err != nil {
		return 0, 0, 0, err
	}
	return cycles, totalW, e * 1e3, nil
}

func main() {
	fmt.Println("Design space: matrixMul on GT240-derived architectures")
	fmt.Printf("%-24s %10s %9s %11s\n", "Variant", "Cycles", "Power W", "Energy mJ")

	for _, clusters := range []int{2, 4, 8} {
		cfg := config.GT240()
		cfg.Name = fmt.Sprintf("GT240-%dc", clusters*cfg.CoresPerCluster)
		cfg.Clusters = clusters
		cy, w, e, err := evaluate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %10d %9.2f %11.4f\n",
			fmt.Sprintf("%d cores", clusters*cfg.CoresPerCluster), cy, w, e)
	}

	for _, nm := range []float64{65, 40, 28} {
		cfg := config.GT240()
		cfg.Name = fmt.Sprintf("GT240@%gnm", nm)
		cfg.ProcessNM = nm
		cy, w, e, err := evaluate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %10d %9.2f %11.4f\n", fmt.Sprintf("%g nm process", nm), cy, w, e)
	}

	sb := config.GT240()
	sb.Name = "GT240+SB"
	sb.HasScoreboard = true
	sb.ScoreboardEntries = 6
	cy, w, e, err := evaluate(sb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-24s %10d %9.2f %11.4f\n", "with scoreboard", cy, w, e)
}
