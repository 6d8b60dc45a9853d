package sim_test

// Equivalence tests for parallelism across simulations: the simulator steps
// its cores sequentially, and the runner and the fleet get their
// parallelism by running many simulations at once. Any number of
// simulations running side by side must each be bit-identical to a lone
// run in every activity counter, in the derived headline results, and in
// the functional global-memory image — in both the event-driven and dense
// clock modes.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gpusimpow/internal/config"
	"gpusimpow/internal/sim"
)

func TestParallelEquivalence(t *testing.T) {
	gpus := []func() *config.GPU{config.GT240, config.GTX580}
	kernels := []string{"vectorAdd", "BlackScholes", "bfs", "mergeSort"}
	for _, mk := range gpus {
		for _, dense := range []bool{false, true} {
			for _, kname := range kernels {
				ref := mk()
				ref.DenseClock = dense
				refRes, refMem := runSuiteMode(t, ref, kname)

				for _, workers := range []int{2, 8} {
					name := fmt.Sprintf("%s/%s/dense=%v/workers=%d", ref.Name, kname, dense, workers)
					t.Run(name, func(t *testing.T) {
						type run struct {
							res []*sim.Result
							mem []uint32
							err error
						}
						runs := make([]run, workers)
						var wg sync.WaitGroup
						for w := range runs {
							wg.Add(1)
							go func() {
								defer wg.Done()
								cfg := mk()
								cfg.DenseClock = dense
								r := &runs[w]
								r.res, r.mem, r.err = simulateSuite(cfg, kname)
							}()
						}
						wg.Wait()
						for w, r := range runs {
							if r.err != nil {
								t.Fatalf("simulation %d: %v", w, r.err)
							}
							if len(r.res) != len(refRes) {
								t.Fatalf("simulation %d: launch counts differ: %d vs %d", w, len(r.res), len(refRes))
							}
							for i := range r.res {
								if !reflect.DeepEqual(r.res[i].Activity, refRes[i].Activity) {
									t.Errorf("simulation %d launch %d: activity counters diverge:\nconcurrent: %+v\nalone:      %+v",
										w, i, r.res[i].Activity, refRes[i].Activity)
								} else if !reflect.DeepEqual(r.res[i], refRes[i]) {
									t.Errorf("simulation %d launch %d: derived results diverge:\nconcurrent: %+v\nalone:      %+v",
										w, i, r.res[i], refRes[i])
								}
							}
							if !reflect.DeepEqual(r.mem, refMem) {
								t.Errorf("simulation %d: global memory image diverges from the lone run", w)
							}
						}
					})
				}
			}
		}
	}
}
