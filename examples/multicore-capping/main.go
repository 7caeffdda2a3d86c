// Multi-core power capping: the paper's first future-work item,
// explored. The same node power cap that barely touches a single busy
// core is a hard constraint for eight, because every core shares the
// socket budget: parallel speedup and the cap trade off against each
// other.
//
// The program runs the parallel SAR workload at several core counts,
// uncapped and under a node cap, and prints wall time, speedup, power,
// and the operating point the controller chose.
//
//	go run ./examples/multicore-capping
package main

import (
	"fmt"

	"nodecap/internal/machine"
	"nodecap/internal/multicore"
	"nodecap/internal/workloads/parallel"
	"nodecap/internal/workloads/sar"
)

func main() {
	wcfg := sar.DefaultConfig()
	wcfg.RSMIterations = 1
	wcfg.ImageSize = 64

	const capWatts = 230 // generous for 1 core, tight for 8

	fmt.Printf("parallel SIRE/RSM, node cap %d W where capped\n\n", capWatts)
	fmt.Printf("%5s %9s %12s %9s %10s %10s %8s\n",
		"cores", "cap", "wall time", "speedup", "power(W)", "freq(MHz)", "gating")

	var baseline map[int]float64
	baseline = map[int]float64{}

	for _, cores := range []int{1, 2, 4, 8} {
		for _, cap := range []float64{0, capWatts} {
			cfg := machine.Romley()
			cfg.Cores = cores
			m := machine.New(cfg)
			m.SetPolicy(cap)
			res := multicore.Run(m, parallel.NewSAR(wcfg))

			label := "none"
			if cap > 0 {
				label = fmt.Sprintf("%.0f W", cap)
			}
			speedup := 0.0
			if cap == 0 {
				baseline[cores] = res.ExecTime.Seconds()
				if b, ok := baseline[1]; ok && res.ExecTime.Seconds() > 0 {
					speedup = b / res.ExecTime.Seconds()
				}
			} else if b, ok := baseline[1]; ok && res.ExecTime.Seconds() > 0 {
				speedup = b / res.ExecTime.Seconds()
			}
			fmt.Printf("%5d %9s %12v %8.2fx %10.1f %10.0f %8d\n",
				cores, label, res.ExecTime, speedup,
				res.AvgPowerWatts, res.AvgFreqMHz, m.GatingLevel())
		}
	}

	fmt.Println("\nreading: uncapped, more cores buy near-linear speedup at rising power.")
	fmt.Println("Capped, the controller trades frequency for width — and past the point")
	fmt.Println("where the cores' static power crowds out the clock budget, adding cores")
	fmt.Println("is a net loss: eight throttled+gated cores finish behind four. Under a")
	fmt.Println("power budget there is an optimal core count below the socket's maximum.")
}
