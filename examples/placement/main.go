// Placement: choose between moving the compute and moving the data.
//
// A four-node heterogeneous cluster (one fast host driving three remote
// nodes up to 8x slower) serves a mixed offload stream: cheap resident
// services next to heavy analysis kernels, operand regions from 8 to
// 24 KiB. The same stream runs three times — always ship the BitCODE
// (the paper's static answer), always pull the data (RDMA GET + local
// execution + put-back), and the cost-model planner that prices both
// routes per request — and produces bit-identical results each time,
// with very different total virtual time.
package main

import (
	"fmt"
	"log"
	"os"

	"threechains"
)

func main() {
	profile := threechains.ThorXeon()

	// The acceptance-grade scenario from the benchmark grid: mixed
	// region sizes, asymmetric node speeds, half the types predeployed.
	w := threechains.GenerateWorkload(threechains.WorkloadParams{
		Seed: 46, Nodes: 4, Types: 6, Ops: 96,
		MinRegionWords: 1024, MaxRegionWords: 3072,
		HeavyIters: 8192, PredeployFrac: 0.5,
	})
	fmt.Printf("scenario: %d nodes, %d types, %d offloads (fingerprint %016x)\n",
		len(w.RegionWords), len(w.Types), len(w.Ops), w.Fingerprint())
	fmt.Printf("node speeds: %v (ExecCostMultiplier; node 0 drives)\n\n", round2(w.SpeedMult))

	rows, err := threechains.PlacementSweep(profile)
	if err != nil {
		log.Fatal(err)
	}
	r := rows[0] // mixed-hetero
	fmt.Printf("%-12s %14s %28s\n", "policy", "total time", "route mix (ship/pull/local)")
	for _, pt := range r.Points {
		fmt.Printf("%-12s %12.1fµs %17d/%d/%d\n",
			pt.Policy, pt.TotalUS, pt.ShipOps, pt.PullOps, pt.LocalOps)
	}
	fmt.Printf("\nall policies computed identical results (hash %s)\n", r.Points[0].ResultHash)
	fmt.Printf("cost model beats the best static policy by %.1f%%\n", r.WinPct)

	// The same choice under pipelined load: a 16-deep offload stream
	// (threechains.StreamOp / Runtime.StartOffloadStream) over nine
	// remote nodes. Priced one request at a time the pull route wins
	// almost everywhere, so the zero-load cost model herds onto the
	// driver's core like always-pull; the queueing-aware planner
	// (threechains.PolicyCostModelQueue) tracks busy-until horizons for
	// the local core and NIC and spills the excess to idle remote cores.
	conc, err := threechains.ConcurrentPlacementSweep(profile)
	if err != nil {
		log.Fatal(err)
	}
	c := conc[0] // concurrent-hetero
	fmt.Printf("\nconcurrent stream (depth %d, %d offloads, %d nodes):\n", c.Depth, c.Ops, c.Nodes)
	fmt.Printf("%-18s %14s %28s\n", "policy", "makespan", "route mix (ship/pull/local)")
	for _, pt := range c.Points {
		fmt.Printf("%-18s %12.1fµs %17d/%d/%d\n",
			pt.Policy, pt.TotalUS, pt.ShipOps, pt.PullOps, pt.LocalOps)
	}
	fmt.Printf("\nall policies again bit-identical (hash %s)\n", c.Points[0].ResultHash)
	fmt.Printf("queueing-aware model beats the best alternative by %.1f%%\n", c.QueueWinPct)

	// Where did the virtual time go? Re-run the concurrent scenario with
	// a trace attached (pure observation: same makespan, same results)
	// and dump a Perfetto-loadable timeline — one process per node with
	// core / nic-out / nic-in tracks — plus the aggregate profile.
	traced, err := threechains.RunTracedConcurrentScenario(profile, threechains.WorkloadParams{
		Seed: 46, Nodes: 4, Types: 6, Ops: 96,
		MinRegionWords: 1024, MaxRegionWords: 3072,
		HeavyIters: 8192, PredeployFrac: 0.5,
		StreamDepth: 16,
	}, threechains.PolicyCostModelQueue)
	if err != nil {
		log.Fatal(err)
	}
	const tracePath = "placement_trace.json"
	f, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := traced.Trace.WriteChrome(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraced the queueing-aware run: makespan %.1fµs, %d events -> %s (load in ui.perfetto.dev)\n",
		traced.Total.Micros(), traced.Trace.NumEvents(), tracePath)
	fmt.Printf("\nvirtual-time profile:\n%s", traced.Trace.Profile(6))
}

func round2(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*100)) / 100
	}
	return out
}
