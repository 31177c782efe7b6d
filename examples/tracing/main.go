// Tracing: record a simulated run with the timeline flight recorder, print
// its per-iteration phase breakdown, and write every rank's phase spans as
// a Chrome trace-event JSON (open in chrome://tracing or Perfetto) — the
// profiler's view of the simulated machine.
package main

import (
	"fmt"
	"os"

	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

func main() {
	// A small POP-barotropic-shaped workload: compute + halo + Allreduce,
	// with rank-dependent imbalance so the trace shows collective waits.
	sys := core.NewSystem(machine.XT4(), machine.VN, 8).EnableTimeline()

	elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
		n := p.Size()
		for step := 0; step < 3; step++ {
			p.SetIter(step)
			// Imbalanced compute: higher ranks do a little more work.
			t := p.PhaseBegin()
			p.Compute(core.Work{
				Flops:       2e7 * (1 + 0.2*float64(p.Rank())/float64(n)),
				FlopEff:     0.15,
				StreamBytes: 4e6,
			})
			p.PhaseEnd("compute", t)
			right := (p.Rank() + 1) % n
			left := (p.Rank() - 1 + n) % n
			t = p.PhaseBegin()
			p.SendRecv(right, step, 64<<10, left, step)
			p.PhaseEnd("halo", t)
			// Collectives become spans on their own.
			p.Allreduce(mpi.Sum, 16, nil)
		}
	})
	rep := sys.TimelineReport(elapsed)
	fmt.Printf("simulated makespan: %.3f ms, %d spans recorded\n\n", elapsed*1e3, rep.Spans)

	fmt.Println("per-iteration phases (rank time summed over ranks; resource busy time inside the phase's window):")
	fmt.Printf("  %4s  %-10s %5s %10s %10s %10s %10s %10s\n",
		"iter", "phase", "spans", "rank ms", "window ms", "link ms", "NIC ms", "VN ms")
	for _, ip := range rep.Iterations {
		fmt.Printf("  %4d  %-10s %5d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			ip.Iter, ip.Phase, ip.Spans, ip.SpanSeconds*1e3, ip.WindowSeconds*1e3,
			ip.LinkBusySeconds*1e3, ip.NICBusySeconds*1e3, ip.VNProxyBusySeconds*1e3)
	}

	out, err := os.Create("xtsim-trace.json")
	if err != nil {
		panic(err)
	}
	defer out.Close()
	if err := rep.WriteChromeTrace(out); err != nil {
		panic(err)
	}
	fmt.Println("\nwrote xtsim-trace.json (open in chrome://tracing or ui.perfetto.dev)")
}
