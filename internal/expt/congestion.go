package expt

import (
	"fmt"
	"strings"

	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
)

// The congestion experiment turns the paper's two balance arguments into
// measured utilizations instead of inferred ones. §2 and §6.1 argue that VN
// mode suffers because both cores' traffic serialises through one NIC and
// its handling core; §5.1.3 attributes PTRANS/transpose behaviour to link
// (bisection) occupancy. With telemetry on, both show up directly: the
// NIC-sharing run as vn_proxy/nic_tx utilization, the size sweep as
// per-dimension link utilization climbing to saturation.

func init() {
	register(Experiment{
		ID: "congestion", Artifact: "Extension",
		Title: "Alltoall NIC sharing (SN vs VN) and link saturation, measured by telemetry",
		Run:   runCongestion,
	})
}

// runCongested executes iters rounds of Alltoall(bytesEach) on a
// telemetry-enabled XT4 system and returns the report and makespan. The
// conservation check runs on every report: if an instrumentation point were
// missing or double-counting, this experiment is where it would surface.
func runCongested(mode machine.Mode, tasks, iters int, bytesEach int64) (*telemetry.Report, sim.Time, error) {
	sys := core.NewSystem(machine.XT4(), mode, tasks).EnableTelemetry()
	elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
		for i := 0; i < iters; i++ {
			p.Alltoall(bytesEach)
		}
	})
	rep := sys.TelemetryReport()
	if err := rep.Fabric.CheckConservation(); err != nil {
		return nil, 0, err
	}
	return rep, elapsed, nil
}

func runCongestion(res *Result, o Options) error {
	tasks, iters := 64, 4
	if o.Short {
		tasks, iters = 16, 2
	}

	// Part 1 — NIC sharing: the same total task count in SN mode (one task
	// per node, a NIC each) and VN mode (two tasks share a NIC and its
	// handling core). The VN run's vn_proxy utilization is the serialisation
	// the paper blames for the SN-over-VN gap in alltoall-heavy codes.
	const shareBytes = 64 << 10
	res.Textf("%d tasks, %d rounds of Alltoall(%d KiB per pair), algorithmic collectives:\n",
		tasks, iters, shareBytes>>10)
	t := res.Table()
	t.Row("mode", "nodes", "time (ms)", "nic_tx util", "vn_proxy util", "link util mean/max", "link wait (s)")
	var lastRep *telemetry.Report
	for _, mode := range []machine.Mode{machine.SN, machine.VN} {
		rep, elapsed, err := runCongested(mode, tasks, iters, shareBytes)
		if err != nil {
			return err
		}
		res.AddSimSeconds(elapsed)
		f := rep.Fabric
		link := f.Class("link")
		t.Row(mode.String(), f.Torus, f2(elapsed*1e3),
			f3(f.Class("nic_tx").MeanUtilization),
			f3(f.Class("vn_proxy").MeanUtilization),
			f3(link.MeanUtilization)+"/"+f3(link.MaxUtilization),
			f2(link.WaitSeconds))
		lastRep = rep
	}

	// Part 2 — link saturation: sweep the per-pair size in SN mode and watch
	// the per-dimension link utilizations. Dimension-ordered routing loads X
	// first, so X saturates first; once the busiest links pin near 1.0 the
	// alltoall is bandwidth-bound and time scales linearly with size.
	sizes := []int64{4 << 10, 64 << 10, 512 << 10}
	if !o.Short {
		sizes = append(sizes, 2<<20)
	}
	res.Textln("")
	res.Textf("SN-mode link saturation vs message size (%d tasks, %d rounds):\n", tasks, iters)
	t2 := res.Table()
	t2.Row("bytes/pair", "time (ms)", "X util", "Y util", "Z util", "busiest link", "util")
	var sweepRep *telemetry.Report
	for _, size := range sizes {
		rep, elapsed, err := runCongested(machine.SN, tasks, iters, size)
		if err != nil {
			return err
		}
		res.AddSimSeconds(elapsed)
		f := rep.Fabric
		hot := "-"
		hotUtil := 0.0
		if len(f.TopLinks) > 0 {
			hot = f.TopLinks[0].Link
			hotUtil = f.TopLinks[0].Utilization
		}
		t2.Row(fmt.Sprintf("%d", size), f2(elapsed*1e3),
			f3(f.Dim("X").MeanUtilization), f3(f.Dim("Y").MeanUtilization), f3(f.Dim("Z").MeanUtilization),
			hot, f3(hotUtil))
		sweepRep = rep
	}

	// Part 3 — congestion heatmaps. Alltoall traffic is symmetric, so its
	// field is flat (every node equally loaded) — shown first as the
	// baseline. An incast (every rank sends to rank 0) concentrates load on
	// the routes converging at node 0, and the gradient shows up directly.
	incSys := core.NewSystem(machine.XT4(), machine.SN, tasks).EnableTelemetry()
	incElapsed := mpi.Run(incSys, mpi.Algorithmic, func(p *mpi.P) {
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				for src := 1; src < p.Size(); src++ {
					p.Recv(src, i)
				}
			} else {
				p.Send(0, i, 256<<10)
			}
		}
	})
	res.AddSimSeconds(incElapsed)
	incRep := incSys.TelemetryReport()
	if err := incRep.Fabric.CheckConservation(); err != nil {
		return err
	}
	var hm strings.Builder
	if err := sweepRep.Fabric.WriteHeatmap(&hm); err != nil {
		return err
	}
	hm.WriteString("\n")
	if err := incRep.Fabric.WriteHeatmap(&hm); err != nil {
		return err
	}
	res.Textln("")
	res.Textf("alltoall (uniform by symmetry), then incast to node 0 (converging routes):\n%s", hm.String())
	res.Textf("incast busiest: %s at utilization %s\n",
		incRep.Fabric.TopLinks[0].Link, f3(incRep.Fabric.TopLinks[0].Utilization))
	res.Textln("(NIC-sharing table: VN packs two tasks per node, so its torus is half the size and every message serialises through the shared handling core — the vn_proxy column. Sweep: X loads first under dimension-ordered routing.)")

	// Part 4 — the machine-readable export, on request.
	if o.Telemetry {
		if err := res.Attach("telemetry", "VN NIC-sharing run", lastRep.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}
