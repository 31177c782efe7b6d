package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (TestMetricTablesMatchBenchmarkJSON keeps them in
// step); the bounds live only there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of xtsim sees, from untraced runs.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, from the traced run. Counts
// and times are per repetition; cpu.* are CPU-profile seconds per
// repetition, charged to the innermost xtsim/internal frame (profile.go).
var perLayer = []metricDef{
	// sim: the discrete-event engine.
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"cpu.sim.engine", "s", "lower"},
	{"cpu.sim.proc", "s", "lower"},
	{"cpu.sim.resource", "s", "lower"},
	// sim, sharded: the parallel engine and its fabric half.
	{"sim.window_barriers", "count", "lower"},
	{"cpu.sim.parallel", "s", "lower"},
	{"network.foreign_hops", "count", "lower"},
	// network and torus.
	{"cpu.network.fabric", "s", "lower"},
	{"cpu.network.hybrid", "s", "lower"},
	{"cpu.network.parallel", "s", "lower"},
	{"cpu.torus", "s", "lower"},
	{"network.msgs", "count", "lower"},
	{"network.bytes", "B", "lower"},
	// mpi.
	{"cpu.mpi.core", "s", "lower"},
	{"cpu.mpi.hybrid", "s", "lower"},
	{"cpu.mpi.observe", "s", "lower"},
	// core.
	{"cpu.core", "s", "lower"},
	{"core.new_system_s", "s", "lower"},
	{"core.parallel_fallbacks", "count", "lower"},
	{"core.hybrid_fallbacks", "count", "lower"},
	// apps, hpcc/kernels, lustre/io.
	{"cpu.apps", "s", "lower"},
	{"cpu.hpcc", "s", "lower"},
	{"cpu.lustre", "s", "lower"},
	// observers.
	{"cpu.telemetry", "s", "lower"},
	{"cpu.timeline", "s", "lower"},
	{"cpu.critpath", "s", "lower"},
	{"cpu.trace", "s", "lower"},
	{"expt.attachment_bytes", "B", "lower"},
	// expt: the campaign layer's own code and per-experiment walls.
	{"cpu.expt", "s", "lower"},
	{"cpu.other", "s", "lower"},
	{"expt.fig8_s", "s", "lower"},
	{"expt.fig9_s", "s", "lower"},
	{"expt.fig11_s", "s", "lower"},
	{"expt.fig14_s", "s", "lower"},
	{"expt.fig15_s", "s", "lower"},
	{"expt.fig16_s", "s", "lower"},
	{"expt.fig17_s", "s", "lower"},
	{"expt.fig18_s", "s", "lower"},
	{"expt.fig19_s", "s", "lower"},
	{"expt.fig20_s", "s", "lower"},
	{"expt.fig21_s", "s", "lower"},
	{"expt.fig23_s", "s", "lower"},
	{"expt.ext-petascale_s", "s", "lower"},
	{"expt.other_s", "s", "lower"},
	{"expt.ext-ckpt_s", "s", "lower"},
	{"expt.ext-io_s", "s", "lower"},
	{"expt.ext-timeline_s", "s", "lower"},
	{"expt.critpath_s", "s", "lower"},
	{"expt.congestion_s", "s", "lower"},
	// petascale cells.
	{"petascale.cell_1728_s", "s", "lower"},
	{"petascale.cell_4096_s", "s", "lower"},
	{"petascale.cell_11232_s", "s", "lower"},
	{"petascale.cell_23016_s", "s", "lower"},
	// runtime and host.
	{"host.wall_s", "s", "lower"},
	{"host.speed", "ratio", "higher"},
	{"host.cpu_s", "s", "lower"},
	{"cpu.runtime", "s", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.allocs", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.sched_p50_us", "us", "lower"},
	{"runtime.sched_p99_us", "us", "lower"},
	// the traced run itself.
	{"trace.overhead", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

func metricByName(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("xtbench: no metric " + name)
}
