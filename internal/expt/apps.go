package expt

import (
	"xtsim/internal/apps/aorsa"
	"xtsim/internal/apps/cam"
	"xtsim/internal/apps/namd"
	"xtsim/internal/apps/pop"
	"xtsim/internal/apps/s3d"
	"xtsim/internal/machine"
)

func init() {
	register(Experiment{
		ID: "fig14", Artifact: "Figure 14",
		Title: "CAM throughput on XT4 vs XT3 (simulated years/day)",
		Run:   runFig14,
	})
	register(Experiment{
		ID: "fig15", Artifact: "Figure 15",
		Title: "CAM throughput on XT4 relative to previous results",
		Run:   runFig15,
	})
	register(Experiment{
		ID: "fig16", Artifact: "Figure 16",
		Title: "CAM performance by computational phase (s per simulated day)",
		Run:   runFig16,
	})
	register(Experiment{
		ID: "fig17", Artifact: "Figure 17",
		Title: "POP throughput on XT4 vs XT3 (simulated years/day)",
		Run:   runFig17,
	})
	register(Experiment{
		ID: "fig18", Artifact: "Figure 18",
		Title: "POP throughput on XT4 relative to previous results",
		Run:   runFig18,
	})
	register(Experiment{
		ID: "fig19", Artifact: "Figure 19",
		Title: "POP performance by computational phase (s per simulated day)",
		Run:   runFig19,
	})
	register(Experiment{
		ID: "fig20", Artifact: "Figure 20",
		Title: "NAMD performance on XT4 vs XT3 (s per timestep)",
		Run:   runFig20,
	})
	register(Experiment{
		ID: "fig21", Artifact: "Figure 21",
		Title: "NAMD performance impact of SN vs VN (s per timestep)",
		Run:   runFig21,
	})
	register(Experiment{
		ID: "fig22", Artifact: "Figure 22",
		Title: "S3D parallel performance (µs per grid point per step)",
		Run:   runFig22,
	})
	register(Experiment{
		ID: "fig23", Artifact: "Figure 23",
		Title: "AORSA parallel performance (grind time, minutes)",
		Run:   runFig23,
	})
}

func camTaskSweep(o Options) []int {
	if o.Short {
		return []int{30, 120}
	}
	return []int{30, 60, 120, 240, 480, 960}
}

func runFig14(res *Result, o Options) error {
	b := cam.DGrid()
	t := res.Table()
	t.Row("tasks", "XT3 SN", "XT3-DC SN", "XT3-DC VN", "XT4 SN", "XT4 VN", "[sim years/day]")
	for _, tasks := range camTaskSweep(o) {
		cfg, err := cam.Decompose(tasks, b)
		if err != nil {
			return err
		}
		cells := []string{itoa(tasks)}
		for _, mc := range []struct {
			m    machine.Machine
			mode machine.Mode
		}{
			{machine.XT3(), machine.SN},
			{machine.XT3DualCore(), machine.SN},
			{machine.XT3DualCore(), machine.VN},
			{machine.XT4(), machine.SN},
			{machine.XT4(), machine.VN},
		} {
			r := cam.Run(mc.m, mc.mode, cfg, b)
			cells = append(cells, f2(r.SimYearsPerDay))
		}
		cells = append(cells, "")
		t.Row(cells...)
	}
	return nil
}

func runFig15(res *Result, o Options) error {
	b := cam.DGrid()
	procs := []int{64, 128, 256, 512, 960}
	if o.Short {
		procs = []int{64, 256}
	}
	machines := []struct {
		m    machine.Machine
		mode machine.Mode
	}{
		{machine.XT4(), machine.SN},
		{machine.XT4(), machine.VN},
		{machine.X1E(), machine.VN},
		{machine.EarthSimulator(), machine.VN},
		{machine.P690(), machine.VN},
		{machine.P575(), machine.VN},
		{machine.SP(), machine.VN},
	}
	t := res.Table()
	hdr := []string{"procs"}
	for _, mc := range machines {
		name := mc.m.Name
		if mc.m.Name == "XT4" {
			name += "-" + mc.mode.String()
		}
		hdr = append(hdr, name)
	}
	hdr = append(hdr, "[sim years/day]")
	t.Row(hdr...)
	for _, pcount := range procs {
		cells := []string{itoa(pcount)}
		for _, mc := range machines {
			// Respect machine size limits.
			if pcount > mc.m.MaxCores() {
				cells = append(cells, "-")
				continue
			}
			r, err := cam.BestForProcessors(mc.m, mc.mode, pcount, b)
			if err != nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, f2(r.SimYearsPerDay))
		}
		cells = append(cells, "")
		t.Row(cells...)
	}
	return nil
}

func runFig16(res *Result, o Options) error {
	b := cam.DGrid()
	t := res.Table()
	t.Row("tasks", "XT4-SN dyn", "XT4-SN phys", "XT4-VN dyn", "XT4-VN phys", "VN a2av/phys", "p575 dyn", "p575 phys", "[s/day]")
	for _, tasks := range camTaskSweep(o) {
		cfg, err := cam.Decompose(tasks, b)
		if err != nil {
			return err
		}
		sn := cam.Run(machine.XT4(), machine.SN, cfg, b)
		vn := cam.Run(machine.XT4(), machine.VN, cfg, b)
		cells := []string{itoa(tasks), f2(sn.DynamicsSecPerDay), f2(sn.PhysicsSecPerDay),
			f2(vn.DynamicsSecPerDay), f2(vn.PhysicsSecPerDay), f3(vn.PhysicsAlltoallvShare)}
		if tasks <= machine.P575().MaxCores() {
			ibm := cam.Run(machine.P575(), machine.VN, cfg, b)
			cells = append(cells, f2(ibm.DynamicsSecPerDay), f2(ibm.PhysicsSecPerDay))
		} else {
			cells = append(cells, "-", "-")
		}
		cells = append(cells, "")
		t.Row(cells...)
	}
	return nil
}

func popTaskSweep(o Options) []int {
	if o.Short {
		return []int{256, 1024}
	}
	return []int{500, 1000, 2500, 5000, 10000}
}

func runFig17(res *Result, o Options) error {
	b := pop.TenthDegree()
	t := res.Table()
	t.Row("tasks", "XT3 SN", "XT3-DC VN", "XT4 SN", "XT4 VN", "[sim years/day]")
	for _, tasks := range popTaskSweep(o) {
		cells := []string{itoa(tasks)}
		for _, mc := range []struct {
			m    machine.Machine
			mode machine.Mode
		}{
			{machine.XT3(), machine.SN},
			{machine.XT3DualCore(), machine.VN},
			{machine.XT4(), machine.SN},
			{machine.XT4(), machine.VN},
		} {
			maxTasks := mc.m.TotalNodes
			if mc.mode == machine.VN {
				maxTasks = mc.m.MaxCores()
			}
			if tasks > maxTasks {
				cells = append(cells, "-")
				continue
			}
			r := pop.Run(mc.m, mc.mode, tasks, b)
			cells = append(cells, f2(r.SimYearsPerDay))
		}
		cells = append(cells, "")
		t.Row(cells...)
	}
	return nil
}

func runFig18(res *Result, o Options) error {
	b := pop.TenthDegree()
	bCG := b
	bCG.ChronopoulosGear = true
	tasks := []int{500, 1000, 2500, 5000, 10000, 16000, 22000}
	if o.Short {
		tasks = []int{512, 2048}
	}
	t := res.Table()
	t.Row("tasks", "XT4 VN", "XT4 VN C-G", "p575", "X1E", "[sim years/day]")
	for _, n := range tasks {
		cells := []string{itoa(n)}
		// Beyond the XT4's core count the paper used a mix of XT3 and XT4
		// compute nodes (§6.2); the combined machine models that.
		xt := machine.XT4()
		if n > xt.MaxCores() {
			xt = machine.CombinedXT3XT4()
		}
		cells = append(cells, f2(pop.Run(xt, machine.VN, n, b).SimYearsPerDay))
		cells = append(cells, f2(pop.Run(xt, machine.VN, n, bCG).SimYearsPerDay))
		if n <= machine.P575().MaxCores() {
			cells = append(cells, f2(pop.Run(machine.P575(), machine.VN, n, b).SimYearsPerDay))
		} else {
			cells = append(cells, "-")
		}
		if n <= machine.X1E().MaxCores() {
			cells = append(cells, f2(pop.Run(machine.X1E(), machine.VN, n, b).SimYearsPerDay))
		} else {
			cells = append(cells, "-")
		}
		cells = append(cells, "")
		t.Row(cells...)
	}
	return nil
}

func runFig19(res *Result, o Options) error {
	b := pop.TenthDegree()
	bCG := b
	bCG.ChronopoulosGear = true
	t := res.Table()
	t.Row("tasks", "SN baroclinic", "SN barotropic", "VN baroclinic", "VN barotropic", "VN allred/barot", "VN C-G barotropic", "[s/day]")
	for _, n := range popTaskSweep(o) {
		cells := []string{itoa(n)}
		if n <= machine.XT4().TotalNodes {
			sn := pop.Run(machine.XT4(), machine.SN, n, b)
			cells = append(cells, f2(sn.BaroclinicSecPerDay), f2(sn.BarotropicSecPerDay))
		} else {
			cells = append(cells, "-", "-")
		}
		vn := pop.Run(machine.XT4(), machine.VN, n, b)
		cg := pop.Run(machine.XT4(), machine.VN, n, bCG)
		cells = append(cells, f2(vn.BaroclinicSecPerDay), f2(vn.BarotropicSecPerDay),
			f3(vn.AllreduceShare), f2(cg.BarotropicSecPerDay), "")
		t.Row(cells...)
	}
	return nil
}

func namdTaskSweep(o Options) []int {
	if o.Short {
		return []int{64, 512}
	}
	return []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 12000}
}

func runFig20(res *Result, o Options) error {
	t := res.Table()
	t.Row("tasks", "XT3(1M)", "XT4(1M)", "XT3(3M)", "XT4(3M)", "[s/step]")
	for _, n := range namdTaskSweep(o) {
		xt3 := "-"
		xt3b := "-"
		if n <= machine.XT3DualCore().MaxCores() {
			xt3 = f4(namd.Run(machine.XT3DualCore(), machine.VN, n, namd.OneMillion()).SecondsPerStep)
			xt3b = f4(namd.Run(machine.XT3DualCore(), machine.VN, n, namd.ThreeMillion()).SecondsPerStep)
		}
		t.Row(itoa(n),
			xt3,
			f4(namd.Run(machine.XT4(), machine.VN, n, namd.OneMillion()).SecondsPerStep),
			xt3b,
			f4(namd.Run(machine.XT4(), machine.VN, n, namd.ThreeMillion()).SecondsPerStep),
			"")
	}
	return nil
}

func runFig21(res *Result, o Options) error {
	t := res.Table()
	t.Row("tasks", "1M(SN)", "1M(VN)", "3M(SN)", "3M(VN)", "[s/step]")
	for _, n := range namdTaskSweep(o) {
		cells := []string{itoa(n)}
		if n <= machine.XT4().TotalNodes {
			cells = append(cells, f4(namd.Run(machine.XT4(), machine.SN, n, namd.OneMillion()).SecondsPerStep))
		} else {
			cells = append(cells, "-")
		}
		cells = append(cells, f4(namd.Run(machine.XT4(), machine.VN, n, namd.OneMillion()).SecondsPerStep))
		if n <= machine.XT4().TotalNodes {
			cells = append(cells, f4(namd.Run(machine.XT4(), machine.SN, n, namd.ThreeMillion()).SecondsPerStep))
		} else {
			cells = append(cells, "-")
		}
		cells = append(cells, f4(namd.Run(machine.XT4(), machine.VN, n, namd.ThreeMillion()).SecondsPerStep), "")
		t.Row(cells...)
	}
	return nil
}

func runFig22(res *Result, o Options) error {
	b := s3d.Weak50()
	scales := []int{1, 8, 64, 512, 1728, 4096, 10648}
	if o.Short {
		scales = []int{1, 64}
	}
	t := res.Table()
	t.Row("cores", "XT3", "XT4", "[µs per grid point per step]")
	for _, n := range scales {
		xt3 := "-"
		if n <= machine.XT3DualCore().MaxCores() {
			xt3 = f2(s3d.Run(machine.XT3DualCore(), machine.VN, n, b).CostPerPointUS)
		}
		t.Row(itoa(n), xt3,
			f2(s3d.Run(machine.XT4(), machine.VN, n, b).CostPerPointUS),
			"")
	}
	return nil
}

func runFig23(res *Result, o Options) error {
	prob := aorsa.Standard350()
	t := res.Table()
	t.Row("config", "Ax=b", "Calc QL operator", "Total", "solver TFLOPS", "[minutes]")
	type cfg struct {
		label string
		m     machine.Machine
		cores int
	}
	cfgs := []cfg{
		{"4k XT3", machine.XT3DualCore(), 4096},
		{"4k XT4", machine.XT4(), 4096},
		{"8k XT4", machine.XT4(), 8192},
		{"16k XT3/4", machine.CombinedXT3XT4(), 16384},
		{"22.5k XT3/4", machine.CombinedXT3XT4(), 22500},
	}
	if o.Short {
		cfgs = cfgs[:2]
		cfgs[0].cores, cfgs[1].cores = 1024, 1024
	}
	for _, c := range cfgs {
		r := aorsa.Run(c.m, machine.VN, c.cores, prob)
		t.Row(c.label, f2(r.SolveMinutes), f2(r.QLMinutes), f2(r.TotalMinutes), f2(r.SolveTFLOPS), "")
	}
	if !o.Short {
		large := aorsa.Run(machine.CombinedXT3XT4(), machine.VN, 16384, aorsa.Large500())
		res.Textf("500x500 grid on 16k cores: %.1f TFLOPS (%.1f%% of peak)\n",
			large.SolveTFLOPS, large.PeakFraction*100)
	}
	return nil
}
