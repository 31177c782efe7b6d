package expt

import (
	"fmt"

	"xtsim/internal/core"
	"xtsim/internal/hpcc"
	"xtsim/internal/lustre"
	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
)

func init() {
	register(Experiment{
		ID: "table1", Artifact: "Table 1",
		Title: "Comparison of XT3, XT3 dual core, and XT4 systems at ORNL",
		Run:   runTable1,
	})
	register(Experiment{
		ID: "fig1", Artifact: "Figure 1",
		Title: "Lustre filesystem architecture",
		Run:   runFig1,
	})
	register(Experiment{
		ID: "fig2", Artifact: "Figure 2",
		Title: "Network latency (µs)",
		Run:   runFig2,
	})
	register(Experiment{
		ID: "fig3", Artifact: "Figure 3",
		Title: "Network bandwidth (GB/s)",
		Run:   runFig3,
	})
	register(Experiment{
		ID: "fig4", Artifact: "Figure 4",
		Title: "SP/EP Fast Fourier Transform (GFLOPS)",
		Run: func(res *Result, o Options) error {
			return runSPEP(res, o, "FFT", func(m machine.Machine) hpcc.SPEP { return hpcc.FFTNode(m, 1<<20) })
		},
	})
	register(Experiment{
		ID: "fig5", Artifact: "Figure 5",
		Title: "SP/EP Matrix Multiply DGEMM (GFLOPS)",
		Run: func(res *Result, o Options) error {
			return runSPEP(res, o, "DGEMM", func(m machine.Machine) hpcc.SPEP { return hpcc.DGEMMNode(m, 2000) })
		},
	})
	register(Experiment{
		ID: "fig6", Artifact: "Figure 6",
		Title: "SP/EP Random Access (GUPS)",
		Run: func(res *Result, o Options) error {
			return runSPEP(res, o, "RandomAccess", func(m machine.Machine) hpcc.SPEP { return hpcc.RandomAccessNode(m, 1<<20) })
		},
	})
	register(Experiment{
		ID: "fig7", Artifact: "Figure 7",
		Title: "SP/EP Memory Bandwidth STREAM triad (GB/s)",
		Run: func(res *Result, o Options) error {
			return runSPEP(res, o, "STREAM", func(m machine.Machine) hpcc.SPEP { return hpcc.StreamNode(m, 1<<24) })
		},
	})
	register(Experiment{
		ID: "fig8", Artifact: "Figure 8",
		Title: "Global High Performance LINPACK (TFLOPS)",
		Run: func(res *Result, o Options) error {
			return runGlobal(res, o, "HPL TFLOPS", hpcc.HPLOn)
		},
	})
	register(Experiment{
		ID: "fig9", Artifact: "Figure 9",
		Title: "Global Fast Fourier Transform MPI-FFT (GFLOPS)",
		Run: func(res *Result, o Options) error {
			return runGlobal(res, o, "MPI-FFT GFLOPS", hpcc.MPIFFTOn)
		},
	})
	register(Experiment{
		ID: "fig10", Artifact: "Figure 10",
		Title: "Global Matrix Transpose PTRANS (GB/s)",
		Run: func(res *Result, o Options) error {
			return runGlobal(res, o, "PTRANS GB/s", hpcc.PTRANSOn)
		},
	})
	register(Experiment{
		ID: "fig11", Artifact: "Figure 11",
		Title: "Global Random Access MPI-RA (GUPS)",
		Run: func(res *Result, o Options) error {
			return runGlobal(res, o, "MPI-RA GUPS", hpcc.MPIRAOn)
		},
	})
	register(Experiment{
		ID: "fig12", Artifact: "Figure 12",
		Title: "Bidirectional MPI bandwidth vs message size (small-message view)",
		Run:   runFig1213,
	})
	register(Experiment{
		ID: "fig13", Artifact: "Figure 13",
		Title: "Bidirectional MPI bandwidth vs message size (large-message view)",
		Run:   runFig1213,
	})
}

func runTable1(res *Result, _ Options) error {
	t := res.Table()
	xt3, dc, xt4 := machine.XT3(), machine.XT3DualCore(), machine.XT4()
	t.Row("", xt3.Name, dc.Name, xt4.Name)
	t.Row("Processor",
		fmt.Sprintf("%.1fGHz single-core", xt3.CPU.ClockGHz),
		fmt.Sprintf("%.1fGHz dual-core", dc.CPU.ClockGHz),
		fmt.Sprintf("%.1fGHz dual-core", xt4.CPU.ClockGHz))
	t.Row("Processor Sockets", itoa(xt3.TotalNodes), itoa(dc.TotalNodes), itoa(xt4.TotalNodes))
	t.Row("Processor Cores", itoa(xt3.MaxCores()), itoa(dc.MaxCores()), itoa(xt4.MaxCores()))
	t.Row("Memory", xt3.Mem.Kind, dc.Mem.Kind, xt4.Mem.Kind)
	t.Row("Memory Capacity", "2GB/core", "2GB/core", "2GB/core")
	t.Row("Memory Bandwidth",
		f2(xt3.Mem.PeakBW/1e9)+"GB/s", f2(dc.Mem.PeakBW/1e9)+"GB/s", f2(xt4.Mem.PeakBW/1e9)+"GB/s")
	t.Row("Interconnect", "Cray SeaStar", "Cray SeaStar", "Cray SeaStar2")
	t.Row("Network Injection BW",
		f2(xt3.NIC.InjBW/1e9)+"GB/s", f2(dc.NIC.InjBW/1e9)+"GB/s", f2(xt4.NIC.InjBW/1e9)+"GB/s")
	return nil
}

func runFig1(res *Result, _ Options) error {
	cfg := lustre.DefaultConfig()
	res.Textf("Lustre deployment: 1 MDS, %d OSS x %d OST (%d OSTs total)\n",
		cfg.OSSCount, cfg.OSTsPerOSS, cfg.TotalOSTs())
	res.Textf("OST disk %.0f MB/s, OSS path %.1f GB/s, MDS op %.0f µs, default stripe %d x %d KiB\n",
		cfg.OSTBandwidth/1e6, cfg.OSSNetBandwidth/1e9, cfg.MDSOpLatency*1e6,
		cfg.DefaultStripeCount, cfg.StripeSize>>10)

	// Trace one striped file's layout and a client write through the
	// architecture (compute node -> SeaStar -> SIO/OSS -> OST).
	eng := sim.NewEngine()
	fab := network.New(eng, machine.XT4(), 64)
	fs, err := lustre.New(eng, fab, cfg)
	if err != nil {
		return err
	}
	eng.Spawn("client", func(p *sim.Proc) {
		f := fs.Create(p, 4)
		start := p.Now()
		f.Write(p, 0, 0, 16<<20)
		res.Textf("client on node 0 wrote 16 MiB over %d stripes in %.2f ms (%.0f MB/s)\n",
			f.StripeCount, (p.Now()-start)*1e3, 16.0*(1<<20)/(p.Now()-start)/1e6)
	})
	eng.Run()
	res.AddSimSeconds(float64(eng.Now()))
	res.Textf("liblustre client path: compute node -> torus -> SIO node (OSS) -> OST\n")
	return nil
}

// xtTriple runs an experiment for the three bar groups of Figures 2-7:
// XT3, XT4-SN and XT4-VN.
func runSPEP(res *Result, _ Options, name string, run func(machine.Machine) hpcc.SPEP) error {
	t := res.Table()
	t.Row(name, "SP", "EP")
	xt3 := run(machine.XT3())
	t.Row("XT3", f4(xt3.SP), f4(xt3.EP))
	xt4 := run(machine.XT4())
	// Figures 4-7 label the groups XT4-SN (one core) and XT4-VN (both
	// cores); SP uses one core in both groups, EP differs.
	t.Row("XT4-SN", f4(xt4.SP), f4(xt4.SP))
	t.Row("XT4-VN", f4(xt4.SP), f4(xt4.EP))
	return nil
}

func runFig2(res *Result, o Options) error {
	return runNetwork(res, o, true)
}

func runFig3(res *Result, o Options) error {
	return runNetwork(res, o, false)
}

func runNetwork(res *Result, o Options, latency bool) error {
	tasks := 128
	if o.Short {
		tasks = 32
	}
	probe := hpcc.NetworkBandwidth
	if latency {
		probe = hpcc.NetworkLatency
	}
	t := res.Table()
	t.Row("", "PPmin", "PPavg", "PPmax", "Nat.Ring", "Rand.Ring")
	rows := []struct {
		label string
		m     machine.Machine
		mode  machine.Mode
	}{
		{"XT3", machine.XT3(), machine.SN},
		{"XT4-SN", machine.XT4(), machine.SN},
		{"XT4-VN", machine.XT4(), machine.VN},
	}
	for _, r := range rows {
		n := tasks
		if r.mode == machine.VN {
			n = tasks * 2 // same node count, both cores
		}
		res := probe(r.m, r.mode, n)
		t.Row(r.label, f2(res.PPMin), f2(res.PPAvg), f2(res.PPMax), f2(res.NatRing), f2(res.RandRing))
	}
	return nil
}

// globalScales returns the socket counts swept in Figures 8-11.
func globalScales(o Options) []int {
	if o.Short {
		return []int{16, 64}
	}
	return []int{64, 128, 256, 512}
}

func runGlobal(res *Result, o Options, metric string, bench func(*core.System) hpcc.GlobalResult) error {
	// Every (machine, mode, scale) cell is an independent system, so the
	// sweep is evaluated through runCells, on whatever slots of the
	// campaign's worker budget are idle; results are assembled by index,
	// so the rendered table is byte-identical for any -jobs value. No
	// -hybrid tier reaches these sweeps: the exact tier never engages on
	// them (every SN cell's all-to-all traffic shares links and aborts to
	// the DES, every VN cell is declined), and the analytic tier's
	// uncontended closed form would rewrite the tables (fig10's 64-socket
	// XT4-VN PTRANS read 4.5× the DES value).
	scales := globalScales(o)
	type cellCfg struct {
		m    machine.Machine
		mode machine.Mode
		n    int
	}
	cells := make([]cellCfg, 0, 3*len(scales))
	for _, sockets := range scales {
		cells = append(cells,
			cellCfg{machine.XT3(), machine.SN, sockets},
			cellCfg{machine.XT4(), machine.SN, sockets},
			cellCfg{machine.XT4(), machine.VN, 2 * sockets})
	}
	results := make([]hpcc.GlobalResult, len(cells))
	runCells(res, len(cells), func(i int) {
		sys := core.NewSystem(cells[i].m, cells[i].mode, cells[i].n)
		if o.Timeline {
			// Flight recorder on, export unused: the rendered table stays
			// byte-identical, which is what lets BenchmarkFig9Timeline* price
			// the sampling overhead against the identical -timeline-off run.
			sys.EnableTimeline()
		}
		results[i] = bench(sys)
	})
	t := res.Table()
	t.Row("sockets", "XT3", "XT4-SN", "XT4-VN(cores)", "XT4-VN(sockets)", "["+metric+"]")
	for i, sockets := range scales {
		xt3, sn, vn := results[3*i], results[3*i+1], results[3*i+2]
		// The paper plots VN twice: against its core count and against
		// its socket count; the *value* is the same run.
		t.Row(itoa(sockets), f3(xt3.Value), f3(sn.Value), f3(vn.Value), f3(vn.Value), "")
	}
	return nil
}

func runFig1213(res *Result, o Options) error {
	sizes := hpcc.StandardSizes()
	if o.Short {
		sizes = []int64{64, 8192, 1 << 20}
	}
	t := res.Table()
	t.Row("bytes", "XT3-SC 0-1", "XT3-DC 0-1", "XT3-DC 2pair", "XT4 0-1", "XT4 2pair", "[GB/s per pair, bidirectional]")
	sc := hpcc.BidirBandwidth(machine.XT3(), machine.SN, 1, sizes)
	dc1 := hpcc.BidirBandwidth(machine.XT3DualCore(), machine.VN, 1, sizes)
	dc2 := hpcc.BidirBandwidth(machine.XT3DualCore(), machine.VN, 2, sizes)
	x1 := hpcc.BidirBandwidth(machine.XT4(), machine.VN, 1, sizes)
	x2 := hpcc.BidirBandwidth(machine.XT4(), machine.VN, 2, sizes)
	for i := range sizes {
		t.Row(fmt.Sprintf("%d", sizes[i]),
			f3(sc[i].BWPerPair/1e9), f3(dc1[i].BWPerPair/1e9), f3(dc2[i].BWPerPair/1e9),
			f3(x1[i].BWPerPair/1e9), f3(x2[i].BWPerPair/1e9), "")
	}
	return nil
}

func init() {
	register(Experiment{
		ID: "imb", Artifact: "Supplement",
		Title: "IMB-style point-to-point and collective sweeps (XT3 vs XT4)",
		Run:   runIMB,
	})
}

func runIMB(res *Result, o Options) error {
	sizes := []int64{8, 1024, 64 << 10, 1 << 20}
	if o.Short {
		sizes = []int64{8, 1 << 20}
	}
	t := res.Table()
	t.Row("bytes", "PingPong µs", "PingPong GB/s", "PingPing GB/s", "Exchange GB/s", "Allreduce(16) µs", "[XT4-SN]")
	pp := hpcc.IMBPingPong(machine.XT4(), machine.SN, sizes)
	p2 := hpcc.IMBPingPing(machine.XT4(), machine.SN, sizes)
	ex := hpcc.IMBExchange(machine.XT4(), machine.SN, 16, sizes)
	ar := hpcc.IMBAllreduce(machine.XT4(), machine.SN, 16, sizes)
	for i := range sizes {
		t.Row(fmt.Sprintf("%d", sizes[i]),
			f2(pp[i].Seconds*1e6), f3(pp[i].BW/1e9), f3(p2[i].BW/1e9),
			f3(ex[i].BW/1e9), f2(ar[i].Seconds*1e6), "")
	}

	t2 := res.Table()
	t2.Row("bytes", "XT3 PingPong µs", "XT4 PingPong µs", "XT3 GB/s", "XT4 GB/s", "")
	pp3 := hpcc.IMBPingPong(machine.XT3(), machine.SN, sizes)
	for i := range sizes {
		t2.Row(fmt.Sprintf("%d", sizes[i]),
			f2(pp3[i].Seconds*1e6), f2(pp[i].Seconds*1e6),
			f3(pp3[i].BW/1e9), f3(pp[i].BW/1e9), "")
	}
	return nil
}
