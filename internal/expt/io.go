package expt

// The I/O-subsystem extensions (DESIGN.md §4j): ext-io sweeps an IOR-style
// shared-file workload across stripe counts and transfer sizes on a system
// whose Lustre OSSes live on reserved SIO nodes, and ext-ckpt runs the S3D
// proxy with periodic write-behind checkpoints so flush traffic and halo
// exchanges contend for the same torus links — the simulator's first
// two-traffic-class study. Both check the byte-conservation invariants
// (client bytes == Σ per-OST bytes, fabric injected == delivered) on every
// cell, so each rendered row doubles as a model audit.

import (
	"fmt"
	"math"

	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	"xtsim/internal/critpath"
	ckpt "xtsim/internal/io"
	"xtsim/internal/lustre"
	"xtsim/internal/machine"
	"xtsim/internal/telemetry"
)

func init() {
	register(Experiment{
		ID: "ext-io", Artifact: "Extension",
		Title: "IOR shared-file bandwidth vs stripe count and transfer size (OSSes on SIO nodes)",
		Run:   runExtIO,
	})
	register(Experiment{
		ID: "ext-ckpt", Artifact: "Extension",
		Title: "S3D compute-phase slowdown from checkpoint traffic on shared torus links",
		Run:   runExtCkpt,
	})
}

// runExtIO reproduces the classic Lustre striping result: shared-file write
// bandwidth saturates as the stripe width spreads the file over more OSTs,
// with the transfer size setting how efficiently each stripe is filled.
// Unlike ext-checkpoint (which predates the I/O subsystem and places OSSes
// by the legacy top-of-range rule), every byte here crosses real torus
// links into the SIO partition.
func runExtIO(res *Result, o Options) error {
	cfg := lustre.DefaultConfig()
	tasks := 64
	bytesPerTask := int64(16 << 20)
	stripeCounts := []int{1, 4, 16, 64}
	transfers := []int64{256 << 10, 1 << 20, 4 << 20}
	if o.Short {
		tasks = 16
		bytesPerTask = 4 << 20
		stripeCounts = []int{1, 4, 16}
		transfers = []int64{256 << 10, 1 << 20}
	}

	type cell struct {
		ior lustre.IORResult
		rep *telemetry.Report
		sim float64
		err error
	}
	cells := make([]cell, len(transfers)*len(stripeCounts))
	runCells(res, len(cells), func(i int) {
		transfer := transfers[i/len(stripeCounts)]
		stripes := stripeCounts[i%len(stripeCounts)]
		sys := core.NewSystemSIO(machine.XT4(), machine.SN, tasks, cfg.OSSCount)
		sys.EnableTelemetry()
		ior, err := lustre.RunIOR(sys, cfg, lustre.IORParams{
			Tasks:        tasks,
			BytesPerTask: bytesPerTask,
			TransferSize: transfer,
			StripeCount:  stripes,
		})
		if err != nil {
			cells[i] = cell{err: err}
			return
		}
		rep := sys.TelemetryReport()
		if err := rep.IO.CheckConservation(); err != nil {
			cells[i] = cell{err: err}
			return
		}
		if err := rep.Fabric.CheckConservation(); err != nil {
			cells[i] = cell{err: err}
			return
		}
		cells[i] = cell{ior: ior, rep: rep, sim: float64(sys.Eng.Now())}
	})

	res.Textf("IOR shared file: %d tasks × %d MiB each, %d OSSes on SIO nodes (%d OSTs):\n",
		tasks, bytesPerTask>>20, cfg.OSSCount, cfg.TotalOSTs())
	t := res.Table()
	t.Row("transfer", "stripes", "write GB/s", "read GB/s", "meta (ms)", "OST util mean/max", "MDS ops")
	var last *telemetry.Report
	for i, c := range cells {
		if c.err != nil {
			return c.err
		}
		res.AddSimSeconds(c.sim)
		io := c.rep.IO
		t.Row(fmt.Sprintf("%d KiB", transfers[i/len(stripeCounts)]>>10),
			itoa(stripeCounts[i%len(stripeCounts)]),
			f2(c.ior.WriteBW/1e9), f2(c.ior.ReadBW/1e9), f2(c.ior.MetaSeconds*1e3),
			f3(io.OSTMeanUtilization)+"/"+f3(io.OSTMaxUtilization),
			itoa(int(io.MDSOps)))
		last = c.rep
	}
	res.Textln("(One stripe serialises the file behind a single OST; widening the stripe spreads the offsets round-robin until the OSS network or the torus ingress saturates. Byte conservation — client bytes == Σ per-OST bytes — was checked in every cell.)")
	if o.Telemetry && last != nil {
		if err := res.Attach("telemetry", "IOR widest-stripe run", last.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// icbrt returns the exact integer cube root of n, panicking unless n is a
// perfect cube — ext-ckpt's strong-scaling task counts are cubes so the
// global grid divides evenly.
func icbrt(n int) int {
	for s := 1; s*s*s <= n; s++ {
		if s*s*s == n {
			return s
		}
	}
	panic(fmt.Sprintf("expt: %d is not a perfect cube", n))
}

// runExtCkpt strong-scales the S3D proxy over a fixed 96³ global grid with
// periodic write-behind checkpoints and compares the per-step compute phase
// against a no-checkpoint baseline. The third arm re-runs the checkpointed
// configuration with I/O traffic routed around the fabric (the OSS/OST
// service legs still priced): any slowdown it removes was torus
// interference, and because the checkpoint quiesce resynchronises all ranks
// at one instant, that arm's compute phase matches the baseline exactly.
func runExtCkpt(res *Result, o Options) error {
	taskCounts := []int{8, 64, 216}
	if o.Short {
		taskCounts = []int{8, 64}
	}
	const globalEdge = 96
	const steps = 5
	every := 1
	if o.CkptEvery > 0 {
		every = o.CkptEvery
	}
	// A deliberately narrow SIO partition (4 OSS nodes, 8 OSTs) funnels the
	// flush traffic through few torus ingress links — the regime where
	// checkpoint and halo traffic visibly contend.
	fsCfg := lustre.DefaultConfig()
	fsCfg.OSSCount = 4
	sio := fsCfg.OSSCount

	variants := []struct {
		name  string
		ckpt  bool
		quiet bool
	}{
		{"no checkpoint", false, false},
		{"checkpoint", true, false},
		{"checkpoint, I/O off fabric", true, true},
	}

	type cell struct {
		r      s3d.Result
		rep    *telemetry.Report
		cp     *critpath.Report
		epochs int
		sim    float64
		err    error
	}
	cells := make([]cell, len(taskCounts)*len(variants))
	runCells(res, len(cells), func(i int) {
		tasks := taskCounts[i/len(variants)]
		v := variants[i%len(variants)]
		sys := core.NewSystemSIO(machine.XT4(), machine.SN, tasks, sio)
		sys.EnableTelemetry()
		// -critpath exports the largest checkpointed run's path, so only
		// that cell records one.
		exported := o.CritPath && v.ckpt && !v.quiet && tasks == taskCounts[len(taskCounts)-1]
		if exported {
			sys.EnableCritPath()
		}
		edge := globalEdge / icbrt(tasks)
		b := s3d.Benchmark{
			PointsPerEdge: edge,
			Variables:     12,
			RKStages:      6,
			Steps:         steps,
			// Dump the solver's full register set (solution, RK carryover,
			// RHS, filter workspace — four field-sized arrays), not just the
			// halo-exchanged state.
			CheckpointBytes: 4 * 8 * 12 * int64(edge) * int64(edge) * int64(edge),
		}
		if v.ckpt {
			w, err := ckpt.Attach(sys, ckpt.Config{FS: fsCfg, StripeCount: 4, DisableTraffic: v.quiet})
			if err != nil {
				cells[i] = cell{err: err}
				return
			}
			b.Checkpoint = w
			b.CheckpointEvery = every
		}
		r := s3d.RunOn(sys, b)
		rep := sys.TelemetryReport()
		if rep.IO != nil {
			if err := rep.IO.CheckConservation(); err != nil {
				cells[i] = cell{err: err}
				return
			}
		}
		if err := rep.Fabric.CheckConservation(); err != nil {
			cells[i] = cell{err: err}
			return
		}
		c := cell{r: r, rep: rep, sim: float64(sys.Eng.Now())}
		if v.ckpt {
			c.epochs = b.Checkpoint.Epochs
		}
		if exported {
			c.cp = sys.CritPathReport()
		}
		cells[i] = c
	})

	res.Textf("S3D strong scaling, %d³ global grid, %d steps, checkpoint every %d steps (N-to-N, stripe 4, OSSes on %d SIO nodes):\n",
		globalEdge, steps, every, sio)
	t := res.Table()
	t.Row("tasks", "variant", "s/step", "compute phase (s/step)", "slowdown", "epochs", "ckpt GB")
	var lastCkpt *cell
	for i := range cells {
		c := &cells[i]
		if c.err != nil {
			return c.err
		}
		res.AddSimSeconds(c.sim)
		base := cells[(i/len(variants))*len(variants)].r.ComputePhaseSeconds
		v := variants[i%len(variants)]
		slow, epochs, gb := "-", "-", "-"
		if v.ckpt {
			pct := (c.r.ComputePhaseSeconds/base - 1) * 100
			if math.Abs(pct) < 0.005 {
				pct = 0 // don't render FP dust as "-0.00%"
			}
			slow = fmt.Sprintf("%+.2f%%", pct)
			epochs = itoa(c.epochs)
			gb = f2(float64(c.rep.IO.ClientBytesWritten) / 1e9)
			if !v.quiet {
				lastCkpt = c
			}
		}
		t.Row(itoa(taskCounts[i/len(variants)]), v.name,
			f3(c.r.SecondsPerStep), f3(c.r.ComputePhaseSeconds), slow, epochs, gb)
	}
	res.Textln("(Write-behind flushes reserve torus links eagerly, so the halo exchanges of the steps after each epoch queue behind checkpoint stripes — the compute phase itself slows even though the write happens \"in the background\". With the same checkpoints routed off the fabric the slowdown is exactly zero, isolating network interference as the whole effect.)")
	if lastCkpt != nil {
		if o.Telemetry {
			if err := res.Attach("telemetry", "checkpointed S3D run", lastCkpt.rep.WriteJSON); err != nil {
				return err
			}
		}
		if o.CritPath && lastCkpt.cp != nil {
			if err := res.Attach("critpath", "checkpointed S3D run", lastCkpt.cp.WriteJSON); err != nil {
				return err
			}
		}
	}
	return nil
}
