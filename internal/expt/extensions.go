package expt

import (
	"fmt"

	"xtsim/internal/core"
	"xtsim/internal/kernels"
	"xtsim/internal/lustre"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
	"xtsim/internal/sim"
)

// Extension experiments: questions the paper raises but defers. §6 states
// "I/O performance is explicitly ignored in these application benchmarks"
// because short runs would overemphasise it — which is precisely why a
// simulator can answer it: how much does periodic checkpointing cost an
// S3D-style production run at scale, as a function of stripe count?

func init() {
	register(Experiment{
		ID: "ext-checkpoint", Artifact: "Extension",
		Title: "S3D-style checkpoint I/O overhead on Lustre vs stripe count",
		Run:   runExtCheckpoint,
	})
}

func runExtCheckpoint(res *Result, o Options) error {
	tasks := 256
	stepsPerCkpt := 10
	if o.Short {
		tasks = 32
	}
	const edge = 50 // S3D weak-scaling subdomain
	const nVars = 12
	ckptBytesPerTask := int64(edge*edge*edge) * nVars * 8 // full state dump

	// Per-step compute+halo cost from the S3D proxy's calibration: use a
	// representative fixed cost so the experiment isolates I/O.
	stepWork := core.Work{
		Flops:       float64(edge*edge*edge) * 2170 * 6.4,
		FlopEff:     0.15,
		StreamBytes: float64(edge*edge*edge) * 8300 * 6.4,
	}
	derivBytes := kernels.HaloBytesPerFace(edge, edge, kernels.Deriv8Width, nVars)

	t := res.Table()
	t.Row("stripes", "step+ckpt cycle (s)", "I/O share", "write GB/s")
	for _, stripes := range []int{1, 4, 16, 64} {
		sys := core.NewSystem(machine.XT4(), machine.VN, tasks)
		fs, err := lustre.Attach(sys, lustre.DefaultConfig())
		if err != nil {
			return err
		}
		var computeEnd, total sim.Time
		elapsed := mpi.Run(sys, mpi.Auto, func(p *mpi.P) {
			me := p.Rank()
			n := p.Size()
			for s := 0; s < stepsPerCkpt; s++ {
				p.Compute(stepWork)
				right := (me + 1) % n
				left := (me - 1 + n) % n
				reqs := []*mpi.Request{
					p.Isend(right, s, derivBytes), p.Isend(left, 100+s, derivBytes),
					p.Irecv(left, s), p.Irecv(right, 100+s),
				}
				p.Wait(reqs...)
			}
			p.Barrier()
			if me == 0 {
				computeEnd = p.Now()
			}
			// Checkpoint: file-per-process dump, the dominant S3D pattern.
			f := fs.Create(p.Task().Proc, stripes)
			f.Write(p.Task().Proc, p.Task().NodeID, 0, ckptBytesPerTask)
			p.Barrier()
			if me == 0 {
				total = p.Now()
			}
		})
		res.AddSimSeconds(elapsed)
		ioTime := total - computeEnd
		share := ioTime / total
		bw := float64(ckptBytesPerTask) * float64(tasks) / ioTime / 1e9
		t.Row(itoa(stripes), f2(total), fmt.Sprintf("%.1f%%", share*100), f2(bw))
	}
	res.Textln("(The paper skipped I/O to avoid overemphasis in short runs; at production cadence the checkpoint tax is the filesystem's aggregate bandwidth divided into the run.)")
	return nil
}
