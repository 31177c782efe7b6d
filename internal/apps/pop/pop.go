// Package pop is a performance proxy for the Parallel Ocean Program
// (POP) 1.4.3 0.1-degree benchmark of §6.2: a 3600×2400×40 shifted-polar
// grid, decomposed in 2-D over MPI tasks.
//
// POP's behaviour is two-phase. The baroclinic phase advances the 3-D
// flow with nearest-neighbour halo exchanges and scales well everywhere.
// The barotropic phase solves a 2-D implicit system with conjugate
// gradient whose inner products are MPI_Allreduce calls; it is latency
// dominated and nearly flat with task count, so it bounds scaling. The
// proxy reproduces exactly this structure, including the
// Chronopoulos–Gear variant that halves the Allreduce count (the
// algorithmic backport shown in Figures 18–19), and uses the real CG
// kernels' reduction/iteration accounting.
package pop

import (
	"fmt"

	"xtsim/internal/core"
	ckpt "xtsim/internal/io"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// Benchmark describes a POP problem configuration.
type Benchmark struct {
	// NX, NY, NZ are the global grid extents (3600×2400×40 for "0.1").
	NX, NY, NZ int
	// StepsPerDay is the number of baroclinic timesteps per simulated
	// day.
	StepsPerDay int
	// CGItersPerStep is the conjugate-gradient iteration count of each
	// barotropic solve.
	CGItersPerStep int
	// ChronopoulosGear selects the single-reduction CG variant (half the
	// Allreduce calls).
	ChronopoulosGear bool
	// SimSteps is how many baroclinic+barotropic step pairs to simulate
	// (0 means 1, the classic single-slice proxy). Multi-step runs exist
	// so checkpoint flushes interleave with the following steps' traffic;
	// reported per-day costs are scaled from the per-step mean.
	SimSteps int
	// Checkpoint, when non-nil, is the checkpoint writer (internal/io);
	// every CheckpointEvery steps the ranks drain the previous flush and
	// issue a write-behind checkpoint of CheckpointBytes per rank.
	Checkpoint *ckpt.Writer
	// CheckpointEvery is the step cadence between checkpoints; 0 disables
	// checkpointing even with a Writer set.
	CheckpointEvery int
	// CheckpointBytes is the per-rank checkpoint payload; 0 derives it
	// from the block (8 bytes × 4 prognostic fields × bx×by×NZ).
	CheckpointBytes int64
}

// TenthDegree returns the paper's 0.1-degree benchmark configuration.
func TenthDegree() Benchmark {
	return Benchmark{
		NX: 3600, NY: 2400, NZ: 40,
		StepsPerDay:    192,
		CGItersPerStep: 120,
	}
}

// Calibration constants for the compute model.
const (
	// baroclinicFlopsPerPoint is per 3-D grid point per step; stencil
	// dynamics with ~15% of peak achievable.
	baroclinicFlopsPerPoint = 600
	baroclinicBytesPerPoint = 180
	baroclinicFlopEff       = 0.15
	// barotropicFlopsPerPoint is per 2-D point per CG iteration (5-point
	// SpMV plus vector updates).
	barotropicFlopsPerPoint = 16
	barotropicBytesPerPoint = 60
	// haloWidth is the ghost-cell depth of POP's stencils.
	haloWidth = 2
	// simCGIters is how many CG iterations are actually simulated per
	// step; the measured cost is scaled to CGItersPerStep (cost is linear
	// in iterations, so this is exact for the model).
	simCGIters = 8
)

// Result is one point of Figures 17–19.
type Result struct {
	Tasks   int
	Sockets int
	// SimYearsPerDay is the throughput metric of Figures 17–18.
	SimYearsPerDay float64
	// BaroclinicSecPerDay / BarotropicSecPerDay are the phase costs of
	// Figure 19 (wall seconds per simulated day).
	BaroclinicSecPerDay float64
	BarotropicSecPerDay float64
	// ReductionsPerIter records the Allreduce count per CG iteration (2
	// for standard CG, 1 for Chronopoulos–Gear).
	ReductionsPerIter int
	// AllreduceSecPerDay is rank 0's time inside MPI_Allreduce per
	// simulated day — the §6.2 quantity that bounds POP's scaling.
	AllreduceSecPerDay float64
	// AllreduceShare is rank 0's Allreduce fraction of the barotropic
	// phase wall time (Allreduce only occurs there, so the phase share is
	// exact); the Figure 19 explanation as a single number.
	AllreduceShare float64
}

// decompose splits tasks into a px×py grid matching the domain aspect.
func decompose(tasks, nx, ny int) (px, py int) {
	best := 1 << 30
	px, py = 1, tasks
	for p := 1; p <= tasks; p++ {
		if tasks%p != 0 {
			continue
		}
		q := tasks / p
		// Blocks should be as square as possible in grid units.
		bx := nx / p
		by := ny / q
		d := bx - by
		if d < 0 {
			d = -d
		}
		if d < best && bx > 0 && by > 0 {
			best, px, py = d, p, q
		}
	}
	return px, py
}

// Run executes the proxy for one (machine, mode, tasks) point.
func Run(m machine.Machine, mode machine.Mode, tasks int, b Benchmark) Result {
	if tasks < 1 {
		panic(fmt.Sprintf("pop: tasks = %d", tasks))
	}
	return RunOn(core.NewSystem(m, mode, tasks), b)
}

// RunOn executes the proxy on a caller-prepared system (for instance one
// with telemetry, critical-path recording, or a checkpoint writer); the
// machine, mode and task count come from the system.
func RunOn(sys *core.System, b Benchmark) Result {
	m, mode, tasks := sys.M, sys.Mode, sys.NumTasks
	px, py := decompose(tasks, b.NX, b.NY)
	bx := (b.NX + px - 1) / px
	by := (b.NY + py - 1) / py

	reductionsPerIter := 2
	if b.ChronopoulosGear {
		reductionsPerIter = 1
	}
	steps := b.SimSteps
	if steps < 1 {
		steps = 1
	}
	ckptBytes := b.CheckpointBytes
	if ckptBytes == 0 {
		ckptBytes = 8 * 4 * int64(bx) * int64(by) * int64(b.NZ)
	}

	var tBaroclinic, tBarotropic, tAllreduce, allreduceShare float64

	elapsed := mpi.Run(sys, mpi.Auto, func(p *mpi.P) {
		me := p.Rank()
		myX := me % px
		myY := me / px
		north := wrap(myX, myY+1, px, py)
		south := wrap(myX, myY-1, px, py)
		east := wrap(myX+1, myY, px, py)
		west := wrap(myX-1, myY, px, py)

		for st := 0; st < steps; st++ {
			p.SetIter(st)
			start := p.Now()

			// --- Baroclinic phase: 3-D stencil advance + halo exchange. ---
			pts3 := float64(bx) * float64(by) * float64(b.NZ)
			tc := p.PhaseBegin()
			p.Compute(core.Work{
				Flops:       pts3 * baroclinicFlopsPerPoint,
				FlopEff:     baroclinicFlopEff,
				StreamBytes: pts3 * baroclinicBytesPerPoint,
				LoopLen:     bx,
			})
			p.PhaseEnd("compute", tc)
			// Halo: two exchanges (predictor/corrector), four neighbours each,
			// ghost width × face area × nz × 8 bytes.
			ewBytes := int64(by) * int64(b.NZ) * haloWidth * 8
			nsBytes := int64(bx) * int64(b.NZ) * haloWidth * 8
			th := p.PhaseBegin()
			for ex := 0; ex < 2; ex++ {
				reqs := []*mpi.Request{
					p.Isend(east, 1, ewBytes), p.Isend(west, 2, ewBytes),
					p.Isend(north, 3, nsBytes), p.Isend(south, 4, nsBytes),
					p.Irecv(west, 1), p.Irecv(east, 2),
					p.Irecv(south, 3), p.Irecv(north, 4),
				}
				p.Wait(reqs...)
			}
			p.PhaseEnd("halo", th)
			p.Barrier()
			if me == 0 {
				tBaroclinic += p.Now() - start
			}
			mid := p.Now()

			// --- Barotropic phase: CG on the 2-D surface system. ---
			barotropicPhase(p, px, py, bx, by, reductionsPerIter)
			if me == 0 {
				tBarotropic += p.Now() - mid
			}
			// Checkpoint cadence: the epoch drains the previous write-behind
			// flush, then issues this one; the flush traffic overlaps the
			// following steps' halo and Allreduce traffic.
			if b.Checkpoint != nil && b.CheckpointEvery > 0 && (st+1)%b.CheckpointEvery == 0 {
				b.Checkpoint.CheckpointAsync(p, ckptBytes)
			}
		}
		if b.Checkpoint != nil && b.CheckpointEvery > 0 {
			b.Checkpoint.Drain(p)
		}
		if me == 0 {
			tAllreduce = p.Profile().Seconds[mpi.OpAllreduce]
			allreduceShare = p.Profile().Share(mpi.OpAllreduce, tBarotropic)
		}
	})
	_ = elapsed
	tBaroclinic /= float64(steps)
	tBarotropic /= float64(steps)
	tAllreduce /= float64(steps)

	// Scale the simulated slice to a full model day.
	baroDay := tBaroclinic * float64(b.StepsPerDay)
	barotDay := tBarotropic * float64(b.StepsPerDay) * float64(b.CGItersPerStep) / simCGIters
	secPerDay := baroDay + barotDay
	return Result{
		Tasks:               tasks,
		Sockets:             m.Nodes(mode, tasks),
		SimYearsPerDay:      86400.0 / secPerDay / 365.0,
		BaroclinicSecPerDay: baroDay,
		BarotropicSecPerDay: barotDay,
		ReductionsPerIter:   reductionsPerIter,
		AllreduceSecPerDay:  tAllreduce * float64(b.StepsPerDay) * float64(b.CGItersPerStep) / simCGIters,
		AllreduceShare:      allreduceShare,
	}
}

// barotropicPhase runs the simulated CG slice: simCGIters iterations of
// SpMV-style compute, a 1-deep 2-D halo exchange, and the latency-bound
// inner-product Allreduce(s), closed by a barrier. Shared between Run and
// RunBarotropic so the critical-path experiment analyses exactly the
// phase the full proxy runs.
func barotropicPhase(p *mpi.P, px, py, bx, by, reductionsPerIter int) {
	me := p.Rank()
	myX := me % px
	myY := me / px
	north := wrap(myX, myY+1, px, py)
	south := wrap(myX, myY-1, px, py)
	east := wrap(myX+1, myY, px, py)
	west := wrap(myX-1, myY, px, py)

	pts2 := float64(bx) * float64(by)
	for it := 0; it < simCGIters; it++ {
		// SpMV + vector ops.
		tc := p.PhaseBegin()
		p.Compute(core.Work{
			Flops:       pts2 * barotropicFlopsPerPoint,
			FlopEff:     baroclinicFlopEff,
			StreamBytes: pts2 * barotropicBytesPerPoint,
			LoopLen:     bx,
		})
		p.PhaseEnd("compute", tc)
		// Halo of the 2-D operator (1-deep).
		th := p.PhaseBegin()
		reqs := []*mpi.Request{
			p.Isend(east, 5, int64(by)*8), p.Isend(west, 6, int64(by)*8),
			p.Isend(north, 7, int64(bx)*8), p.Isend(south, 8, int64(bx)*8),
			p.Irecv(west, 5), p.Irecv(east, 6),
			p.Irecv(south, 7), p.Irecv(north, 8),
		}
		p.Wait(reqs...)
		p.PhaseEnd("halo", th)
		// Inner products: the latency-bound Allreduce(s).
		for rcount := 0; rcount < reductionsPerIter; rcount++ {
			p.Allreduce(mpi.Sum, 16, nil)
		}
	}
	p.Barrier()
}

// RunBarotropic executes only the barotropic CG phase of b on a
// caller-prepared system (for instance one with critical-path recording
// enabled) and returns the simulated phase seconds. The decomposition and
// iteration structure match Run exactly.
func RunBarotropic(sys *core.System, b Benchmark) float64 {
	tasks := sys.NumTasks
	px, py := decompose(tasks, b.NX, b.NY)
	bx := (b.NX + px - 1) / px
	by := (b.NY + py - 1) / py
	reductionsPerIter := 2
	if b.ChronopoulosGear {
		reductionsPerIter = 1
	}
	return mpi.Run(sys, mpi.Auto, func(p *mpi.P) {
		barotropicPhase(p, px, py, bx, by, reductionsPerIter)
	})
}

func wrap(x, y, px, py int) int {
	x = (x + px) % px
	y = (y + py) % py
	return y*px + x
}
