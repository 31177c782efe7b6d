// Package s3d is a performance proxy for the S3D direct numerical
// simulation combustion solver of §6.4: a 3-D structured Cartesian mesh
// decomposed in 3-D over MPI tasks, advanced by a six-stage fourth-order
// explicit Runge–Kutta method with eighth-order finite differences
// (nine-point stencils → four ghost planes) and tenth-order filters
// (eleven-point stencils → five ghost planes).
//
// S3D communicates only with nearest neighbours via non-blocking ghost
// exchanges (collectives appear only in rare diagnostics), so it weak-
// scales almost perfectly — Figure 22 — and its SN/VN gap is pure memory
// contention: one task per node and two tasks per node on *different*
// nodes take the same time, while two tasks sharing a node run ≈ 30%
// slower (§6.4).
package s3d

import (
	"fmt"

	"xtsim/internal/core"
	ckpt "xtsim/internal/io"
	"xtsim/internal/kernels"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// Benchmark describes the S3D weak-scaling configuration.
type Benchmark struct {
	// PointsPerEdge is the per-task subdomain edge (50 in the paper's
	// weak-scaling test: 50³ grid points per MPI task).
	PointsPerEdge int
	// Variables is the number of field variables exchanged in ghost
	// zones and advanced by the integrator (momentum, energy, species).
	Variables int
	// RKStages is the Runge–Kutta stage count (six in §6.4).
	RKStages int
	// Grid, when non-zero, fixes the px×py×pz task decomposition instead
	// of the automatic near-cubic factorisation. The product must equal
	// the task count. Aligning it with the machine's torus dimensions
	// makes every ghost exchange a single-hop transfer on a link no other
	// rank routes over — the placement the hybrid fast path's exact tier
	// requires (DESIGN.md §4i).
	Grid [3]int
	// Steps is the number of RK time steps to advance (0 means 1, the
	// classic single-step proxy). Multi-step runs exist so checkpoint
	// flushes can genuinely interleave with the following steps' traffic.
	Steps int
	// Checkpoint, when non-nil, is the checkpoint writer (internal/io);
	// every CheckpointEvery steps the ranks drain the previous flush and
	// issue a write-behind checkpoint of CheckpointBytes per rank.
	Checkpoint *ckpt.Writer
	// CheckpointEvery is the step cadence between checkpoints; 0 disables
	// checkpointing even with a Writer set.
	CheckpointEvery int
	// CheckpointBytes is the per-rank checkpoint payload; 0 derives it
	// from the subdomain (8 bytes × Variables × PointsPerEdge³ — the full
	// field state).
	CheckpointBytes int64
}

// Weak50 returns the paper's weak-scaling benchmark: 50³ points per task.
func Weak50() Benchmark {
	return Benchmark{PointsPerEdge: 50, Variables: 12, RKStages: 6}
}

// Calibration constants. The split between flop and memory demand is set
// so that two tasks sharing a socket slow by ≈ 30% — the contention the
// micro-benchmarks identified (§6.4 attributes exactly this).
const (
	// flopsPerPointPerStage: derivatives in three directions plus
	// reaction-rate evaluation for every variable.
	flopsPerPointPerStage = 2170
	s3dFlopEff            = 0.15
	// bytesPerPointPerStage: sweeps over all field variables with little
	// cache reuse between direction passes. Together with the flop term
	// this puts XT4 VN-mode cost ≈ 33 µs/point/step with a ≈ 30% VN
	// sharing penalty (Figure 22 and §6.4).
	bytesPerPointPerStage = 8300
)

// Result is one point of Figure 22.
type Result struct {
	Tasks   int
	Sockets int
	// SecondsPerStep is the simulated wall time per RK step (elapsed over
	// all Steps, checkpoint time included, divided by the step count).
	SecondsPerStep float64
	// CostPerPointUS is Figure 22's metric: core time per grid point per
	// time step, in microseconds.
	CostPerPointUS float64
	// ComputePhaseSeconds is rank 0's mean per-step time over the compute
	// phase alone — the checkpoint/drain/quiesce window is excluded, so
	// comparing it against a no-checkpoint run isolates how much checkpoint
	// traffic slows the steps themselves (network interference).
	ComputePhaseSeconds float64
}

// decompose3 splits tasks into px×py×pz as cubically as possible.
func decompose3(tasks int) (px, py, pz int) {
	best := 1 << 62
	px, py, pz = tasks, 1, 1
	for x := 1; x*x*x <= tasks*4; x++ {
		if tasks%x != 0 {
			continue
		}
		rest := tasks / x
		for y := x; y*y <= rest*2; y++ {
			if rest%y != 0 {
				continue
			}
			z := rest / y
			spread := z - x
			if z >= y && spread >= 0 && spread < best {
				best = spread
				px, py, pz = x, y, z
			}
		}
	}
	return px, py, pz
}

// Run executes the proxy: one full RK step (six stages of derivative
// evaluation with ghost exchanges, then the filter pass).
func Run(m machine.Machine, mode machine.Mode, tasks int, b Benchmark) Result {
	return RunOn(core.NewSystem(m, mode, tasks), b)
}

// RunOn executes the proxy on a caller-prepared system (for instance one
// with telemetry or critical-path recording enabled); machine, mode and
// task count come from the system.
func RunOn(sys *core.System, b Benchmark) Result {
	m, mode, tasks := sys.M, sys.Mode, sys.NumTasks
	if b.PointsPerEdge < 2*kernels.Filter10Width {
		panic(fmt.Sprintf("s3d: subdomain edge %d smaller than filter stencil", b.PointsPerEdge))
	}
	px, py, pz := decompose3(tasks)
	if b.Grid != [3]int{} {
		px, py, pz = b.Grid[0], b.Grid[1], b.Grid[2]
		if px*py*pz != tasks {
			panic(fmt.Sprintf("s3d: grid %dx%dx%d does not hold %d tasks", px, py, pz, tasks))
		}
	}
	n := b.PointsPerEdge
	pts := float64(n) * float64(n) * float64(n)

	// Ghost-exchange payloads: 8th-order derivatives need 4 planes, the
	// filter needs 5 (§6.4's nine- and eleven-point stencils).
	derivBytes := kernels.HaloBytesPerFace(n, n, kernels.Deriv8Width, b.Variables)
	filterBytes := kernels.HaloBytesPerFace(n, n, kernels.Filter10Width, b.Variables)

	steps := b.Steps
	if steps < 1 {
		steps = 1
	}
	ckptBytes := b.CheckpointBytes
	if ckptBytes == 0 {
		ckptBytes = 8 * int64(b.Variables) * int64(n) * int64(n) * int64(n)
	}
	var phaseSeconds float64

	// The proxy is pure point-to-point (ghost exchanges, no collectives),
	// so Algorithmic and Auto are behaviourally identical — but declaring
	// Algorithmic keeps the sharded parallel scheduler engaged at scale
	// (mpi.Run tells the engine plan that Auto runs past the analytic
	// threshold need engine-global collective state).
	elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
		me := p.Rank()
		mx := me % px
		my := (me / px) % py
		mz := me / (px * py)
		neighbour := func(dx, dy, dz int) int {
			x := (mx + dx + px) % px
			y := (my + dy + py) % py
			z := (mz + dz + pz) % pz
			return (z*py+y)*px + x
		}
		// One request list per rank, reused by every exchange: a send and
		// a receive per neighbour.
		reqs := make([]*mpi.Request, 0, 12)
		exchange := func(bytes int64, tagBase int) {
			reqs = reqs[:0]
			dirs := [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
			for d, dir := range dirs {
				nb := neighbour(dir[0], dir[1], dir[2])
				if nb == me {
					continue
				}
				reqs = append(reqs, p.Isend(nb, tagBase+d, bytes))
				reqs = append(reqs, p.Irecv(nb, tagBase+(d^1)))
			}
			p.Wait(reqs...)
		}

		for st := 0; st < steps; st++ {
			p.SetIter(st)
			t0 := p.Now()
			// Six RK stages: ghost exchange then derivative + RHS evaluation.
			for s := 0; s < b.RKStages; s++ {
				th := p.PhaseBegin()
				exchange(derivBytes, 10*s)
				p.PhaseEnd("halo", th)
				tc := p.PhaseBegin()
				p.Compute(core.Work{
					Flops:       pts * flopsPerPointPerStage,
					FlopEff:     s3dFlopEff,
					StreamBytes: pts * bytesPerPointPerStage,
					LoopLen:     n,
				})
				p.PhaseEnd("compute", tc)
			}
			// Filter pass once per step.
			th := p.PhaseBegin()
			exchange(filterBytes, 100)
			p.PhaseEnd("halo", th)
			tc := p.PhaseBegin()
			p.Compute(core.Work{
				Flops:       pts * flopsPerPointPerStage * 0.4,
				FlopEff:     s3dFlopEff,
				StreamBytes: pts * bytesPerPointPerStage * 0.4,
				LoopLen:     n,
			})
			p.PhaseEnd("compute", tc)
			if me == 0 {
				phaseSeconds += p.Now() - t0
			}
			// Checkpoint cadence: the epoch drains the previous
			// write-behind flush, then issues this one. The flush traffic
			// overlaps the following steps' halo exchanges on the torus.
			if b.Checkpoint != nil && b.CheckpointEvery > 0 && (st+1)%b.CheckpointEvery == 0 {
				b.Checkpoint.CheckpointAsync(p, ckptBytes)
			}
		}
		if b.Checkpoint != nil && b.CheckpointEvery > 0 {
			b.Checkpoint.Drain(p)
		}
	})

	return Result{
		Tasks:          tasks,
		Sockets:        m.Nodes(mode, tasks),
		SecondsPerStep: elapsed / float64(steps),
		// Figure 22: core time per grid point per step. Each task is one
		// core, so core-time = elapsed per task.
		CostPerPointUS:      elapsed / float64(steps) / pts * 1e6,
		ComputePhaseSeconds: phaseSeconds / float64(steps),
	}
}
