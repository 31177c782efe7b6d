// Package namd is a performance proxy for NAMD, the message-driven
// molecular dynamics code of §6.3, on the paper's two petascale biological
// systems of roughly one and three million atoms.
//
// The proxy captures the structure that determines NAMD's scaling in
// Figures 20–21: short-range force computation over spatially decomposed
// patches (compute objects migrate, so work stays balanced), neighbour
// force/coordinate messages each step, and the PME long-range solver whose
// 3-D FFT grid limits parallelism — the paper notes the 1M-atom system's
// scaling "is restricted by the size of underlying FFT grid computations".
// MD is predominantly compute-intensive, so the XT4 gains only ≈ 5% over
// the XT3, and VN mode costs ≤ ~10% until task counts grow large.
package namd

import (
	"fmt"

	"xtsim/internal/core"
	"xtsim/internal/kernels"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// System describes a molecular system.
type System struct {
	// Atoms is the particle count.
	Atoms int
	// FFTGrid is the PME charge-grid edge (grid³ total points).
	FFTGrid int
}

// OneMillion returns the ~1M-atom benchmark (STMV-class virus system).
func OneMillion() System { return System{Atoms: 1_000_000, FFTGrid: 128} }

// ThreeMillion returns the ~3M-atom benchmark.
func ThreeMillion() System { return System{Atoms: 3_000_000, FFTGrid: 192} }

// Calibration constants.
const (
	// flopsPerAtom per step for short-range nonbonded forces (cutoff
	// pairlists average a few hundred pairs per atom).
	flopsPerAtom = 4500
	namdFlopEff  = 0.22 // tuned inner loops; mostly cache-resident
	bytesPerAtom = 150  // pairlist and coordinate streaming
	// neighbourMsgs/neighbourBytes: per-step patch-boundary exchanges.
	neighbourMsgs  = 8
	neighbourBytes = 12000
	// pmeFraction of FFT-grid work per participating task; PME
	// parallelism is capped by grid planes.
	pmeFlopsPerPoint = 40
)

// Result is one point of Figures 20–21.
type Result struct {
	Tasks   int
	Sockets int
	// SecondsPerStep is the time per MD simulation timestep — the Y axis
	// of Figures 20–21.
	SecondsPerStep float64
}

// Run executes one timestep of the proxy.
func Run(m machine.Machine, mode machine.Mode, tasks int, sys System) Result {
	if tasks < 1 {
		panic(fmt.Sprintf("namd: tasks = %d", tasks))
	}
	// PME parallelism: pencil decomposition caps useful ranks at grid².
	// In practice NAMD uses ~grid planes × a small factor; we cap at
	// 2×grid planes.
	pmeRanks := 2 * sys.FFTGrid
	if pmeRanks > tasks {
		pmeRanks = tasks
	}
	gridPts := float64(sys.FFTGrid) * float64(sys.FFTGrid) * float64(sys.FFTGrid)

	simSys := core.NewSystem(m, mode, tasks)
	elapsed := mpi.Run(simSys, mpi.Auto, func(p *mpi.P) {
		me := p.Rank()
		n := p.Size()

		// Short-range forces on this task's share of atoms. Charm++
		// overdecomposition keeps this balanced.
		atomsShare := float64(sys.Atoms) / float64(n)
		p.Compute(core.Work{
			Flops:       atomsShare * flopsPerAtom,
			FlopEff:     namdFlopEff,
			StreamBytes: atomsShare * bytesPerAtom,
			LoopLen:     256,
		})

		// Patch-boundary coordinate/force messages to spatial neighbours.
		var reqs []*mpi.Request
		for k := 1; k <= neighbourMsgs/2; k++ {
			dst := (me + k) % n
			src := (me - k + n) % n
			reqs = append(reqs, p.Isend(dst, k, neighbourBytes))
			reqs = append(reqs, p.Irecv(src, k))
		}
		p.Wait(reqs...)

		// PME: only pmeRanks participate in the FFT grid work and its
		// transposes; everyone else proceeds (message-driven overlap)
		// but the step completes at the barrier.
		if me < pmeRanks {
			pme := p.Split(1, me)
			ptsShare := gridPts / float64(pmeRanks)
			// Pencil decomposition: transposes are all-to-all only within
			// a pencil group, not across the whole PME communicator.
			groupSize := 64
			if groupSize > pmeRanks {
				groupSize = pmeRanks
			}
			pencil := pme.Split(10+pme.Rank()/groupSize, pme.Rank()%groupSize)
			// Forward + inverse 3-D FFT: two transpose rounds each.
			for pass := 0; pass < 2; pass++ {
				pme.Compute(core.Work{
					Flops:       kernels.FFTFlops(int(ptsShare)) * 3, // 3 1-D passes
					FlopEff:     fftEff,
					StreamBytes: ptsShare * 32,
					LoopLen:     sys.FFTGrid,
				})
				pencil.Alltoall(int64(16 * ptsShare / float64(groupSize)))
				pencil.Alltoall(int64(16 * ptsShare / float64(groupSize)))
			}
			// Per-grid-point charge spread / force interpolation.
			pme.Compute(core.Work{
				Flops:   ptsShare * pmeFlopsPerPoint,
				FlopEff: namdFlopEff,
			})
		} else {
			p.Split(2, me) // non-PME ranks: matching collective call
		}
		p.Barrier()
	})

	return Result{
		Tasks:          tasks,
		Sockets:        m.Nodes(mode, tasks),
		SecondsPerStep: elapsed,
	}
}

const fftEff = 0.164
