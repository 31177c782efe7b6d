// Package cam is a performance proxy for the Community Atmosphere Model
// 3.1 with the finite-volume (FV) dycore on the paper's "D-grid"
// benchmark: a 361×576 horizontal grid with 26 vertical levels (§6.1).
//
// The proxy reproduces CAM's performance-defining structure:
//
//   - a compile-time-style choice between a 1-D latitude decomposition
//     (faster at small task counts, limited to 120 tasks by the
//     three-latitudes-per-task rule) and a 2-D decomposition (limited to
//     960 tasks = 120×8);
//   - dynamics advanced in substeps with halo exchanges, plus the two
//     remaps per physics step between the lat-lon and lat-vert
//     decompositions (Alltoallv) that the 2-D decomposition requires;
//   - physics computed per column with an Alltoallv-based load-balancing
//     exchange (the call the paper identifies as 70% of the SN/VN physics
//     difference);
//   - optional OpenMP threading for the IBM and vector platforms of
//     Figure 15 (not available on the XT4 at the time of the paper).
package cam

import (
	"fmt"

	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// Benchmark describes the CAM problem configuration.
type Benchmark struct {
	// NLat, NLon, NLev are the grid extents (361×576×26 for the D-grid).
	NLat, NLon, NLev int
	// PhysicsStepsPerDay is the number of physics steps per simulated
	// day (30-minute physics timestep).
	PhysicsStepsPerDay int
	// DynSubsteps is the number of dynamics substeps per physics step.
	DynSubsteps int
}

// DGrid returns the paper's D-grid benchmark configuration.
func DGrid() Benchmark {
	return Benchmark{
		NLat: 361, NLon: 576, NLev: 26,
		PhysicsStepsPerDay: 48,
		DynSubsteps:        8,
	}
}

// Calibration constants, set so the D-grid benchmark lands near the
// paper's throughput scale (a few simulated years per day around 960 XT4
// tasks). Dynamics runs 8 substeps per physics step, so the per-substep
// dynamics cost makes the dynamics phase ≈ 2× the physics phase
// (Figure 16).
const (
	// Flops per cell per dynamics substep / per physics step.
	dynFlopsPerCell  = 9000
	physFlopsPerCell = 36000
	camFlopEff       = 0.12
	// DRAM bytes per cell: a modest memory share, because §6.1 attributes
	// the SN-over-VN margin "primarily" to degraded MPI performance in VN
	// mode, not to memory contention — the physics columns are compute-
	// heavy and cache-friendly.
	dynBytesPerCell  = 12000
	physBytesPerCell = 6000
	haloWidth        = 3
	// minLatsPerTask / minLevsPerTask are the decomposition limits of
	// §6.1 (≥3 latitudes and ≥3 vertical levels per task).
	minLatsPerTask = 3
	minLevsPerTask = 3
	// ompEff is the parallel efficiency of OpenMP threading within a
	// task on platforms that support it.
	ompEff = 0.85
)

// MaxTasks1D and MaxTasks2D are the decomposition limits for the D-grid
// (361/3 = 120 tasks 1-D; ×8 vertical groups = 960 tasks 2-D).
const (
	MaxTasks1D = 120
	MaxTasks2D = 960
)

// Config is a resolved run configuration.
type Config struct {
	Tasks   int
	Threads int // OpenMP threads per task (1 on XT at paper time)
	// PLat×PVert is the 2-D virtual processor grid (PVert == 1 → 1-D).
	PLat, PVert int
}

// Result is one point of Figures 14–16.
type Result struct {
	Config
	Processors int // Tasks × Threads
	Sockets    int
	// SimYearsPerDay is the throughput metric of Figures 14–15.
	SimYearsPerDay float64
	// DynamicsSecPerDay / PhysicsSecPerDay split the cost per simulated
	// day by computational phase (Figure 16).
	DynamicsSecPerDay float64
	PhysicsSecPerDay  float64
	// PhysicsAlltoallvSecPerDay is rank 0's time inside the physics
	// phase's MPI_Alltoallv calls (load balancing + land-model exchange),
	// the quantity behind §6.1's claim that 70% of the SN/VN physics
	// difference is this one operation.
	PhysicsAlltoallvSecPerDay float64
	// PhysicsAlltoallvShare is that time as a fraction of the physics
	// phase wall time (Profile.Share over the phase) — the §6.1 split as
	// a single number.
	PhysicsAlltoallvShare float64
}

// Decompose picks the virtual processor grid for a task count, mirroring
// the paper's rules: 1-D latitude up to 120 tasks, otherwise lat×vert with
// the smallest vertical factor that keeps ≥3 latitudes per task.
func Decompose(tasks int, b Benchmark) (Config, error) {
	if tasks < 1 {
		return Config{}, fmt.Errorf("cam: tasks = %d", tasks)
	}
	maxLat := b.NLat / minLatsPerTask
	maxVert := b.NLev / minLevsPerTask
	if maxVert > 8 {
		maxVert = 8 // FV remap constraint quoted in §6.1 (120×8 = 960)
	}
	if tasks <= maxLat {
		return Config{Tasks: tasks, Threads: 1, PLat: tasks, PVert: 1}, nil
	}
	for pv := 2; pv <= maxVert; pv++ {
		if tasks%pv != 0 {
			continue
		}
		if pl := tasks / pv; pl <= maxLat {
			return Config{Tasks: tasks, Threads: 1, PLat: pl, PVert: pv}, nil
		}
	}
	return Config{}, fmt.Errorf("cam: no valid decomposition for %d tasks (max %d)", tasks, maxLat*maxVert)
}

// Run executes the proxy for one machine/mode/configuration point.
// threads > 1 is honoured only on machines that support OpenMP.
func Run(m machine.Machine, mode machine.Mode, cfg Config, b Benchmark) Result {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Threads > 1 && !m.SupportsOpenMP {
		panic(fmt.Sprintf("cam: machine %s does not support OpenMP threading", m.Name))
	}
	return RunOn(core.NewSystem(m, mode, cfg.Tasks), cfg, b)
}

// RunOn executes the proxy on a caller-prepared system (for instance one
// with telemetry or timeline recording enabled); machine and mode come
// from the system, whose task count must match cfg.Tasks.
func RunOn(sys *core.System, cfg Config, b Benchmark) Result {
	m, mode := sys.M, sys.Mode
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Tasks != sys.NumTasks {
		panic(fmt.Sprintf("cam: config for %d tasks on a %d-task system", cfg.Tasks, sys.NumTasks))
	}
	threadBoost := 1.0
	if cfg.Threads > 1 {
		threadBoost = float64(cfg.Threads) * ompEff
	}

	cells := float64(b.NLat) * float64(b.NLon) * float64(b.NLev)
	cellsPerTask := cells / float64(cfg.Tasks)
	latsPerTask := b.NLat / cfg.PLat
	levsPerTask := b.NLev / cfg.PVert

	var tDyn, tPhys, tPhysA2AV, physA2AVShare float64

	elapsed := mpi.Run(sys, mpi.Auto, func(p *mpi.P) {
		me := p.Rank()
		n := p.Size()
		north := (me + cfg.PVert) % n // neighbouring latitude band, same vert group
		south := (me - cfg.PVert + n) % n

		start := p.Now()

		// --- Dynamics: substeps with latitude halo exchanges. ---
		haloBytes := int64(float64(haloWidth*b.NLon*levsPerTask) * 8)
		// Vectorisable inner-loop length: the 2-D decomposition shortens
		// the fused latitude×level loops, which is what drops vector
		// lengths below 128 and caps the X1E/ES at 960 tasks (§6.1).
		dynLoopLen := latsPerTask * levsPerTask * 8
		for s := 0; s < b.DynSubsteps; s++ {
			p.SetIter(s)
			tc := p.PhaseBegin()
			p.Compute(core.Work{
				Flops:       cellsPerTask * dynFlopsPerCell / threadBoost,
				FlopEff:     camFlopEff,
				StreamBytes: cellsPerTask * dynBytesPerCell / threadBoost,
				LoopLen:     dynLoopLen,
			})
			p.PhaseEnd("compute", tc)
			th := p.PhaseBegin()
			reqs := []*mpi.Request{
				p.Isend(north, 1, haloBytes), p.Isend(south, 2, haloBytes),
				p.Irecv(south, 1), p.Irecv(north, 2),
			}
			p.Wait(reqs...)
			p.PhaseEnd("halo", th)
		}
		// Two remaps between the lat-lon and lat-vert decompositions per
		// physics step (2-D decomposition only).
		if cfg.PVert > 1 {
			remapSizes := make([]int64, n)
			per := int64(cellsPerTask * 8 * 4 / float64(n)) // 4 remapped state variables
			for i := range remapSizes {
				if i != me {
					remapSizes[i] = per
				}
			}
			p.Alltoallv(remapSizes)
			p.Alltoallv(remapSizes)
		}
		p.Barrier()
		if me == 0 {
			tDyn = p.Now() - start
		}
		mid := p.Now()

		// --- Physics: column work plus load-balancing Alltoallv (and
		// the imbedded land-model exchange the paper mentions). ---
		a2avBefore := p.Profile().Seconds[mpi.OpAlltoall]
		physicsPhase(p, b, cellsPerTask, latsPerTask, threadBoost)
		if me == 0 {
			tPhys = p.Now() - mid
			tPhysA2AV = p.Profile().Seconds[mpi.OpAlltoall] - a2avBefore
			// Share of the phase, via the profile helper (a phase delta
			// rather than the cumulative profile).
			var delta mpi.Profile
			delta.Seconds[mpi.OpAlltoall] = tPhysA2AV
			physA2AVShare = delta.Share(mpi.OpAlltoall, tPhys)
		}
	})
	_ = elapsed

	dynDay := tDyn * float64(b.PhysicsStepsPerDay)
	physDay := tPhys * float64(b.PhysicsStepsPerDay)
	secPerDay := dynDay + physDay
	return Result{
		Config:                    cfg,
		Processors:                cfg.Tasks * cfg.Threads,
		Sockets:                   m.Nodes(mode, cfg.Tasks),
		SimYearsPerDay:            86400.0 / secPerDay / 365.0,
		DynamicsSecPerDay:         dynDay,
		PhysicsSecPerDay:          physDay,
		PhysicsAlltoallvSecPerDay: tPhysA2AV * float64(b.PhysicsStepsPerDay),
		PhysicsAlltoallvShare:     physA2AVShare,
	}
}

// physicsPhase runs one physics step: the load-balancing Alltoallv, the
// per-column compute, the return Alltoallv, and the closing barrier.
// Shared between Run and RunPhysics so the critical-path experiment
// analyses exactly the phase the full proxy runs.
func physicsPhase(p *mpi.P, b Benchmark, cellsPerTask float64, latsPerTask int, threadBoost float64) {
	me := p.Rank()
	n := p.Size()
	lbSizes := make([]int64, n)
	lbPer := int64(cellsPerTask * 8 / 2 / float64(n)) // rebalance half the columns
	for i := range lbSizes {
		if i != me {
			lbSizes[i] = lbPer
		}
	}
	p.Alltoallv(lbSizes)
	tc := p.PhaseBegin()
	p.Compute(core.Work{
		Flops:       cellsPerTask * physFlopsPerCell / threadBoost,
		FlopEff:     camFlopEff,
		StreamBytes: cellsPerTask * physBytesPerCell / threadBoost,
		LoopLen:     latsPerTask * b.NLon / 16, // physics chunks
	})
	p.PhaseEnd("compute", tc)
	p.Alltoallv(lbSizes)
	p.Barrier()
}

// RunPhysics executes only the physics phase of one step for cfg on a
// caller-prepared system (for instance one with critical-path recording
// enabled) and returns the simulated phase seconds. Threading is ignored
// (the XT4 configurations of interest run one thread per task).
func RunPhysics(sys *core.System, cfg Config, b Benchmark) float64 {
	cells := float64(b.NLat) * float64(b.NLon) * float64(b.NLev)
	cellsPerTask := cells / float64(cfg.Tasks)
	latsPerTask := b.NLat / cfg.PLat
	return mpi.Run(sys, mpi.Auto, func(p *mpi.P) {
		physicsPhase(p, b, cellsPerTask, latsPerTask, 1)
	})
}

// BestForProcessors picks the fastest configuration using at most procs
// processors, optimising over thread counts on OpenMP machines — the
// per-point optimisation the paper applies in Figure 15.
func BestForProcessors(m machine.Machine, mode machine.Mode, procs int, b Benchmark) (Result, error) {
	threadChoices := []int{1}
	if m.SupportsOpenMP {
		for t := 2; t <= m.CoresPerNode && t <= 8; t *= 2 {
			threadChoices = append(threadChoices, t)
		}
	}
	var best Result
	found := false
	for _, th := range threadChoices {
		tasks := procs / th
		if tasks < 1 {
			continue
		}
		if tasks > MaxTasks2D {
			tasks = MaxTasks2D
		}
		cfg, err := Decompose(tasks, b)
		if err != nil {
			// Try the nearest decomposable task count below.
			ok := false
			for tt := tasks - 1; tt >= 1; tt-- {
				if c2, err2 := Decompose(tt, b); err2 == nil {
					cfg, ok = c2, true
					break
				}
			}
			if !ok {
				continue
			}
		}
		cfg.Threads = th
		r := Run(m, mode, cfg, b)
		if !found || r.SimYearsPerDay > best.SimYearsPerDay {
			best, found = r, true
		}
	}
	if !found {
		return Result{}, fmt.Errorf("cam: no runnable configuration for %d processors on %s", procs, m.Name)
	}
	return best, nil
}
