// Package core assembles the full simulated Cray XT3/XT4 system (and the
// comparison platforms): compute nodes with shared per-socket memory
// resources, the interconnect fabric, task placement in single-node (SN) or
// virtual-node (VN) mode, and the roofline-style compute-cost model used by
// every benchmark and application proxy.
//
// This package is the paper's "system under test" in executable form: an
// experiment creates a System for a machine/mode/task-count triple, runs a
// program on its ranks, and reads simulated wall-clock time.
package core

import (
	"fmt"
	"math/rand"

	"xtsim/internal/critpath"
	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
)

// Node is one compute node: a socket whose cores share the memory system.
// The two processor-sharing resources embody the paper's central
// observation — streaming bandwidth and random-access throughput are
// per-socket, not per-core, so EP-mode and VN-mode runs halve the per-core
// share (Figures 6, 7).
type Node struct {
	ID int
	// Stream is the socket's achievable streaming bandwidth in bytes/s,
	// shared between concurrently streaming cores.
	Stream *sim.PSResource
	// Random is the socket's random-access throughput in updates/s,
	// shared between cores performing latency-bound access.
	Random *sim.PSResource
}

// System is one experiment instance: a machine, a run mode, and a set of
// MPI tasks placed onto nodes.
type System struct {
	Eng    *sim.Engine
	M      machine.Machine
	Mode   machine.Mode
	Fabric *network.Fabric
	Nodes  []*Node

	// NumTasks is the number of MPI tasks (ranks).
	NumTasks int
	// TasksPerNode is 1 in SN mode and CoresPerNode in VN mode.
	TasksPerNode int
	// placement maps task id -> slot (node*TasksPerNode + core). The
	// default is the identity (rank order fills nodes, the ALPS default
	// on the XT); SetPlacement installs an alternative.
	placement []int

	// NoiseAmp optionally adds OS-jitter to compute phases as a uniform
	// multiplicative perturbation in [0, NoiseAmp]. Catamount was designed
	// to eliminate jitter (§2), so XT experiments leave this zero; it
	// exists for the full-Linux counterfactual ablation. It constrains the
	// engine, so set it before mpi.NewWorld/Run.
	NoiseAmp float64
	// tel, cp and tl are the observers' requests and state, set by
	// EnableTelemetry, EnableCritPath and EnableTimeline. Plan turns them
	// into one probe per engine domain (timeline.Probe) that the fabric,
	// any attached filesystem and the MPI runtime record through; with all
	// three off every instrumented hot path pays one nil check and nothing
	// else. Only the timeline composes with the sharded scheduler: each
	// domain samples into its own collector and Run folds them
	// deterministically after the terminal window barrier (DESIGN.md §4k).
	tel bool
	cp  *critpath.Recorder
	tl  *timeline.Recorder
	// Rng drives noise; owned by the experiment for reproducibility.
	Rng *rand.Rand

	// req and shards are the fast-path requests EnableParallel and
	// EnableHybrid recorded. Plan decides them once (admission.go): from
	// then on planned is set, par is the sharded engine (nil otherwise;
	// see parallel.go), hybTier the hybrid tier (HybridOff = DES; see
	// hybrid.go), and the reasons say why a request declined. globalColl
	// marks runs whose collectives meet at engine-global points.
	req        engines
	shards     int
	planned    bool
	globalColl bool
	par        *parRun
	parReason  string
	hybTier    HybridTier
	hybReason  string

	// io is the I/O subsystem (a lustre filesystem, under a checkpoint
	// writer or not) registered via AttachIO, nil when none is; its
	// MDS/OSS/OST resources are engine-global shared state (an admission
	// row).
	io IOSystem
}

// IOSystem is an I/O subsystem attached to a system (a Lustre filesystem,
// via lustre.Attach), as the engine plan sees it.
type IOSystem interface {
	// OSTs reports the object-storage-target count.
	OSTs() int
	// InstallProbe hands the filesystem the serial domain's probe.
	InstallProbe(p *timeline.Probe)
	// TelemetryReport supplies the I/O section of System.TelemetryReport.
	TelemetryReport(horizon float64) *telemetry.IOReport
}

// NewSystem builds a system for nTasks MPI tasks on machine m in the given
// mode. In SN mode each task has a node to itself; in VN mode tasks pack
// CoresPerNode to a node. Single-core machines treat both modes
// identically.
func NewSystem(m machine.Machine, mode machine.Mode, nTasks int) *System {
	return NewSystemSIO(m, mode, nTasks, 0)
}

// NewSystemSIO builds a system whose torus also carries sioNodes reserved
// service-I/O nodes at the top of the node-id range (network.NewWithSIO).
// Compute tasks place onto nodes [0, nNodes) exactly as in NewSystem; the
// Lustre layer places its OSS servers on the SIO partition, so checkpoint
// and I/O traffic crosses real torus links and contends with compute-phase
// messages.
func NewSystemSIO(m machine.Machine, mode machine.Mode, nTasks, sioNodes int) *System {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if nTasks < 1 {
		panic(fmt.Sprintf("core: nTasks = %d", nTasks))
	}
	if sioNodes < 0 {
		panic(fmt.Sprintf("core: sioNodes = %d", sioNodes))
	}
	tasksPerNode := 1
	if mode == machine.VN && m.CoresPerNode > 1 {
		tasksPerNode = m.CoresPerNode
	}
	nNodes := (nTasks + tasksPerNode - 1) / tasksPerNode
	if nNodes+sioNodes > m.TotalNodes {
		panic(fmt.Sprintf("core: %d tasks in %v mode plus %d SIO nodes needs %d nodes but %s has %d",
			nTasks, mode, sioNodes, nNodes+sioNodes, m.Name, m.TotalNodes))
	}

	eng := sim.NewEngine()
	sys := &System{
		Eng:          eng,
		M:            m,
		Mode:         mode,
		Fabric:       network.NewWithSIO(eng, m, nNodes, sioNodes),
		NumTasks:     nTasks,
		TasksPerNode: tasksPerNode,
		Rng:          rand.New(rand.NewSource(1)),
	}
	sys.Nodes = make([]*Node, sys.Fabric.Tor.Nodes())
	for i := range sys.Nodes {
		sys.Nodes[i] = &Node{
			ID:     i,
			Stream: sim.NewPSResource(eng, m.Mem.StreamBW()),
			Random: sim.NewPSResource(eng, m.Mem.RandomRate()),
		}
	}
	return sys
}

// EnableTelemetry requests the observability layer for this system: the
// engine plan installs the fabric's and filesystem's byte counters, and
// each World's MPI statistics come up in the probe with it. Idempotent;
// call before mpi.NewWorld/Run. Returns the system for chaining.
func (s *System) EnableTelemetry() *System {
	s.configure("EnableTelemetry")
	s.tel = true
	return s
}

// TelemetryReport assembles the system's telemetry over [0, now], with the
// MPI section of the latest World; nil unless EnableTelemetry was called.
func (s *System) TelemetryReport() *telemetry.Report {
	if !s.tel {
		return nil
	}
	horizon := s.Eng.Now()
	rep := &telemetry.Report{
		SchemaVersion:  telemetry.SchemaVersion,
		HorizonSeconds: horizon,
		Fabric:         s.Fabric.TelemetryReport(horizon),
		MPI:            s.Fabric.Probe(0).MPIReport(),
	}
	if s.io != nil {
		rep.IO = s.io.TelemetryReport(horizon)
	}
	return rep
}

// EnableTimeline requests the phase-resolved flight recorder: fabric and
// OST reservations are sampled into fixed simulated-time bins,
// applications may emit phase spans via the MPI layer, and TimelineReport
// joins the two. Composable with the sharded scheduler (per-domain
// collectors, folded deterministically after the run) and with
// telemetry/critpath on the serial engine; the hybrid fast path declines
// it. Idempotent; call before mpi.NewWorld/Run. Returns the system for
// chaining.
func (s *System) EnableTimeline() *System {
	s.configure("EnableTimeline")
	if s.tl == nil {
		s.tl = timeline.NewRecorder(s.NumTasks)
	}
	return s
}

// TimelineReport folds the flight recorder (a no-op on serial runs) and
// assembles the deterministic timeline export over [0, horizon]; nil
// unless EnableTimeline was called. horizon is normally the makespan Run
// returned. Call after Run completes.
func (s *System) TimelineReport(horizon float64) *timeline.Report {
	if s.tl == nil {
		return nil
	}
	return s.tl.Report(horizon)
}

// EnableCritPath requests causal recording for this system with a
// critpath.DefaultCap recorder: through the engine plan's probe the fabric
// records happens-before edges and the MPI runtime's ranks record their
// blocked segments. Composable with EnableTelemetry. Idempotent; call
// before mpi.NewWorld/Run. Returns the system for chaining.
func (s *System) EnableCritPath() *System {
	s.configure("EnableCritPath")
	if s.cp == nil {
		s.cp = critpath.NewRecorder(s.NumTasks, 0)
	}
	return s
}

// AttachIO registers an I/O subsystem (a Lustre filesystem, typically via
// lustre.Attach) with the system. The filesystem's MDS FIFO queue and
// OSS/OST processor-sharing resources are engine-global, so the admission
// table keeps such a system on the serial DES, and the engine plan installs
// the serial probe into it. Call before mpi.NewWorld/Run.
func (s *System) AttachIO(io IOSystem) {
	s.configure("AttachIO")
	s.io = io
}

// CritPathReport walks the recorded causal graph backwards from the
// current simulated time and returns the critical-path attribution; nil
// unless EnableCritPath was called. Call after Run completes.
func (s *System) CritPathReport() *critpath.Report {
	if s.cp == nil {
		return nil
	}
	return s.cp.Analyze(critpath.AnalyzeOptions{
		Makespan:  s.Eng.Now(),
		LinkLabel: s.Fabric.LinkLabel,
	})
}

// Place maps a task id to its (node, core).
func (s *System) Place(task int) (node, coreIdx int) {
	if task < 0 || task >= s.NumTasks {
		panic(fmt.Sprintf("core: task %d out of range [0,%d)", task, s.NumTasks))
	}
	slot := task
	if s.placement != nil {
		slot = s.placement[task]
	}
	return slot / s.TasksPerNode, slot % s.TasksPerNode
}

// SetPlacement installs a task-to-slot permutation (slot = node index ×
// TasksPerNode + core index). Placement quality mattered operationally on
// the XT machines: the paper notes PTRANS variance "due to job layout
// topology" (§5.1.3). Must be called before Run; perm must be a
// permutation of [0, NumTasks).
func (s *System) SetPlacement(perm []int) {
	if len(perm) != s.NumTasks {
		panic(fmt.Sprintf("core: placement length %d != %d tasks", len(perm), s.NumTasks))
	}
	seen := make([]bool, s.NumTasks)
	for _, slot := range perm {
		if slot < 0 || slot >= s.NumTasks || seen[slot] {
			panic(fmt.Sprintf("core: placement is not a permutation (slot %d)", slot))
		}
		seen[slot] = true
	}
	s.placement = append([]int(nil), perm...)
}

// TaskMemBytes reports the memory available to one task: the node memory
// divided by the tasks sharing it (VN mode splits memory evenly — §2).
func (s *System) TaskMemBytes() int64 {
	nodeMem := s.M.Mem.BytesPerCore * int64(s.M.CoresPerNode)
	return nodeMem / int64(s.TasksPerNode)
}

// Rank is one MPI task's execution context inside the simulation.
type Rank struct {
	sys *System
	// Proc is the rank's process: on the DES it lives on its node's
	// engine; on the hybrid fast path it is a coroutine on the run's
	// private run queue, whose clock never moves (see hybrid.go).
	Proc *sim.Proc
	// ID is the MPI rank.
	ID int
	// NodeID and Core locate the task on the machine.
	NodeID int
	Core   int
	// hc is the rank's private clock on the hybrid fast path, nil for
	// DES ranks (see hybrid.go).
	hc *HybClock
}

// Run spawns body for every task and runs the simulation to completion,
// returning the simulated makespan in seconds. The first Run (or
// mpi.NewWorld) plans the engine; later ones re-check it (see Plan). On
// the hybrid fast path the makespan is the latest rank clock.
func (s *System) Run(body func(r *Rank)) sim.Time {
	s.Plan(false)
	var hyb *sim.Engine
	var hybEnd sim.Time
	if s.hybTier != HybridOff {
		hyb = sim.NewEngine()
	}
	for t := 0; t < s.NumTasks; t++ {
		node, coreIdx := s.Place(t)
		r := &Rank{sys: s, ID: t, NodeID: node, Core: coreIdx}
		// In parallel mode each rank lives on its node's slab engine; in
		// serial mode EngFor is the system engine for every node.
		eng := s.EngFor(node)
		if hyb != nil {
			eng, r.hc = hyb, &HybClock{}
		}
		eng.Spawn(fmt.Sprintf("rank%d", t), func(p *sim.Proc) {
			r.Proc = p
			body(r)
			if r.hc != nil && r.hc.T > hybEnd {
				hybEnd = r.hc.T
			}
			if s.cp != nil {
				// The analyzer starts its backward walk at the
				// latest-finishing rank and counts trailing idle as slack.
				s.cp.SetFinish(r.ID, p.Now())
			}
		})
	}
	if hyb != nil {
		hyb.Run()
		return hybEnd
	}
	if s.par != nil {
		end := s.par.sh.Run()
		s.Fabric.FoldParallel()
		if s.tl != nil {
			// Workers have joined (Run returned after the terminal window
			// barrier), so the per-domain collectors are quiescent; fold
			// them into the serial shape the exports read.
			s.tl.Fold()
		}
		return end
	}
	return s.Eng.Run()
}

// System returns the owning system.
func (r *Rank) System() *System { return r.sys }

// Node returns the node this rank runs on.
func (r *Rank) Node() *Node { return r.sys.Nodes[r.NodeID] }

// Now reports the current simulated time.
func (r *Rank) Now() sim.Time {
	if r.hc != nil {
		return r.hc.T
	}
	return r.Proc.Now()
}

// Work describes one compute phase in roofline terms. The three demand
// classes map onto the HPCC locality taxonomy the paper uses (§5.1):
// temporal-locality work is flop-bound, spatial-locality work is
// stream-bound, and no-locality work is latency-bound.
type Work struct {
	// Flops is the floating-point operation count.
	Flops float64
	// FlopEff is the achievable fraction of per-core peak for this kernel
	// (≈ 0.88 for DGEMM, much lower for sparse or irregular code). Zero
	// means "use the machine's DGEMM efficiency".
	FlopEff float64
	// StreamBytes is the DRAM traffic with streaming (prefetchable)
	// access, charged against the socket's shared streaming bandwidth.
	StreamBytes float64
	// RandomAccesses is the count of independent latency-bound accesses,
	// charged against the socket's shared random-access throughput.
	RandomAccesses float64
	// LoopLen, when nonzero on a vector machine, derates flop efficiency
	// for short vector lengths (the paper notes vector lengths below 128
	// limiting X1E/ES performance at 960 tasks in Figure 15).
	LoopLen int
}

// flopTime returns the pure compute time of w on machine m.
func (w Work) flopTime(m machine.Machine) float64 {
	if w.Flops <= 0 {
		return 0
	}
	eff := w.FlopEff
	if eff == 0 {
		eff = m.CPU.DGEMMEff
	}
	if m.CPU.VectorLen > 0 && w.LoopLen > 0 {
		// Hockney-style n½ model: efficiency = n/(n + n½) with n½ of
		// roughly half the hardware vector length.
		nHalf := float64(m.CPU.VectorLen) / 2
		eff *= float64(w.LoopLen) / (float64(w.LoopLen) + nHalf)
	}
	rate := m.CPU.PeakGF() * 1e9 * eff
	return w.Flops / rate
}

// Compute executes one compute phase: the flop time passes unshared (each
// core has its own pipelines), while memory demands are served by the
// node's shared resources. The phases are sequential (no overlap), which
// is the conservative non-overlapped roofline; calibration constants
// absorb the difference.
func (r *Rank) Compute(w Work) {
	if r.hc != nil {
		r.hybCompute(w)
		return
	}
	ft := w.flopTime(r.sys.M)
	if r.sys.NoiseAmp > 0 {
		ft *= 1 + r.sys.NoiseAmp*r.sys.Rng.Float64()
	}
	if ft > 0 {
		r.Proc.Wait(ft)
	}
	if w.StreamBytes > 0 {
		r.Node().Stream.Consume(r.Proc, w.StreamBytes)
	}
	if w.RandomAccesses > 0 {
		r.Node().Random.Consume(r.Proc, w.RandomAccesses)
	}
}

// ComputeSeconds blocks the rank for an explicit pre-computed duration;
// used when a proxy has already folded its cost model into seconds.
func (r *Rank) ComputeSeconds(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("core: negative compute time %g", d))
	}
	if r.hc != nil {
		r.hc.T += d
		return
	}
	if d > 0 {
		r.Proc.Wait(d)
	}
}

// EstimateSeconds returns the time Compute would take with no contention
// (all shared resources idle and un-shared). Used by analytic fast paths.
func (r *Rank) EstimateSeconds(w Work) float64 {
	t := w.flopTime(r.sys.M)
	if w.StreamBytes > 0 {
		t += w.StreamBytes / r.sys.M.Mem.StreamBW()
	}
	if w.RandomAccesses > 0 {
		t += w.RandomAccesses / r.sys.M.Mem.RandomRate()
	}
	return t
}
