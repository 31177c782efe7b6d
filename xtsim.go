// This file is the public facade: the handful of types and constructors a
// downstream user needs, re-exported from the internal packages so that
// the common path — build a machine, place tasks, run an MPI program, read
// simulated time, regenerate a paper artifact — never requires spelunking
// the internal tree.
package xtsim

import (
	"io"

	"xtsim/internal/core"
	"xtsim/internal/expt"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// Machine is a complete hardware description (Table 1 parameters plus the
// calibrated model constants). Construct one with the preset functions
// below or modify a preset (see examples/custommachine).
type Machine = machine.Machine

// Mode selects single-node (SN, one task per node) or virtual-node (VN,
// one task per core) execution — the paper's §2 terminology.
type Mode = machine.Mode

// Run modes.
const (
	SN = machine.SN
	VN = machine.VN
)

// Machine presets: the evaluated systems of the paper.
var (
	// XT3 is the original single-core ORNL Cray XT3.
	XT3 = machine.XT3
	// XT3DualCore is the 2006 dual-core upgrade (DDR-400 retained).
	XT3DualCore = machine.XT3DualCore
	// XT4 is the Winter 2006/2007 Cray XT4 (DDR2-667, SeaStar2).
	XT4 = machine.XT4
	// CombinedXT3XT4 is the merged >23k-core system of §3.
	CombinedXT3XT4 = machine.CombinedXT3XT4
	// X1E, EarthSimulator, P690, P575 and SP are the §6 comparison
	// platforms.
	X1E            = machine.X1E
	EarthSimulator = machine.EarthSimulator
	P690           = machine.P690
	P575           = machine.P575
	SP             = machine.SP
	// MachineByName resolves a preset by its figure label ("XT4", …).
	MachineByName = machine.ByName
)

// System is one simulated machine instance with tasks placed on it.
type System = core.System

// Work is a compute phase in roofline terms (flops, streaming bytes,
// latency-bound accesses).
type Work = core.Work

// Rank is one task's execution context (placement + compute model).
type Rank = core.Rank

// NewSystem builds a system for nTasks MPI tasks on machine m in the
// given mode.
func NewSystem(m Machine, mode Mode, nTasks int) *System {
	return core.NewSystem(m, mode, nTasks)
}

// P is one rank's view of an MPI communicator — the object simulated
// programs call Send/Recv/collectives on.
type P = mpi.P

// CollectiveMode selects algorithmic, analytic, or size-based automatic
// collective execution.
type CollectiveMode = mpi.CollectiveMode

// Collective execution modes.
const (
	Auto        = mpi.Auto
	Algorithmic = mpi.Algorithmic
	Analytic    = mpi.Analytic
)

// Reduction operators.
const (
	Sum = mpi.Sum
	Max = mpi.Max
	Min = mpi.Min
)

// RunMPI spawns body on every task of sys and runs the simulation to
// completion, returning the simulated makespan in seconds.
func RunMPI(sys *System, mode CollectiveMode, body func(p *P)) float64 {
	return mpi.Run(sys, mode, body)
}

// Experiment regenerates one artifact of the paper (a table, figure,
// ablation or extension).
type Experiment = expt.Experiment

// Experiments lists every registered experiment in paper order.
func Experiments() []Experiment { return expt.All() }

// RunExperiment regenerates one artifact by id ("table1", "fig8",
// "ablation-vn", …), writing its table to w. short selects the
// reduced-scale sweep.
func RunExperiment(id string, w io.Writer, short bool) error {
	e, err := expt.ByID(id)
	if err != nil {
		return err
	}
	res, err := e.Execute(expt.Options{Short: short})
	if err != nil {
		return err
	}
	return res.Render(w)
}

// ExperimentRunner runs a set of experiments, and their sweep cells,
// concurrently within one worker budget while keeping rendered output
// deterministic and ordered — the engine behind `xtsim -run all -jobs N`.
// See internal/expt.Runner.
type ExperimentRunner = expt.Runner

// ExperimentStatus is one experiment's campaign outcome (structured
// result, error, wall-clock time).
type ExperimentStatus = expt.Status
