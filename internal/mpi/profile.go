package mpi

import (
	"fmt"

	"xtsim/internal/critpath"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
)

// OpClass categorises MPI operations for time attribution. The paper
// explains its application results through exactly this kind of
// accounting: §6.1 attributes 70% of CAM's SN/VN physics difference to
// MPI_Alltoallv, §6.2 pins POP's barotropic ceiling on MPI_Allreduce.
type OpClass int

// Operation classes, in display order.
const (
	OpSend OpClass = iota
	OpRecv
	OpWait
	OpBarrier
	OpBcast
	OpAllreduce
	OpAlltoall
	// OpIO is file-system time opened by the checkpoint/IO layer through
	// IOBegin/IOEnd. It follows the collectives, so opEnd gives its
	// regions timeline spans as it does theirs; MPI traffic issued inside
	// an I/O region (N-to-M aggregation sends) nests under it like a
	// collective's internal p2p.
	OpIO
	numOpClasses
)

// String returns the MPI-style name.
func (o OpClass) String() string {
	switch o {
	case OpSend:
		return "Send"
	case OpRecv:
		return "Recv"
	case OpWait:
		return "Wait"
	case OpBarrier:
		return "Barrier"
	case OpBcast:
		return "Bcast"
	case OpAllreduce:
		return "Allreduce"
	case OpAlltoall:
		return "Alltoall(v)"
	case OpIO:
		return "File I/O"
	}
	return fmt.Sprintf("OpClass(%d)", int(o))
}

// Profile accumulates per-rank blocked time by operation class. Only
// top-level operations are attributed: the point-to-point traffic inside
// an algorithmic collective counts toward the collective, not toward
// Send/Recv.
type Profile struct {
	Seconds [numOpClasses]float64
}

// Share reports the fraction of wall seconds spent blocked in class,
// rounded to 1e-6 (the export resolution shared with telemetry). A
// non-positive wall yields 0, so callers need no guard for empty phases.
// The phase-split experiments use this instead of re-deriving percentages
// ad hoc.
func (p *Profile) Share(class OpClass, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return telemetry.Round6(p.Seconds[class] / wall)
}

// opBegin opens a tracked blocking region and returns its start time, or
// -1 when a surrounding region is already open (nesting depth keeps
// algorithmic collectives from double-counting their internal p2p). The
// class of the outermost open region is remembered so telemetry can
// attribute injected messages to it. Pair with a deferred opEnd; the pair
// replaces a former closure-returning helper so the hot path allocates
// nothing.
func (p *P) opBegin(class OpClass) sim.Time {
	p.opDepth++
	if p.opDepth > 1 {
		return -1
	}
	p.curClass = class
	return p.task.Now()
}

// opEnd closes the region opened by opBegin. Only top-level regions
// attribute elapsed simulated time and reach the domain's probe: telemetry's per-communicator op counters, a timeline
// span for collectives and I/O regions, and an I/O region's io_wait
// segment.
func (p *P) opEnd(class OpClass, start sim.Time) {
	p.opDepth--
	if start < 0 {
		return
	}
	now := p.task.Now()
	p.prof.Seconds[class] += now - start
	pr := p.pool.probe
	if pr == nil {
		return
	}
	pr.EndOp(p.c.id, int(class), now-start)
	if class >= OpBarrier {
		// Top-level collectives and I/O regions become timeline phase
		// spans automatically; point-to-point classes stay span-free (the
		// paper's phase vocabulary is compute / halo / collective / ckpt,
		// and Send/Recv volume would swamp the per-rank span cap).
		name := "ckpt"
		if class != OpIO {
			name = class.String()
		}
		pr.Span(p.task.ID, name, int(p.curIter), start, now)
	}
	if class == OpIO {
		// Storage held the rank, not another rank: an edgeless blocked
		// segment the critical-path analyzer charges to io_wait.
		pr.Blocked(p.task.ID, start, now, int(OpIO), critpath.KindIO, 0)
	}
}

// opNames lists the display name of every operation class, indexed by
// OpClass value; it is the name table handed to the telemetry collector.
func opNames() []string {
	names := make([]string, numOpClasses)
	for op := OpClass(0); op < numOpClasses; op++ {
		names[op] = op.String()
	}
	return names
}

// IOBegin opens a File I/O attribution region for the checkpoint/IO layer
// (internal/io): elapsed simulated time lands in Seconds[OpIO], and MPI
// operations issued inside the region (N-to-M aggregation traffic) nest
// under it instead of double-counting. Pair the returned token with IOEnd.
func (p *P) IOBegin() sim.Time { return p.opBegin(OpIO) }

// IOEnd closes the region opened by IOBegin.
func (p *P) IOEnd(start sim.Time) { p.opEnd(OpIO, start) }

// Profile returns the rank's accumulated MPI time attribution.
func (p *P) Profile() *Profile { return &p.prof }
