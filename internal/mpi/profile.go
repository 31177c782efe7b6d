package mpi

import (
	"fmt"

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
	OpReduce
	OpAllreduce
	OpAlltoall
	OpAllgather
	OpGatherScatter
	// OpIO is file-system time opened by the checkpoint/IO layer through
	// IOBegin/IOEnd. Deliberately placed after the collectives so that
	// Collective()'s OpBarrier..OpGatherScatter range stays intact; MPI
	// traffic issued inside an I/O region (N-to-M aggregation sends) nests
	// under it like a collective's internal p2p.
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
	case OpReduce:
		return "Reduce"
	case OpAllreduce:
		return "Allreduce"
	case OpAlltoall:
		return "Alltoall(v)"
	case OpAllgather:
		return "Allgather"
	case OpGatherScatter:
		return "Gather/Scatter"
	case OpIO:
		return "File I/O"
	}
	return fmt.Sprintf("OpClass(%d)", int(o))
}

// Profile accumulates per-rank blocked time and call counts by operation
// class. Only top-level operations are attributed: the point-to-point
// traffic inside an algorithmic collective counts toward the collective,
// not toward Send/Recv.
type Profile struct {
	Seconds [numOpClasses]float64
	Calls   [numOpClasses]uint64
}

// Total returns the summed MPI time in seconds.
func (p *Profile) Total() float64 {
	t := 0.0
	for _, s := range p.Seconds {
		t += s
	}
	return t
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

// Collective returns time in collective operations only.
func (p *Profile) Collective() float64 {
	t := 0.0
	for op := OpBarrier; op <= OpGatherScatter; op++ {
		t += p.Seconds[op]
	}
	return t
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
// attribute elapsed simulated time and the call count, and only top-level
// collectives and I/O regions become timeline spans.
func (p *P) opEnd(class OpClass, start sim.Time) {
	p.opDepth--
	if start < 0 {
		return
	}
	now := p.task.Now()
	p.prof.Seconds[class] += now - start
	p.prof.Calls[class]++
	if p.c.tel != nil {
		p.c.tel.EndOp(int(class), now-start)
	}
	if class >= OpBarrier && p.c.w.tl != nil {
		// Top-level collectives and I/O regions become timeline phase
		// spans automatically; point-to-point classes stay span-free (the
		// paper's phase vocabulary is compute / halo / collective / ckpt,
		// and Send/Recv volume would swamp the per-rank span cap).
		name := "ckpt"
		if class != OpIO {
			name = class.String()
		}
		w := p.c.w
		w.tl.Span(w.sys.DomainOf(p.task.NodeID), p.task.ID, name, int(p.curIter), start, now)
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
