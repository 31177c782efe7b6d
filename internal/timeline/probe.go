package timeline

import (
	"xtsim/internal/critpath"
	"xtsim/internal/telemetry"
)

// NICRx is the flat-fabric ejection port class. The probe counts its bytes
// and queue wait for telemetry and charges the wait to the message's link
// stage, but the timeline does not bin it.
const NICRx = numClasses

// Probe is one engine domain's observer: the one pointer the fabric's
// delivery ledger, the Lustre filesystem and the MPI runtime's domain pool
// hold. It is nil while no observer is on, so each instrumented site pays a
// single nil check and allocates nothing (the mpi package's ZeroAllocs
// guards). For every reservation it records:
//
//   - the timeline's integer bins, into the domain's Collector;
//   - telemetry's per-resource payload bytes and queue wait;
//   - on the serial domain, the critical-path stage of the message in
//     flight, so the edge's components sum exactly to its arrive − depart
//     span even though the stages overlap under cut-through pipelining.
//
// For the MPI runtime's ranks on the domain it records each sent message's
// per-communicator telemetry and critical-path sender, blocked waits,
// analytic collectives' last-arrival edges, each top-level operation's end,
// and phase spans (see the methods from World on).
//
// core.System.Plan builds one probe per engine domain once the engine is
// fixed and installs it. A probe belongs to one domain, so its methods need
// no synchronisation.
type Probe struct {
	bins *Collector         // nil unless the timeline is on
	cp   *critpath.Recorder // nil unless critical-path recording is on
	// mpi is the current MPI world's per-communicator collector; nil
	// unless telemetry counts and a world is up (World).
	mpi *telemetry.MPIStats

	// Bytes and Wait are telemetry's payload bytes and queue-wait seconds
	// per resource, indexed by class and then like the fabric's resource
	// slices (links by dense link id, the node classes by node id); nil
	// until Count. Busy seconds and reservation counts come from the
	// reserved sim.FIFOResources at report time.
	Bytes [numClasses + 1][]int64
	Wait  [numClasses + 1][]float64
	// LocalBytes counts same-node (memcpy) payload bytes. HopBytes
	// accumulates bytes × route hops per remote message; the per-link
	// byte counters must sum to exactly this (the conservation check).
	LocalBytes, HopBytes int64
	// IO holds the attached filesystem's counters; nil unless telemetry is
	// on and a filesystem is attached.
	IO *telemetry.IOStats

	lastEdge int32   // the most recent message's edge (0: none recorded)
	linkWait float64 // the in-flight edge's summed positive link waits
}

// NewProbe builds a probe over a domain's timeline collector and the causal
// recorder; either may be nil.
func NewProbe(bins *Collector, cp *critpath.Recorder) *Probe {
	return &Probe{bins: bins, cp: cp}
}

// Count switches on telemetry's fabric counters for links directed links
// and nodes nodes. The OST slots stay nil: the filesystem's IO counters
// hold per-OST bytes.
func (p *Probe) Count(links, nodes int) {
	for _, cl := range []Class{Link, NIC, VNProxy, NICRx} {
		n := nodes
		if cl == Link {
			n = links
		}
		p.Bytes[cl] = make([]int64, n)
		p.Wait[cl] = make([]float64, n)
	}
}

// Counting reports whether p is installed with telemetry's counters on.
func (p *Probe) Counting() bool { return p != nil && p.Bytes[Link] != nil }

// Message observes a remote message of bytes departing at at over hops
// links. It opens the message's critical-path edge and returns its id, or
// 0 when recording is off or the edge was dropped at the cap; the
// reservations that follow charge their stages to it.
func (p *Probe) Message(at float64, bytes int64, hops int) int32 {
	p.HopBytes += bytes * int64(hops)
	p.linkWait = 0
	p.lastEdge = 0
	if p.cp != nil {
		p.lastEdge, _ = p.cp.StartEdge(critpath.EdgeMessage, at, bytes, hops)
	}
	return p.lastEdge
}

// Memcpy observes a same-node transfer of bytes departing at at, whose
// edge is its software overhead plus the copy time: the two components sum
// to its arrive − depart span exactly.
func (p *Probe) Memcpy(at float64, bytes int64, overhead, copyTime float64) {
	p.LocalBytes += bytes
	p.lastEdge = 0
	if p.cp != nil {
		id, e := p.cp.StartEdge(critpath.EdgeMessage, at, bytes, 0)
		if e != nil {
			e.Overhead, e.Inject = overhead, copyTime
		}
		p.lastEdge = id
	}
}

// Reserve observes one reservation of resource res of class cl for bytes
// of payload: requested at req, started at start (start − req is queue
// wait), held for dur. edge is the message's critical-path edge (0: none).
// It takes the duration, not the end time, because the edge's stage
// components must equal the reservation arithmetic bit for bit, and
// (start+dur)−start need not equal dur in floating point.
func (p *Probe) Reserve(edge int32, cl Class, res int, bytes int64, req, start, dur float64) {
	wait := start - req
	if b := p.Bytes[cl]; b != nil {
		b[res] += bytes
		p.Wait[cl][res] += wait
	}
	if p.bins != nil && cl < numClasses {
		p.bins.Sample(cl, req, start, start+dur)
	}
	if edge == 0 {
		return
	}
	switch cl {
	case Link:
		if wait > 0 {
			p.linkWait += wait
			p.cp.AddHopWait(edge, int32(res), wait)
		}
	case NICRx:
		p.cp.Edge(edge).LinkWait += wait
	default: // NIC injection and the VN proxy core
		e := p.cp.Edge(edge)
		e.InjWait += wait
		e.Inject += dur
	}
}

// Transit closes edge's route once its tail reaches the destination. The
// link phase spans injection-complete (injected) → tail. Under pipelining
// the per-hop waits overlap serialisation, so their sum is capped at the
// phase and the remainder is wire time (latency + pipeline fill), which
// keeps LinkWait + Transit exactly equal to the phase. overhead is the
// message's total software overhead.
func (p *Probe) Transit(edge int32, overhead, injected, tail float64) {
	if edge == 0 {
		return
	}
	e := p.cp.Edge(edge)
	phase := tail - injected
	lw := p.linkWait
	if lw > phase {
		lw = phase
	}
	e.LinkWait += lw
	e.Transit += phase - lw
	e.Overhead += overhead
}

// Stripe observes one Lustre stripe of bytes issued to OST ost at time at:
// telemetry's per-OST bytes and the stripe's nominal disk-service interval
// dur in the OST bins. The OST is processor-shared, so the exact span is
// not known at issue; binning demand placement is what the interference
// window needs, deterministically.
func (p *Probe) Stripe(ost int, bytes int64, write bool, at, dur float64) {
	if io := p.IO; io != nil {
		io.OSTBytes[ost] += bytes
		if write {
			io.OSTWriteBytes[ost] += bytes
		}
	}
	if p.bins != nil {
		p.bins.Sample(OST, at, at, at+dur)
	}
}

// World readies the probe for a new MPI world: a fresh telemetry collector
// and the op-class names that label critical-path waits.
func (p *Probe) World(opNames []string) {
	if p.Counting() {
		p.mpi = telemetry.NewMPIStats(opNames, 0)
	}
	if p.cp != nil {
		p.cp.SetClassNames(opNames)
	}
}

// Comm registers communicator id of size ranks, so telemetry exports it
// even if no operation runs on it.
func (p *Probe) Comm(id, size int) {
	if p.mpi != nil {
		p.mpi.Comm(id, size)
	}
}

// Sent observes the message rank just handed the fabric on communicator
// comm inside op class op, and returns the id of the edge its delivery
// opened (0: none), now stamped with its sender.
func (p *Probe) Sent(rank, comm, op int, depart float64, bytes int64) int32 {
	if p.mpi != nil {
		p.mpi.Message(comm, op, depart, bytes)
	}
	if p.lastEdge != 0 {
		p.cp.Edge(p.lastEdge).SrcRank = int32(rank)
	}
	return p.lastEdge
}

// Blocked observes rank blocked over [start, end) inside op class op,
// ended as kind says by edge (0: edgeless).
func (p *Probe) Blocked(rank int, start, end float64, op int, kind critpath.Kind, edge int32) {
	if p.cp != nil {
		p.cp.AddWait(rank, start, end, op, kind, edge)
	}
}

// Collective opens an analytic collective's last-arrival edge, from rank
// last's entry at at, and returns its id (0: none).
func (p *Probe) Collective(at float64, last int) int32 {
	if p.cp == nil {
		return 0
	}
	id, e := p.cp.StartEdge(critpath.EdgeCollective, at, 0, 0)
	if e != nil {
		e.SrcRank = int32(last)
	}
	return id
}

// EndOp observes a top-level op of class op on communicator comm ending
// after seconds.
func (p *Probe) EndOp(comm, op int, seconds float64) {
	if p.mpi != nil {
		p.mpi.EndOp(comm, op, seconds)
	}
}

// Span records rank's phase span name for iteration iter over [start, end).
func (p *Probe) Span(rank int, name string, iter int, start, end float64) {
	if p.bins != nil {
		p.bins.Span(rank, name, iter, start, end)
	}
}

// MPIReport exports the current world's MPI telemetry (nil: none).
func (p *Probe) MPIReport() *telemetry.MPIReport {
	if p == nil {
		return nil
	}
	return p.mpi.Report()
}
