// Package network models message transport over the Cray SeaStar /
// SeaStar2 interconnect (and, for the comparison platforms, switched
// fabrics): NIC injection bandwidth, per-link occupancy with cut-through
// pipelining, router hop latency, MPI software overheads, the
// eager/rendezvous protocol switch, intra-node memory-copy transfers, and
// the virtual-node-mode NIC-sharing penalty that drives many of the
// paper's results.
//
// The fabric is pure reservation bookkeeping on top of sim.FIFOResource:
// when a message departs, its complete timeline (injection, every link
// along the dimension-ordered route, ejection) is computed in one event and
// the arrival callback is scheduled. Contention appears through the
// busy-until state that earlier messages leave on each resource.
package network

import (
	"fmt"
	"sort"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
	"xtsim/internal/torus"
)

// usToS converts the microsecond parameters of machine configs to seconds.
const usToS = 1e-6

// ledger is the reservation state one route walk (deliverRemote) books
// against. The walk's arithmetic is the same on every engine; the ledger
// decides whose resources it reserves, who observes them, and where the
// arrival goes:
//
//   - the serial ledger, embedded in Fabric, books the fabric's own links
//     and injection ports and schedules arrivals on the fabric's engine;
//   - a domain ledger (sharded mode, parallel.go) books the same resources
//     but only on its own slab — hops past the first foreign link are
//     priced at uncontended wire time and counted — and posts arrivals to
//     the destination slab through the scheduler's window merge;
//   - an exact hybrid ledger (hybrid.go) books session-private copies,
//     claiming each resource for the pricing rank before reserving it, and
//     schedules nothing.
//
// The VN proxy cores (reserved in arrival order, which only the serial
// engine sees) and the flat-fabric ejection ports stay on the fabric, and
// only the serial ledger walks them: both fast paths admit SN torus runs
// only.
type ledger struct {
	links []sim.FIFOResource // directed torus links, indexed by Tor.LinkID
	nicTx []sim.FIFOResource // per-node injection port

	// routes memoises dimension-ordered routes as link-id slices so the
	// per-message hot path walks cached ids instead of materialising a
	// []Link per delivery. Not safe for concurrent use: each domain
	// ledger has its own.
	routes *torus.RouteCache

	// eng receives the arrival callbacks; nil on a hybrid ledger, whose
	// callers price transfers without scheduling them.
	eng *sim.Engine

	// probe observes every reservation the ledger books (timeline.Probe:
	// telemetry's counters, the timeline's bins and, on the serial ledger,
	// the critical-path edge stages). It is nil while no observer is on,
	// so each reservation site pays one nil check and allocates nothing.
	// core.System.Plan installs it: the serial ledger's with InstallProbe,
	// each domain ledger's with EnableParallel. A hybrid ledger has none.
	probe *timeline.Probe

	// part is non-nil on a domain ledger, which owns slab dom of it;
	// foreignHops counts the hops it priced without reservation.
	part        *torus.Partition
	dom         int
	foreignHops uint64

	// linkOwner and txOwner are non-nil on an exact hybrid ledger: the
	// owner (rank+1, 0 = unclaimed) of each link and injection port,
	// proving the single-owner condition under which the session's books
	// equal the DES's.
	// claimant is the pricing rank's claim (rank+1); violated latches the
	// first lost claim, after which the walk has stopped short.
	linkOwner, txOwner []int32
	claimant           int32
	violated           bool
}

// claim establishes, or confirms, the pricing rank's single ownership of
// owner[i]. A lost claim latches violated.
func (lg *ledger) claim(owner []int32, i int) bool {
	switch owner[i] {
	case 0:
		owner[i] = lg.claimant
		return true
	case lg.claimant:
		return true
	}
	lg.violated = true
	return false
}

// Fabric is the interconnect of one simulated system instance.
type Fabric struct {
	Eng *sim.Engine
	M   machine.Machine
	Tor torus.Torus

	// ledger is the serial delivery ledger: the fabric's links, injection
	// ports, route cache and probe (so f.links, f.probe and the rest name
	// its fields).
	ledger

	nicRx   []sim.FIFOResource // per-node ejection port (binding on flat fabrics)
	vnProxy []sim.FIFOResource // per-node VN-mode message-handling core

	// freeVN is a free list of VN-mode arrival records, recycled when the
	// arrival event fires, so the per-message VN receive path allocates
	// nothing in steady state.
	freeVN *vnArrival

	// par is the sharded-delivery state, nil in serial mode — the same
	// nil-gate idiom as the probe, so the serial hot path pays one nil
	// check to pick its ledger. See parallel.go and DESIGN.md §4h.
	par *parState

	// sio lists the torus node ids reserved for service-I/O duty (set by
	// NewWithSIO); empty on fabrics built without an SIO partition.
	sio []int

	// MsgsDelivered counts completed transfers, for reporting.
	MsgsDelivered uint64
	// BytesDelivered accumulates payload bytes, for reporting.
	BytesDelivered uint64
}

// maxRouteCacheEntries bounds each fabric's route cache. 128Ki routes
// cover every ordered pair of a 362-node system outright (≈10 MB worst
// case); beyond that the cache holds the current communication phase's
// working set (see torus.RouteCache for the eviction policy).
const maxRouteCacheEntries = 1 << 17

// newRouteCache builds a route cache for tor, bounded by both
// maxRouteCacheEntries and the torus's count of ordered node pairs.
func newRouteCache(tor torus.Torus) *torus.RouteCache {
	return torus.NewRouteCache(tor, min(maxRouteCacheEntries, tor.Nodes()*tor.Nodes()))
}

// New builds a fabric for nNodes nodes of machine m.
func New(eng *sim.Engine, m machine.Machine, nNodes int) *Fabric {
	return NewWithSIO(eng, m, nNodes, 0)
}

// NewWithSIO builds a fabric whose torus holds nCompute compute nodes plus
// nSIO service-I/O nodes. The SIO nodes take the highest node ids of the
// torus (mirroring the XT4's service blades at the mesh edge) and are
// disjoint from the compute range [0, nCompute): compute placement never
// lands a rank on them, so I/O server traffic crosses real torus links to
// reach storage, contending with compute-phase traffic along the way.
func NewWithSIO(eng *sim.Engine, m machine.Machine, nCompute, nSIO int) *Fabric {
	if nSIO < 0 {
		panic("network: negative SIO node count")
	}
	tor := m.TorusFor(nCompute + nSIO)
	f := &Fabric{
		Eng: eng,
		M:   m,
		Tor: tor,
		ledger: ledger{
			links:  make([]sim.FIFOResource, tor.NumLinks()),
			nicTx:  make([]sim.FIFOResource, tor.Nodes()),
			routes: newRouteCache(tor),
			eng:    eng,
		},
		nicRx:   make([]sim.FIFOResource, tor.Nodes()),
		vnProxy: make([]sim.FIFOResource, tor.Nodes()),
	}
	for i := 0; i < nSIO; i++ {
		f.sio = append(f.sio, tor.Nodes()-1-i)
	}
	return f
}

// SIONodes returns the fabric's reserved service-I/O node ids (highest
// first), or nil when the fabric was built without an SIO partition. The
// Lustre layer places its OSS servers here when the slice is non-empty.
func (f *Fabric) SIONodes() []int { return f.sio }

// Msg describes one point-to-point transfer.
type Msg struct {
	SrcNode, DstNode int
	SrcCore, DstCore int // core index within the node (0-based)
	Bytes            int64
	Mode             machine.Mode
}

func (m Msg) String() string {
	return fmt.Sprintf("msg %d.%d -> %d.%d (%d bytes)", m.SrcNode, m.SrcCore, m.DstNode, m.DstCore, m.Bytes)
}

// Timeline is the computed schedule of a transfer.
type Timeline struct {
	// Depart is when the sender invoked the transfer.
	Depart sim.Time
	// Injected is when the payload finished leaving the source node; a
	// blocking MPI send returns at this point (eager buffering).
	Injected sim.Time
	// Arrive is when the payload is fully available at the receiver,
	// including receive-side software overhead.
	Arrive sim.Time
}

// Deliver computes the transfer timeline for msg departing at time at and
// schedules onArrive at the arrival instant (the event's timestamp is
// passed to Arrive). It returns the timeline so senders can block until
// local completion. Deliver must be called from an event or process at
// simulated time at (it reserves resources relative to the current
// schedule). The callback is a sim.Arriver rather than a closure so
// per-message callers can pass a pooled object and pay no allocation; use
// sim.ArriveFunc to adapt a plain function on setup paths.
func (f *Fabric) Deliver(at sim.Time, msg Msg, onArrive sim.Arriver) Timeline {
	if msg.Bytes < 0 {
		panic(fmt.Sprintf("network: negative message size %d", msg.Bytes))
	}
	if msg.SrcNode < 0 || msg.SrcNode >= f.Tor.Nodes() || msg.DstNode < 0 || msg.DstNode >= f.Tor.Nodes() {
		panic(fmt.Sprintf("network: node out of range in %v (fabric has %d nodes)", msg, f.Tor.Nodes()))
	}
	lg := &f.ledger
	if p := f.par; p != nil {
		// Sharded mode: the sending node's slab walks the route. This call
		// runs on that slab's engine, since only its ranks send from the
		// node.
		d := &p.dom[p.part.DomainOf(msg.SrcNode)]
		d.msgs++
		d.bytes += uint64(msg.Bytes)
		lg = &d.ledger
	} else {
		f.MsgsDelivered++
		f.BytesDelivered += uint64(msg.Bytes)
	}
	if msg.SrcNode == msg.DstNode {
		return f.deliverLocal(lg, at, msg, onArrive)
	}
	return f.deliverRemote(lg, at, msg, onArrive)
}

// deliverLocal models a same-node (core-to-core) transfer on ledger lg: §2
// notes that messages between two cores on the same socket are handled
// through a memory copy. Software overheads are roughly halved because no
// Portals descriptor or NIC doorbell is involved. Nothing is reserved.
func (f *Fabric) deliverLocal(lg *ledger, at sim.Time, msg Msg, onArrive sim.Arriver) Timeline {
	nic := f.M.NIC
	done := at + 0.5*nic.SendOverheadUS*usToS + float64(msg.Bytes)/nic.MemcpyBW
	tl := Timeline{Depart: at, Injected: done, Arrive: done + 0.5*nic.RecvOverheadUS*usToS}
	if pr := lg.probe; pr != nil {
		pr.Memcpy(at, msg.Bytes, 0.5*(nic.SendOverheadUS+nic.RecvOverheadUS)*usToS, float64(msg.Bytes)/nic.MemcpyBW)
	}
	if onArrive != nil {
		lg.eng.AtArrive(tl.Arrive, onArrive)
	}
	return tl
}

// vnArrival is the deferred receive-side stage of one VN-mode transfer: at
// the payload's tail-arrival instant it reserves the destination node's
// message-handling core (queueing in arrival order) and then schedules the
// caller's arrival callback. Records are pooled on the fabric.
type vnArrival struct {
	f     *Fabric
	node  int         // destination node
	bytes int64       // payload size, for the probe
	extra sim.Time    // post-proxy mediation + receive software overhead
	edge  int32       // critical-path edge id, 0 when recording is off
	sink  sim.Arriver // caller's callback (may be nil)
	next  *vnArrival  // free-list link
}

// Arrive runs at the payload's tail arrival time.
func (v *vnArrival) Arrive(tail sim.Time) {
	f := v.f
	sink := v.sink
	dur := f.M.NIC.VNProxyUS * usToS
	start := f.vnProxy[v.node].Reserve(tail, dur)
	if pr := f.probe; pr != nil {
		// The receive-side proxy stage finishes the edge's decomposition,
		// keeping the component sum equal to the arrival − Depart.
		pr.Reserve(v.edge, timeline.VNProxy, v.node, v.bytes, tail, start, dur)
	}
	arr := start + dur + v.extra
	v.sink = nil
	v.next = f.freeVN
	f.freeVN = v
	if sink != nil {
		f.Eng.AtArrive(arr, sink)
	}
}

// newVNArrival takes a record from the free list (or allocates one).
func (f *Fabric) newVNArrival(node int, bytes int64, extra sim.Time, edge int32, sink sim.Arriver) *vnArrival {
	v := f.freeVN
	if v == nil {
		v = &vnArrival{f: f}
	} else {
		f.freeVN = v.next
		v.next = nil
	}
	v.node, v.bytes, v.extra, v.edge, v.sink = node, bytes, extra, edge, sink
	return v
}

// deliverRemote models the full network path against ledger lg and
// schedules onArrive on the ledger's engine. It is the one route walk of
// every engine — serial, sharded and exact hybrid — so the three produce
// the same floats by construction wherever their ledgers hold the same
// state (see ledger). The send side (software overhead, VN proxy,
// injection, links) is computed eagerly in reservation order, which is
// also time order for a node's own sends; the receive-side VN proxy is
// handled by an event at the payload's tail-arrival time, so that proxy
// queueing follows *arrival* order — a FIFO reserved eagerly with future
// timestamps would queue messages in send order and inflate contention
// unboundedly.
//
// On an exact hybrid ledger a lost single-owner claim stops the walk
// before the contested resource is reserved: lg.violated is set and the
// returned timeline is zero.
func (f *Fabric) deliverRemote(lg *ledger, at sim.Time, msg Msg, onArrive sim.Arriver) Timeline {
	nic := f.M.NIC
	link := f.M.Link
	size := float64(msg.Bytes)
	vn := msg.Mode == machine.VN && nic.VNProxyUS > 0
	if vn && lg != &f.ledger {
		// The VN proxy core queues in arrival order; both fast paths
		// decline VN placement at admission, before it gets here.
		panic("network: VN-mode delivery off the serial fabric")
	}

	// Send-side software overhead. ov sums every software overhead the
	// message pays, stage by stage, for its critical-path edge.
	ov := nic.SendOverheadUS * usToS
	t := at + nic.SendOverheadUS*usToS

	// The cached dimension-ordered route, as link ids; its length is the
	// hop count.
	route := lg.routes.LinkIDs(msg.SrcNode, msg.DstNode)
	hops := len(route)

	// The probe observes each reservation below. With critical-path
	// recording on, the message's edge collects each stage, so its five
	// components sum exactly to the arrival − at span even though the
	// stages overlap under cut-through pipelining.
	pr := lg.probe
	var eid int32
	if pr != nil {
		eid = pr.Message(at, msg.Bytes, hops)
	}

	// Rendezvous protocol: large messages pay a control round-trip before
	// the payload moves (request-to-send / clear-to-send).
	if nic.RendezvousThresholdBytes > 0 && msg.Bytes > int64(nic.RendezvousThresholdBytes) {
		rtt := 2 * (nic.SendOverheadUS*usToS + float64(hops)*link.HopLatencyUS*usToS)
		t += rtt
		ov += rtt
	}

	// Virtual-node mode: traffic to or from the non-NIC core is mediated
	// by core 0, adding fixed latency plus queueing on the handling core.
	dur := nic.VNProxyUS * usToS
	if vn {
		if msg.SrcCore > 0 {
			t += nic.VNMediationUS * usToS
			ov += nic.VNMediationUS * usToS
		}
		start := f.vnProxy[msg.SrcNode].Reserve(t, dur)
		if pr != nil {
			pr.Reserve(eid, timeline.VNProxy, msg.SrcNode, msg.Bytes, t, start, dur)
		}
		t = start + dur
	}

	// NIC injection: the payload serialises through the HyperTransport/
	// NIC path at the effective injection bandwidth.
	injTime := size / nic.EffBW()
	if lg.txOwner != nil && !lg.claim(lg.txOwner, msg.SrcNode) {
		return Timeline{}
	}
	t0 := lg.nicTx[msg.SrcNode].Reserve(t, injTime)
	if pr != nil {
		pr.Reserve(eid, timeline.NIC, msg.SrcNode, msg.Bytes, t, t0, injTime)
	}

	// Links along the dimension-ordered route, cut-through pipelined: the
	// head flit advances one hop latency per link, and each link is
	// occupied for the full serialisation time, so contending flows push
	// each other back.
	head := t0
	var lastStart sim.Time = t0
	lastSer := 0.0
	linkSer := size / link.BW
	// Hoisted: Reserve can't alias it, but the compiler can't tell.
	links := lg.links
	restricted := lg.part != nil || lg.linkOwner != nil
	for _, id := range route {
		req := head + link.HopLatencyUS*usToS
		var s sim.Time
		switch {
		case !restricted:
			s = links[id].Reserve(req, linkSer)
		case lg.part != nil && lg.part.DomainOfLink(int(id)) != lg.dom:
			// A domain ledger past its slab (Z is routed last and
			// monotonically, so the route never comes back): priced at
			// uncontended wire time without reservation. A run with zero
			// foreign hops contended exactly like the serial engine.
			lg.foreignHops++
			s = req
		default:
			// An exact hybrid ledger claims the link before booking it.
			if lg.linkOwner != nil && !lg.claim(lg.linkOwner, int(id)) {
				return Timeline{}
			}
			s = links[id].Reserve(req, linkSer)
		}
		if pr != nil {
			pr.Reserve(eid, timeline.Link, int(id), msg.Bytes, req, s, linkSer)
		}
		head = s
		lastStart = s
		lastSer = linkSer
	}

	// Tail arrival at the destination node: bounded below both by the last
	// link's serialisation and by injection completing plus the route's
	// pipeline latency (the wormhole can't outrun the source).
	tail := lastStart + lastSer
	if lower := t0 + injTime + float64(hops)*link.HopLatencyUS*usToS; lower > tail {
		tail = lower
	}

	// Receive-side mediation (VN mode, far core) and software overhead
	// close the edge's overhead sum, and the link phase closes its route.
	injected := t0 + injTime
	recvOv := nic.RecvOverheadUS * usToS
	med := 0.0
	if vn && msg.DstCore > 0 {
		med = nic.VNMediationUS * usToS
	}
	if pr != nil {
		pr.Transit(eid, ov+(med+recvOv), injected, tail)
	}

	// On flat switched fabrics the ejection port is a real bottleneck
	// (many-to-one patterns); on the torus the final link already
	// serialised arrivals into the node. Only the serial ledger walks flat
	// fabrics: both fast paths require a torus.
	if f.M.Topology == machine.FlatSwitch {
		ej := size / nic.EffBW()
		s := f.nicRx[msg.DstNode].Reserve(tail-ej, ej)
		if pr != nil {
			pr.Reserve(eid, timeline.NICRx, msg.DstNode, msg.Bytes, tail-ej, s, ej)
		}
		tail = s + ej
	}

	if vn {
		// Reserve the handling core when the payload actually arrives, so
		// contention reflects arrival order; the edge's receive-proxy
		// queueing is charged there too.
		lg.eng.AtArrive(tail, f.newVNArrival(msg.DstNode, msg.Bytes, med+recvOv, eid, onArrive))
		// The returned timeline carries the uncontended estimate; the
		// authoritative arrival is the onArrive callback's timestamp.
		return Timeline{Depart: at, Injected: injected, Arrive: tail + dur + med + recvOv}
	}
	arrive := tail + recvOv
	if onArrive != nil {
		if lg.part != nil {
			// To the destination slab through the window merge. Tiebreak:
			// the (src, dst) node pair; same-pair posts share the key and
			// fall back to emission order, preserving per-flow FIFO.
			key := uint64(uint32(msg.SrcNode))<<32 | uint64(uint32(msg.DstNode))
			lg.eng.Post(lg.part.DomainOf(msg.DstNode), arrive, key, onArrive)
		} else {
			lg.eng.AtArrive(arrive, onArrive)
		}
	}
	return Timeline{Depart: at, Injected: injected, Arrive: arrive}
}

// ZeroLatencyEstimate returns the modelled small-message one-way latency in
// seconds between two nodes hops apart in the given mode, assuming an idle
// network. It is the closed-form used by the analytic collective model and
// validated against the simulated path in tests.
func (f *Fabric) ZeroLatencyEstimate(hops int, mode machine.Mode, farCore bool) float64 {
	nic := f.M.NIC
	lat := (nic.SendOverheadUS + nic.RecvOverheadUS) * usToS
	lat += float64(hops) * f.M.Link.HopLatencyUS * usToS
	if mode == machine.VN {
		lat += 2 * nic.VNProxyUS * usToS
		if farCore {
			lat += 2 * nic.VNMediationUS * usToS
		}
	}
	return lat
}

// InstallProbe installs the serial ledger's reservation probe; nil leaves
// every reservation unobserved. core.System.Plan calls it once the engine
// is planned, before any traffic.
func (f *Fabric) InstallProbe(p *timeline.Probe) { f.probe = p }

// Probe returns the probe of engine domain dom's ledger (the serial
// ledger's on a serial fabric), nil while no observer is on. The MPI
// runtime's ranks on that domain record through the same probe, so a
// message's per-communicator records follow the edge its delivery opened.
func (f *Fabric) Probe(dom int) *timeline.Probe {
	if f.par != nil {
		return f.par.dom[dom].probe
	}
	return f.probe
}

// NumLinks reports the number of directed torus links — the Link-class
// resource count for timeline utilization normalisation.
func (f *Fabric) NumLinks() int { return len(f.links) }

// LinkLabel names a directed link from its dense id ("node 12 +X"); shared
// by the telemetry and critical-path reports.
func (f *Fabric) LinkLabel(id int) string {
	dim := torus.Dim(id % 6 / 2)
	sign := byte('+')
	if id%2 == 1 {
		sign = '-'
	}
	return fmt.Sprintf("node %d %c%v", id/6, sign, dim)
}

// telemetryTopLinks bounds the busiest-links list in the report.
const telemetryTopLinks = 5

// TelemetryReport assembles the fabric's deterministic utilization report
// over [0, horizon]: per-class and per-dimension summaries, the per-node
// congestion field, and the busiest links. Returns nil unless the serial
// probe counts for telemetry. Busy seconds and reservation counts are read
// from the FIFOResources (pre-existing fields); bytes and queue-wait
// seconds come from the probe's counters.
func (f *Fabric) TelemetryReport(horizon sim.Time) *telemetry.FabricReport {
	pr := f.probe
	if !pr.Counting() {
		return nil
	}
	bytes, wait := &pr.Bytes, &pr.Wait
	tor := f.Tor
	rep := &telemetry.FabricReport{
		NX: tor.NX, NY: tor.NY, NZ: tor.NZ,
		Torus:          fmt.Sprintf("%dx%dx%d", tor.NX, tor.NY, tor.NZ),
		MsgsDelivered:  f.MsgsDelivered,
		BytesDelivered: f.BytesDelivered,
		LocalBytes:     pr.LocalBytes,
		HopBytes:       pr.HopBytes,
	}

	// Per-class summaries, in fixed order. The busiest-resource label
	// resolves the aggregator's index through the class's own id space.
	linkAgg := telemetry.NewClassAgg("link", horizon)
	for i := range f.links {
		r := &f.links[i]
		linkAgg.Add(r.Busy, wait[timeline.Link][i], bytes[timeline.Link][i], r.Count)
	}
	nodeClass := func(name string, rs []sim.FIFOResource, cl timeline.Class) *telemetry.ClassAgg {
		agg := telemetry.NewClassAgg(name, horizon)
		for i := range rs {
			agg.Add(rs[i].Busy, wait[cl][i], bytes[cl][i], rs[i].Count)
		}
		return agg
	}
	txAgg := nodeClass("nic_tx", f.nicTx, timeline.NIC)
	rxAgg := nodeClass("nic_rx", f.nicRx, timeline.NICRx)
	vnAgg := nodeClass("vn_proxy", f.vnProxy, timeline.VNProxy)
	for _, agg := range []*telemetry.ClassAgg{linkAgg, txAgg, rxAgg, vnAgg} {
		s := agg.Summary()
		if i := agg.MaxIndex(); i >= 0 {
			if s.Class == "link" {
				s.Busiest = f.LinkLabel(i)
			} else {
				s.Busiest = fmt.Sprintf("node %d", i)
			}
		}
		rep.Classes = append(rep.Classes, s)
	}

	// Per-dimension link summaries: link id = node*6 + dim*2 + dir.
	for dim := torus.X; dim <= torus.Z; dim++ {
		agg := telemetry.NewClassAgg(dim.String(), horizon)
		maxID := -1
		for id := range f.links {
			if torus.Dim(id%6/2) != dim {
				continue
			}
			r := &f.links[id]
			before := agg.MaxIndex()
			agg.Add(r.Busy, wait[timeline.Link][id], bytes[timeline.Link][id], r.Count)
			if agg.MaxIndex() != before {
				maxID = id
			}
		}
		s := agg.Summary()
		if maxID >= 0 {
			s.Busiest = f.LinkLabel(maxID)
		}
		rep.Dims = append(rep.Dims, s)
	}

	// Per-node congestion field: mean utilization of the node's six
	// outgoing links.
	rep.NodeUtil = make([]float64, tor.Nodes())
	if horizon > 0 {
		for node := range rep.NodeUtil {
			var busy sim.Time
			for port := 0; port < 6; port++ {
				busy += f.links[node*6+port].Busy
			}
			rep.NodeUtil[node] = busy / (6 * horizon)
		}
	}

	// Busiest links, utilization-descending, ties toward lower ids.
	if horizon > 0 {
		ids := make([]int, len(f.links))
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool {
			return f.links[ids[a]].Busy > f.links[ids[b]].Busy
		})
		for _, id := range ids[:min(telemetryTopLinks, len(ids))] {
			r := &f.links[id]
			if r.Busy <= 0 {
				break
			}
			rep.TopLinks = append(rep.TopLinks, telemetry.LinkHot{
				Link:        f.LinkLabel(id),
				Utilization: r.Busy / horizon,
				Bytes:       bytes[timeline.Link][id],
				WaitSeconds: wait[timeline.Link][id],
			})
		}
	}
	return rep
}
