package network

// Parallel fabric mode: message delivery over a torus sharded into slab
// domains (torus.Partition), driven by the conservative sharded scheduler
// (sim.ShardedEngine). See DESIGN.md §4h for the invariants.
//
// Deliver runs, as in serial mode, entirely inside the sender's event and
// walks the route with the serial fabric's own deliverRemote — but against
// the sending slab's domain ledger, which reserves only resources owned by
// that slab: its NIC injection port and every route link whose From-node
// lies in the slab.
// Dimension-ordered routing plus slabbing along the last routed axis mean
// the route's whole pre-axis prefix and its first axis hop are
// slab-owned, so for nearest-neighbour traffic (the S3D/halo class the
// parallel engine targets) that is the entire route and the timing is
// bit-for-bit the serial fabric's. Hops beyond the first foreign link are
// priced at uncontended wire time — no reservation, no contention — and
// counted per domain (ForeignHops); a run that reports zero foreign hops
// contended exactly like the serial engine.
//
// The one cross-domain effect is the arrival callback, posted to the
// destination slab's engine through the coordinator's deterministic
// window-boundary merge. Its timestamp exceeds the causing send event by
// at least send overhead + one hop latency + receive overhead, which is
// exactly the Lookahead the scheduler windows are derived from.

import (
	"fmt"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/timeline"
	"xtsim/internal/torus"
)

// Lookahead returns the conservative-window lookahead for machine m in
// seconds: the minimum advance between any cross-domain cause and effect
// under the parallel fabric's delivery rule. Every remote message pays the
// send-side software overhead, at least one router hop, and the
// receive-side software overhead before its arrival is visible to another
// slab, and those three are the only cross-domain channel.
func Lookahead(m machine.Machine) sim.Time {
	return (m.NIC.SendOverheadUS + m.Link.HopLatencyUS + m.NIC.RecvOverheadUS) * usToS
}

// fabricDomain is one slab's private fabric state: its ledger (shared link
// and port arrays, slab-owned entries only; private route cache, engine
// and timeline collector) and its delivery counters. Each field is touched
// only by that slab's worker goroutine between barriers (and by the
// coordinator thread at setup/fold time), so the ledger's timeline
// sampling needs no synchronisation; the recorder folds the collectors
// deterministically after the terminal window barrier. The trailing pad
// keeps adjacent domains' hot counters off one cache line.
type fabricDomain struct {
	ledger
	msgs, bytes uint64
	_           [4]uint64
}

// parState is the fabric's parallel-mode attachment.
type parState struct {
	part   torus.Partition
	dom    []fabricDomain
	folded bool
}

// EnableParallel switches the fabric to sharded delivery. The partition
// must cover this fabric's torus and match the sharded engine's domain
// count; telemetry and critical-path recording must be off (their
// aggregation points are cross-domain shared state — callers fall back to
// the serial engine instead). Call before any traffic.
func (f *Fabric) EnableParallel(sh *sim.ShardedEngine, part torus.Partition) {
	if f.M.Topology != machine.Torus3D {
		panic(fmt.Sprintf("network: parallel fabric requires a torus topology (%s)", f.M.Name))
	}
	if part.Topology() != f.Tor {
		panic(fmt.Sprintf("network: partition is over %v, fabric over %v", part.Topology(), f.Tor))
	}
	if sh.NumDomains() != part.NumDomains() {
		panic(fmt.Sprintf("network: %d scheduler domains vs %d partition slabs", sh.NumDomains(), part.NumDomains()))
	}
	if f.tel != nil || f.cp != nil {
		panic("network: parallel fabric is incompatible with telemetry/critpath recording")
	}
	p := &parState{part: part, dom: make([]fabricDomain, part.NumDomains())}
	for i := range p.dom {
		p.dom[i].ledger = ledger{
			links:  f.links,
			nicTx:  f.nicTx,
			routes: newRouteCache(f.Tor),
			eng:    sh.Engine(i),
			part:   &p.part,
			dom:    i,
		}
	}
	f.par = p
}

// TimelineShard hands each slab its private timeline collector (index =
// domain). The serial collector pointer (EnableTimeline) must be nil in
// parallel mode — per-domain sampling replaces it entirely. Call after
// EnableParallel and before any traffic.
func (f *Fabric) TimelineShard(doms []*timeline.Collector) {
	p := f.par
	if p == nil {
		panic("network: TimelineShard before EnableParallel")
	}
	if len(doms) != len(p.dom) {
		panic(fmt.Sprintf("network: %d timeline collectors vs %d fabric domains", len(doms), len(p.dom)))
	}
	f.tl = nil
	for i := range p.dom {
		p.dom[i].tl = doms[i]
	}
}

// DisableParallel restores serial delivery (counters accumulated so far
// are folded first). Call only between runs, never mid-simulation.
func (f *Fabric) DisableParallel() {
	if f.par != nil {
		f.FoldParallel()
		f.par = nil
	}
}

// ParallelEnabled reports whether the fabric is in sharded-delivery mode.
func (f *Fabric) ParallelEnabled() bool { return f.par != nil }

// FoldParallel folds the per-domain delivery counters into the fabric's
// public MsgsDelivered/BytesDelivered totals. Call once after the sharded
// run completes (core.System.Run does); idempotent.
func (f *Fabric) FoldParallel() {
	p := f.par
	if p == nil || p.folded {
		return
	}
	p.folded = true
	for i := range p.dom {
		// The per-domain counts stay readable (DomainMsgs feeds the window
		// statistics export); the folded flag keeps the totals single-count.
		f.MsgsDelivered += p.dom[i].msgs
		f.BytesDelivered += p.dom[i].bytes
	}
}

// ForeignHops reports how many route hops were priced without reservation
// because they left the sending slab (summed over domains). Zero means
// every message contended exactly as the serial fabric would have — the
// byte-identical equivalence class. Call after FoldParallel (or after the
// run; the counters are quiescent then).
func (f *Fabric) ForeignHops() uint64 {
	p := f.par
	if p == nil {
		return 0
	}
	var n uint64
	for i := range p.dom {
		n += p.dom[i].foreignHops
	}
	return n
}

// DomainMsgs reports per-domain delivered-message counts (before folding),
// for the per-domain window statistics export.
func (f *Fabric) DomainMsgs() []uint64 {
	p := f.par
	if p == nil {
		return nil
	}
	out := make([]uint64, len(p.dom))
	for i := range p.dom {
		out[i] = p.dom[i].msgs
	}
	return out
}
