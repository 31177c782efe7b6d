package network

import (
	"sync"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
)

// HybridSession prices transfers for the hybrid fast path (core hybrid.go,
// DESIGN.md §4i) without touching the fabric's event engine or resource
// state. In the exact tier it runs the fabric's own route walk
// (deliverRemote) against a session-private ledger — bit-identical as long
// as every link and injection port stays single-owner, which the ledger
// enforces; in the analytic tier it charges the uncontended closed form
// (every reservation granted at its request time). Because the ledger is
// session-private and counters commit only on success, an aborted session
// leaves the fabric pristine for the DES re-run.
type HybridSession struct {
	f     *Fabric
	exact bool

	// mu serialises pricing: ranks call Price concurrently from their own
	// goroutines. One mutex is deliberate — the hybrid win is skipping the
	// event heap and process switching, not lock-free pricing, and a
	// single lock keeps the ledger and route cache trivially consistent.
	mu sync.Mutex

	// led is the session's ledger: in the exact tier, private copies of
	// every link and injection port plus their single-owner claims; in the
	// analytic tier it only carries same-node transfers, which reserve
	// nothing.
	led ledger

	msgs, bytes uint64
}

// BeginHybrid opens a pricing session on the fabric, or declines with a
// reason (mirroring the EnableParallel admission style). Declines when the
// sharded delivery is active, on a non-torus fabric, or, for the analytic
// tier, when links are degraded: per-link derates are fault-injection
// state the closed form does not model, while the exact tier's route walk
// applies them as the DES does.
func (f *Fabric) BeginHybrid(exact bool) (*HybridSession, string) {
	switch {
	case f.par != nil:
		return nil, "sharded delivery owns the fabric"
	case !exact && f.derate != nil:
		return nil, "degraded links are outside the analytic closed form"
	case f.M.Topology != machine.Torus3D:
		return nil, "fabric is not a torus"
	}
	s := &HybridSession{f: f, exact: exact, led: ledger{routes: f.routes}}
	if exact {
		s.led.links = make([]sim.FIFOResource, f.Tor.NumLinks())
		s.led.nicTx = make([]sim.FIFOResource, f.Tor.Nodes())
		s.led.linkOwner = make([]int32, f.Tor.NumLinks())
		s.led.txOwner = make([]int32, f.Tor.Nodes())
	}
	return s, ""
}

// hybridViolationReason is the one fallback reason an exact session ever
// reports: which link tripped the ledger first depends on goroutine
// schedule, so a stable generic string keeps the fallback deterministic.
const hybridViolationReason = "link ownership violation (routes of concurrent ranks share a link)"

// Price computes the timeline of msg departing at time at from the given
// rank. ok=false means the exact ledger detected shared ownership — the
// session is dead (every later Price also fails) and the caller must abort
// the hybrid run.
//
// The exact tier's timings equal the DES's bit for bit because (a) each
// ledger slot sees reservations from exactly one rank, in that rank's
// program order — the same order the serial engine would issue them — and
// (b) the arithmetic is the DES's own route walk, not a replay of it.
// Exact admission is SN-only, so the walk's VN stages never run here.
func (s *HybridSession) Price(at sim.Time, msg Msg, rank int) (tl Timeline, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.led.violated {
		return Timeline{}, false
	}
	switch {
	case msg.SrcNode == msg.DstNode:
		tl = s.f.deliverLocal(&s.led, at, msg, nil)
	case s.exact:
		s.led.claimant = int32(rank) + 1
		tl = s.f.deliverRemote(&s.led, at, msg, nil)
		if s.led.violated {
			return Timeline{}, false
		}
	default:
		tl = s.priceAnalytic(at, msg)
	}
	s.msgs++
	s.bytes += uint64(msg.Bytes)
	return tl, true
}

// priceAnalytic is deliverRemote with every reservation granted at its
// request time (idle network): the closed form the analytic collective
// model is built on, extended with the VN mediation/proxy terms on both
// sides. It is deterministic regardless of rank schedule because nothing
// depends on ledger state.
func (s *HybridSession) priceAnalytic(at sim.Time, msg Msg) Timeline {
	f := s.f
	nic := f.M.NIC
	link := f.M.Link
	size := float64(msg.Bytes)

	t := at + nic.SendOverheadUS*usToS
	hops := f.Tor.Hops(msg.SrcNode, msg.DstNode)

	if nic.RendezvousThresholdBytes > 0 && msg.Bytes > int64(nic.RendezvousThresholdBytes) {
		rtt := 2 * (nic.SendOverheadUS*usToS + float64(hops)*link.HopLatencyUS*usToS)
		t += rtt
	}
	if msg.Mode == machine.VN && nic.VNProxyUS > 0 {
		if msg.SrcCore > 0 {
			t += nic.VNMediationUS * usToS
		}
		t += nic.VNProxyUS * usToS // send-side proxy, uncontended
	}

	injTime := size / nic.EffBW()
	linkSer := size / link.BW
	// Cut-through: head advances one hop latency per link; the tail is the
	// later of the last link's serialisation and injection + pipeline.
	tail := t + float64(hops)*link.HopLatencyUS*usToS + linkSer
	if lower := t + injTime + float64(hops)*link.HopLatencyUS*usToS; lower > tail {
		tail = lower
	}

	recvOv := nic.RecvOverheadUS * usToS
	arrive := tail + recvOv
	if msg.Mode == machine.VN && nic.VNProxyUS > 0 {
		arrive = tail + nic.VNProxyUS*usToS + recvOv
		if msg.DstCore > 0 {
			arrive += nic.VNMediationUS * usToS
		}
	}
	return Timeline{Depart: at, Injected: t + injTime, Arrive: arrive}
}

// Violated reports whether the exact ledger observed shared ownership, and
// the stable fallback reason.
func (s *HybridSession) Violated() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.led.violated {
		return true, hybridViolationReason
	}
	return false, ""
}

// Commit folds the session's delivery counters into the fabric. Call once,
// only when the hybrid run completed without aborting.
func (s *HybridSession) Commit() {
	s.f.MsgsDelivered += s.msgs
	s.f.BytesDelivered += s.bytes
}
