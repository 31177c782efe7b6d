package core

// Fast-path admission (DESIGN.md §4l). One ordered table decides which
// engine runs a system: the serial DES, the sharded scheduler (parallel.go)
// or a hybrid tier (hybrid.go). EnableParallel, EnableHybrid and the
// observers' Enable* calls only record requests; Plan applies the table
// once, when the first mpi.NewWorld/Run or System.Run fixes the engine, and
// installs the observer probes, so the choice and the wiring follow the
// finished configuration, not call order. The only later transition is the
// exact tier's runtime abort to the DES (AbortHybrid). Declines and aborts
// are counted in a process-wide (kind, reason) ledger that `xtsim -serve`
// exports on /metrics, cumulative like sim.TotalEventsExecuted.

import (
	"fmt"
	"sort"
	"sync"

	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
	"xtsim/internal/torus"
)

// engines is a set of fast-path engines. A hybrid engine's bit is its
// HybridTier value, so engines(tier) and HybridTier(e) convert.
type engines uint8

const (
	hybridExact    = engines(HybridExact)
	hybridAnalytic = engines(HybridAnalytic)
	sharded        = engines(4)

	hybrid    = hybridExact | hybridAnalytic
	fastPaths = sharded | hybrid
)

// rule is one admission row: while holds is true, every engine in blocks
// declines with reason.
type rule struct {
	blocks engines
	reason string
	holds  func(s *System) bool
}

// admission is the table. A request's reason is the first row that holds
// and blocks the requested engine. (Assigned in init: its last row
// consults the table itself.)
var admission []rule

func init() {
	admission = []rule{
		{fastPaths, "machine is not a torus", func(s *System) bool { return s.M.Topology != machine.Torus3D }},
		{sharded, "fewer than 2 shards requested", func(s *System) bool { return s.shards < 2 }},
		// The proxy core queues in arrival order, which only the serial
		// engine's route walk can book. The analytic tier prices it in closed
		// form.
		{sharded | hybridExact, "VN placement queues on the shared NIC proxy core", (*System).vnProxied},
		// Observers aggregate on the serial ledger and MPI world; hybrid ranks
		// produce no per-event records at all.
		{fastPaths, "telemetry aggregation needs the serial event schedule", func(s *System) bool { return s.tel }},
		{fastPaths, "critical-path recording needs the serial event schedule", func(s *System) bool { return s.cp != nil }},
		// The recorder composes with the sharded scheduler: each domain ledger
		// samples into its own collector.
		{hybrid, "timeline recording needs per-event reservation records", func(s *System) bool { return s.tl != nil }},
		{fastPaths, "noise RNG is a shared sequential stream", func(s *System) bool { return s.NoiseAmp > 0 }},
		{fastPaths, "I/O subsystem resources (MDS, OSS/OST) are engine-global shared state", func(s *System) bool { return s.io != nil }},
		{sharded, "torus has a single plane on the slab axis", func(s *System) bool {
			return torus.NewPartition(s.Fabric.Tor, s.shards).NumDomains() < 2
		}},
		// mpi.Run reports analytic collectives to Plan: their one meet point
		// is engine-global state.
		{sharded, "analytic collectives coordinate through engine-global shared state", func(s *System) bool { return s.globalColl }},
		{hybrid, "sharded scheduler owns rank execution", func(s *System) bool {
			return s.req&sharded != 0 && s.declined(sharded) == ""
		}},
	}
}

// declined returns the reason the table blocks engine e on the system as
// configured now, or "" when it admits e.
func (s *System) declined(e engines) string {
	for _, r := range admission {
		if r.blocks&e != 0 && r.holds(s) {
			return r.reason
		}
	}
	return ""
}

// vnProxied reports whether the system's ranks share nodes or its messages
// pass the VN proxy core (VN mode on a single-core machine places one task
// per node but still pays the proxy stages).
func (s *System) vnProxied() bool {
	return s.Mode == machine.VN && (s.TasksPerNode > 1 || s.M.NIC.VNProxyUS > 0)
}

// Plan fixes the engine for every run of this system by applying the
// admission table to the recorded requests and the configuration. The
// first call decides; mpi.Run calls it with globalColl set when its
// collectives meet at engine-global points, and mpi.NewWorld and Run call
// it with globalColl false. Each declined request is counted in the
// fallback ledger. Once the engine is fixed, Plan installs one probe per
// engine domain (timeline.Probe) into the fabric's ledgers, whence the
// MPI runtime takes it, and into any attached filesystem. Later calls
// re-check the planned engine against the table and panic when
// configuration made after planning (NoiseAmp, analytic collectives) now
// blocks it.
func (s *System) Plan(globalColl bool) {
	s.globalColl = s.globalColl || globalColl
	if s.planned {
		if e := s.engine(); e != 0 {
			if reason := s.declined(e); reason != "" {
				panic(fmt.Sprintf("core: configuration changed after the engine was planned (%s); "+
					"configure the system before mpi.NewWorld/Run", reason))
			}
		}
		return
	}
	s.planned = true
	if s.req&sharded != 0 {
		if s.parReason = s.declined(sharded); s.parReason != "" {
			recordFallback("parallel", s.parReason)
		} else {
			s.buildSharded()
		}
	}
	if e := s.req & hybrid; e != 0 {
		if s.hybReason = s.declined(e); s.hybReason != "" {
			recordFallback("hybrid", s.hybReason)
		} else {
			s.hybTier = HybridTier(e)
		}
	}
	if s.tl != nil {
		s.tl.SetResources(timeline.Link, s.Fabric.NumLinks())
		s.tl.SetResources(timeline.NIC, s.Fabric.Tor.Nodes())
		s.tl.SetResources(timeline.VNProxy, s.Fabric.Tor.Nodes())
		if s.io != nil {
			s.tl.SetResources(timeline.OST, s.io.OSTs())
		}
	}
	if s.par != nil {
		return // buildSharded installed the domain probes
	}
	p := s.probe(0)
	s.Fabric.InstallProbe(p)
	if s.io != nil && p != nil {
		if s.tel {
			p.IO = telemetry.NewIOStats(s.io.OSTs())
		}
		s.io.InstallProbe(p)
	}
}

// probe builds engine domain dom's probe, or nil while no observer is
// on. Telemetry and critical-path recording keep a run on the
// serial engine, so on the sharded one the probes only sample the
// timeline.
func (s *System) probe(dom int) *timeline.Probe {
	if !s.tel && s.cp == nil && s.tl == nil {
		return nil
	}
	var bins *timeline.Collector
	if s.tl != nil {
		bins = s.tl.Dom(dom)
	}
	p := timeline.NewProbe(bins, s.cp)
	if s.tel {
		p.Count(s.Fabric.NumLinks(), s.Fabric.Tor.Nodes())
	}
	return p
}

// engine reports the planned fast path (0 for the DES).
func (s *System) engine() engines {
	if s.par != nil {
		return sharded
	}
	return engines(s.hybTier)
}

// buildSharded is the one place the sharded engine comes up: the
// scheduler, the fabric's domain ledgers (each with its own probe when the
// timeline is on), and the node resources rebound to the slab engines that
// now own them.
func (s *System) buildSharded() {
	part := torus.NewPartition(s.Fabric.Tor, s.shards)
	sh := sim.NewSharded(part.NumDomains(), network.Lookahead(s.M))
	probes := make([]*timeline.Probe, part.NumDomains())
	if s.tl != nil {
		s.tl.Shard(len(probes))
	}
	for i := range probes {
		probes[i] = s.probe(i)
	}
	s.Fabric.EnableParallel(sh, part, probes)
	s.par = &parRun{sh: sh, part: part}
	for i, n := range s.Nodes {
		// PSResources schedule their own completion events, so they must
		// live on the engine whose domain executes the node's ranks.
		eng := s.EngFor(i)
		n.Stream = sim.NewPSResource(eng, n.Stream.Capacity)
		n.Random = sim.NewPSResource(eng, n.Random.Capacity)
	}
}

// configure guards every configuration call: after planning, the engine
// can no longer follow the configuration, so the call fails loudly.
func (s *System) configure(call string) {
	if s.planned {
		panic(fmt.Sprintf("core: %s after the engine was planned; call it before mpi.NewWorld/Run", call))
	}
}

// FallbackCount is one (kind, reason) cell of the fallback ledger.
type FallbackCount struct {
	// Kind is the fast path involved: "parallel" or "hybrid".
	Kind string `json:"kind"`
	// Reason is the admission/fallback reason string, verbatim.
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

var (
	fallbackMu sync.Mutex
	fallbacks  map[FallbackCount]uint64
)

// recordFallback counts one declined request or exact-tier abort.
func recordFallback(kind, reason string) {
	key := FallbackCount{Kind: kind, Reason: reason}
	fallbackMu.Lock()
	if fallbacks == nil {
		fallbacks = make(map[FallbackCount]uint64)
	}
	fallbacks[key]++
	fallbackMu.Unlock()
}

// FallbackCounts returns the process's cumulative fast-path fallback
// counters, sorted by (kind, reason) for deterministic export.
func FallbackCounts() []FallbackCount {
	fallbackMu.Lock()
	out := make([]FallbackCount, 0, len(fallbacks))
	for key, n := range fallbacks {
		key.Count = n
		out = append(out, key)
	}
	fallbackMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}
