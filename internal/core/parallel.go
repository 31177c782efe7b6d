package core

import (
	"fmt"

	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/torus"
)

// parRun is the system's parallel-scheduling state, nil in serial mode.
type parRun struct {
	sh   *sim.ShardedEngine
	part torus.Partition
}

// EnableParallel asks the system to run on `shards` sharded torus domains
// under the conservative parallel scheduler (sim.ShardedEngine +
// torus.Partition + the fabric's sharded delivery; DESIGN.md §4h). It
// reports whether parallel mode engaged; when the system is outside the
// admission envelope it stays serial and ParallelReason explains why.
//
// Admission requires: shards ≥ 2; a torus machine in SN placement (one
// task per node — the VN proxy core is cross-slab shared state); no
// telemetry, critical-path recording, or tracer (their aggregation is
// cross-domain shared state); no compute noise (the noise RNG is a shared
// sequential stream); and a torus actually divisible into 2+ slabs.
//
// Call after NewSystem and any Enable*/SetPlacement calls, before
// mpi.NewWorld / Run. The MPI layer adds one more gate at Run time —
// analytic collectives coordinate through engine-global state — and calls
// DisableParallel itself for such runs, which is the "fall back to a
// single thread for global collectives" policy.
func (s *System) EnableParallel(shards int) bool {
	if s.par != nil {
		return true
	}
	reason := ""
	switch {
	case shards < 2:
		reason = "fewer than 2 shards requested"
	case s.M.Topology != machine.Torus3D:
		reason = "machine is not a torus"
	case s.vnProxied():
		reason = "VN placement shares the NIC proxy core across slabs"
	case s.Tel != nil:
		reason = "telemetry aggregation is cross-domain shared state"
	case s.CP != nil:
		reason = "critical-path recording is cross-domain shared state"
	case s.Tracer != nil:
		reason = "tracer ordering is cross-domain shared state"
	case s.NoiseAmp > 0:
		reason = "noise RNG is a shared sequential stream"
	case s.ioAttached:
		reason = ioSharedReason
	}
	if reason == "" {
		part := torus.NewPartition(s.Fabric.Tor, shards)
		if part.NumDomains() < 2 {
			reason = fmt.Sprintf("torus %v has a single plane on the slab axis", s.Fabric.Tor)
		} else {
			sh := sim.NewSharded(part.NumDomains(), network.Lookahead(s.M))
			s.par = &parRun{sh: sh, part: part}
			s.Fabric.EnableParallel(sh, part)
			if s.Tl != nil {
				// Timeline recording stays ON under sharding: each domain
				// gets a private collector, folded deterministically after
				// the run (DESIGN.md §4k).
				s.Tl.Shard(part.NumDomains())
				s.Fabric.TimelineShard(s.Tl.Collectors())
			}
			s.rebindNodeResources()
			return true
		}
	}
	s.parReason = reason
	recordFallback("parallel", reason)
	return false
}

// DisableParallel reverts the system to the serial engine, recording why
// (surfaced by ParallelReason). Safe to call when already serial; must not
// be called once Run has started.
func (s *System) DisableParallel(reason string) {
	if s.par == nil {
		if reason != "" && s.parReason == "" {
			s.parReason = reason
		}
		return
	}
	s.par = nil
	s.parReason = reason
	recordFallback("parallel", reason)
	s.Fabric.DisableParallel()
	if s.Tl != nil {
		// Back to serial shape: fold the (traffic-free) domain collectors
		// and reinstall the single collector on the serial fabric path.
		s.Tl.Unshard()
		s.Fabric.EnableTimeline(s.Tl.Dom(0))
	}
	s.rebindNodeResources()
}

// ParallelEnabled reports whether the next Run uses the sharded scheduler.
func (s *System) ParallelEnabled() bool { return s.par != nil }

// ParallelDomains reports the shard count (0 when serial).
func (s *System) ParallelDomains() int {
	if s.par == nil {
		return 0
	}
	return s.par.part.NumDomains()
}

// ParallelReason explains why the system is running serially after an
// EnableParallel attempt (empty when parallel engaged or never requested).
func (s *System) ParallelReason() string { return s.parReason }

// DomainOf maps a node to its scheduling domain (0 when serial).
func (s *System) DomainOf(node int) int {
	if s.par == nil {
		return 0
	}
	return s.par.part.DomainOf(node)
}

// NumDomains reports how many per-domain pools layers above should size
// for: the shard count in parallel mode, 1 in serial mode.
func (s *System) NumDomains() int {
	if s.par == nil {
		return 1
	}
	return s.par.part.NumDomains()
}

// EngFor returns the engine that owns a node's events: the node's slab
// engine in parallel mode, the system engine otherwise.
func (s *System) EngFor(node int) *sim.Engine {
	if s.par == nil {
		return s.Eng
	}
	return s.par.sh.Engine(s.par.part.DomainOf(node))
}

// rebindNodeResources rebuilds each node's processor-sharing resources on
// the engine that now owns the node, preserving capacities. PSResources
// schedule their own completion events, so they must live on the engine
// whose domain executes the node's ranks.
func (s *System) rebindNodeResources() {
	for i, n := range s.Nodes {
		eng := s.EngFor(i)
		n.Stream = sim.NewPSResource(eng, n.Stream.Capacity)
		n.Random = sim.NewPSResource(eng, n.Random.Capacity)
	}
}

// ParallelStats returns the per-domain window statistics of a completed
// sharded run (nil when serial). All fields except BarrierStallSeconds are
// deterministic; see sim.DomainStats.
func (s *System) ParallelStats() []sim.DomainStats {
	if s.par == nil {
		return nil
	}
	return s.par.sh.Stats()
}

// ParallelForeignHops reports route hops the sharded fabric priced without
// contention because they left the sending slab; zero means the run was in
// the byte-identical equivalence class (see network.Fabric.ForeignHops).
func (s *System) ParallelForeignHops() uint64 {
	return s.Fabric.ForeignHops()
}

// ParallelTelemetry assembles the sharded scheduler's window statistics as
// a telemetry export; nil when the run was serial. Call after Run. All
// fields except the barrier stalls are deterministic — strip those
// (telemetry.ParallelReport.StripWallClock) before embedding the report in
// deterministic output.
func (s *System) ParallelTelemetry() *telemetry.ParallelReport {
	if s.par == nil {
		return nil
	}
	stats := s.par.sh.Stats()
	msgs := s.Fabric.DomainMsgs()
	rep := &telemetry.ParallelReport{
		SchemaVersion:    telemetry.SchemaVersion,
		LookaheadSeconds: float64(s.par.sh.Lookahead()),
		ForeignHops:      s.Fabric.ForeignHops(),
		Domains:          make([]telemetry.DomainWindowStats, len(stats)),
	}
	for i, d := range stats {
		rep.Domains[i] = telemetry.DomainWindowStats{
			Domain:              d.Domain,
			Windows:             d.Windows,
			Events:              d.Events,
			PostsOut:            d.PostsOut,
			PostsIn:             d.PostsIn,
			BarrierStallSeconds: d.BarrierStallSeconds,
		}
		if i < len(msgs) {
			rep.Domains[i].MsgsDelivered = msgs[i]
		}
	}
	return rep
}
