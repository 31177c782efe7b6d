package core

import (
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/torus"
)

// parRun is the planned sharded engine, nil on every other engine.
type parRun struct {
	sh   *sim.ShardedEngine
	part torus.Partition
}

// EnableParallel requests the conservative sharded scheduler on `shards`
// torus slab domains (sim.ShardedEngine + torus.Partition + the fabric's
// domain ledgers; DESIGN.md §4h). It records the request and reports the
// admission table's current verdict (admission.go); the engine is fixed
// when the first mpi.NewWorld/Run or System.Run plans it, and
// ParallelReason explains a decline. Call it before that point.
func (s *System) EnableParallel(shards int) bool {
	s.configure("EnableParallel")
	s.req |= sharded
	s.shards = shards
	return s.ParallelEnabled()
}

// ParallelEnabled reports whether the system runs on the sharded
// scheduler: the planned engine once planned, the table's current verdict
// on the request before.
func (s *System) ParallelEnabled() bool {
	if s.planned {
		return s.par != nil
	}
	return s.req&sharded != 0 && s.declined(sharded) == ""
}

// ParallelReason explains why an EnableParallel request declines (empty
// when it is admitted or was never made).
func (s *System) ParallelReason() string {
	if !s.planned && s.req&sharded != 0 {
		return s.declined(sharded)
	}
	return s.parReason
}

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
