package telemetry

import (
	"encoding/json"
	"io"
)

// Parallel-scheduler window statistics (DESIGN.md §4h). Unlike the fabric
// and MPI collectors — which are cross-domain shared state and therefore
// mutually exclusive with the sharded scheduler — these are aggregated by
// the scheduler's own coordinator between windows, so they are available
// exactly when the rest of the telemetry subsystem is not.

// DomainWindowStats is one scheduling domain's window summary.
type DomainWindowStats struct {
	// Domain is the slab index along the partition axis.
	Domain int `json:"domain"`
	// Windows is how many time windows the domain executed events in.
	Windows uint64 `json:"windows"`
	// Events is the number of events the domain's engine executed.
	Events uint64 `json:"events"`
	// PostsOut / PostsIn count cross-domain arrivals sent / received
	// through the window-boundary merge.
	PostsOut uint64 `json:"posts_out"`
	PostsIn  uint64 `json:"posts_in"`
	// MsgsDelivered is the fabric's per-domain delivered-message count.
	MsgsDelivered uint64 `json:"msgs_delivered"`
	// BarrierStallSeconds is wall-clock time the domain's worker spent
	// waiting at window barriers. It is the one nondeterministic field
	// (everything else depends only on the simulated workload); strip it
	// with StripWallClock before embedding the report in deterministic
	// output.
	BarrierStallSeconds float64 `json:"barrier_stall_seconds"`
}

// ParallelReport is the sharded-scheduler telemetry export of one run.
type ParallelReport struct {
	SchemaVersion int `json:"schema_version"`
	// LookaheadSeconds is the conservative window lookahead used.
	LookaheadSeconds float64 `json:"lookahead_seconds"`
	// ForeignHops counts route hops priced without contention because they
	// left the sending slab; zero means the run was in the byte-identical
	// equivalence class.
	ForeignHops uint64              `json:"foreign_hops"`
	Domains     []DomainWindowStats `json:"domains"`
}

// StripWallClock returns a copy of the report with the wall-clock fields
// zeroed, so the copy is a pure function of the simulated workload. The
// receiver is left untouched — callers can export the deterministic form
// and still read the original's stall measurements afterwards.
func (r *ParallelReport) StripWallClock() *ParallelReport {
	out := *r
	out.Domains = append([]DomainWindowStats(nil), r.Domains...)
	for i := range out.Domains {
		out.Domains[i].BarrierStallSeconds = 0
	}
	return &out
}

// WriteJSON writes the report as indented JSON; deterministic after
// StripWallClock (struct fields marshal in declaration order, no maps).
func (r *ParallelReport) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
