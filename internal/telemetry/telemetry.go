// Package telemetry is the simulator's opt-in observability layer:
// per-resource utilization reports over the counters the engine's
// reservation probe (timeline.Probe) accumulates, per-communicator MPI
// operation statistics, and deterministic exports — a JSON document and a
// text congestion heatmap over the torus.
//
// The paper's conclusions are balance arguments (NIC injection bandwidth,
// VN-mode NIC sharing, per-link occupancy); this package is what lets an
// experiment *show* those balances as utilization numbers instead of
// inferring them from end-to-end times.
//
// Design invariants (DESIGN.md §4e):
//
//   - Zero cost when disabled. Instrumented packages hold a single
//     nil-gated pointer (the probe, or the MPI collector); with telemetry
//     off the hot paths pay one nil check and allocate nothing.
//   - Deterministic exports. The simulator is deterministic, and every
//     rendering here iterates slices or sorts keys — never a bare map — so
//     running the same experiment twice yields byte-identical output.
//   - Counter semantics. Busy seconds and reservation counts come from the
//     sim.FIFOResource being observed (pre-existing fields, no added hot-path
//     work); queue-wait seconds and payload bytes accumulate in the probe,
//     and per-op message histograms and time-series injection samples
//     here, each behind its one nil gate, so the telemetry-off hot paths
//     are untouched.
package telemetry

// SchemaVersion identifies the telemetry report layout (JSON);
// bump on incompatible changes. EXPERIMENTS.md documents the schema.
const SchemaVersion = 1

// Set is the MPI side of one simulated system's telemetry. core.System owns
// one when telemetry is enabled, and mpi.NewWorld attaches its collector.
// The fabric's and the filesystem's per-resource counters live in the
// engine's reservation probe (timeline.Probe).
type Set struct {
	// MPI holds the MPI runtime's per-communicator statistics.
	MPI *MPIStats
}

// ClassSummary aggregates the counters of one resource class (all torus
// links, all NIC injection ports, …) or one labelled subgroup (the links of
// one torus dimension).
type ClassSummary struct {
	// Class labels the group: "link", "nic_tx", "nic_rx", "vn_proxy", or a
	// dimension name for per-dimension link summaries.
	Class string `json:"class"`
	// Resources is the number of resources aggregated.
	Resources int `json:"resources"`
	// BusySeconds is total occupied time summed over the class.
	BusySeconds float64 `json:"busy_seconds"`
	// WaitSeconds is total queue-wait time (reservations queued behind
	// earlier ones) summed over the class.
	WaitSeconds float64 `json:"wait_seconds"`
	// Bytes is total payload bytes serialised through the class.
	Bytes int64 `json:"bytes"`
	// Reservations is the total reservation count.
	Reservations uint64 `json:"reservations"`
	// MeanUtilization is BusySeconds / (Resources × horizon); 0 when the
	// horizon or the class is empty.
	MeanUtilization float64 `json:"mean_utilization"`
	// MaxUtilization is the busiest single resource's busy/horizon.
	MaxUtilization float64 `json:"max_utilization"`
	// Busiest labels the busiest resource (ties break toward the lowest
	// index, keeping the label deterministic); empty when the class is idle.
	Busiest string `json:"busiest,omitempty"`
}

// ClassAgg folds per-resource counter samples into a ClassSummary. Callers
// feed every resource of the class in index order; the aggregator tracks
// which index was busiest so the caller can attach a label afterwards.
type ClassAgg struct {
	s       ClassSummary
	horizon float64
	maxBusy float64
	maxIdx  int
}

// NewClassAgg starts an aggregation over [0, horizon].
func NewClassAgg(class string, horizon float64) *ClassAgg {
	return &ClassAgg{s: ClassSummary{Class: class}, horizon: horizon, maxIdx: -1}
}

// Add folds in one resource's counters, in index order.
func (a *ClassAgg) Add(busy, wait float64, bytes int64, count uint64) {
	i := a.s.Resources
	a.s.Resources++
	a.s.BusySeconds += busy
	a.s.WaitSeconds += wait
	a.s.Bytes += bytes
	a.s.Reservations += count
	if busy > a.maxBusy {
		a.maxBusy = busy
		a.maxIdx = i
	}
}

// MaxIndex reports the index of the busiest resource added so far, or -1 if
// every resource was idle.
func (a *ClassAgg) MaxIndex() int { return a.maxIdx }

// Summary finalises the aggregation. The caller may set Busiest on the
// returned value using MaxIndex.
func (a *ClassAgg) Summary() ClassSummary {
	s := a.s
	if a.horizon > 0 && s.Resources > 0 {
		s.MeanUtilization = Round6(s.BusySeconds / (float64(s.Resources) * a.horizon))
		s.MaxUtilization = Round6(a.maxBusy / a.horizon)
	}
	return s
}

// Round6 fixes fractions (utilizations, shares) to 1e-6 resolution so
// exported values are compact and their formatting is stable. Shared by
// the telemetry, MPI-profile, critical-path and timeline exports.
func Round6(v float64) float64 {
	return float64(int64(v*1e6+0.5)) / 1e6
}
