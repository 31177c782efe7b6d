package telemetry

import "fmt"

// I/O telemetry: counters for the Lustre checkpoint/IO subsystem. They
// ride on the engine's reservation probe (timeline.Probe), which the
// lustre filesystem holds as its one observer pointer; with telemetry off
// every instrumented transfer path pays a single nil check and allocates
// nothing. The report side (IOReport) is assembled by
// lustre.FS.TelemetryReport at export time from these counters plus the
// filesystem's own resource state.

// IOHistBuckets is the bucket count of the client write-time histogram:
// bucket 0 holds writes under 1 µs, bucket i holds [2^(i-1), 2^i) µs, and
// the last bucket is unbounded (≥ ~4.2 s).
const IOHistBuckets = 24

// IOHistBucket maps a client write duration in seconds to its histogram
// bucket index.
func IOHistBucket(seconds float64) int {
	upper := 1e-6
	for i := 0; i < IOHistBuckets-1; i++ {
		if seconds < upper {
			return i
		}
		upper *= 2
	}
	return IOHistBuckets - 1
}

// IOHistUpperSeconds returns bucket i's exclusive upper bound in seconds,
// 2^i µs. The last bucket is unbounded, so its value here is not a real
// bound; IOReport exports it as le_seconds 0.
func IOHistUpperSeconds(i int) float64 {
	upper := 1e-6
	for ; i > 0; i-- {
		upper *= 2
	}
	return upper
}

// IOStats holds the I/O hot-path counters: per-OST payload bytes, client
// byte totals, and the log2 histogram of client-visible write times.
// Indexing matches the filesystem's own OST numbering. MDS operation
// counts and busy time live on the filesystem's FIFOResource and are read
// at report time, so they cost the hot path nothing here.
type IOStats struct {
	// OSTBytes counts all payload bytes (reads + writes) served by each OST.
	OSTBytes []int64
	// OSTWriteBytes counts write payload bytes per OST — the conservation
	// check's right-hand side.
	OSTWriteBytes []int64
	// ClientBytesWritten / ClientBytesRead total the client-side request
	// sizes; conservation demands ClientBytesWritten == Σ OSTWriteBytes.
	ClientBytesWritten int64
	ClientBytesRead    int64
	// WriteHist counts completed client writes by duration (log2 buckets,
	// see IOHistBucket); WriteCount and WriteSeconds total them.
	WriteHist    [IOHistBuckets]uint64
	WriteCount   uint64
	WriteSeconds float64
}

// NewIOStats sizes the per-OST counter slices.
func NewIOStats(osts int) *IOStats {
	return &IOStats{
		OSTBytes:      make([]int64, osts),
		OSTWriteBytes: make([]int64, osts),
	}
}

// ObserveWrite records one completed client-visible write of the given
// duration.
func (s *IOStats) ObserveWrite(seconds float64) {
	s.WriteHist[IOHistBucket(seconds)]++
	s.WriteCount++
	s.WriteSeconds += seconds
}

// IOHistCell is one populated bucket of the exported write-time histogram.
type IOHistCell struct {
	// LeSeconds is the bucket's exclusive upper bound (0 marks the
	// unbounded last bucket).
	LeSeconds float64 `json:"le_seconds"`
	Count     uint64  `json:"count"`
}

// IOReport is the exported I/O telemetry of one run: MDS pressure, client
// byte totals, the per-OST byte distribution with bandwidth utilizations,
// and the client write-time histogram. Built by lustre.FS.TelemetryReport.
type IOReport struct {
	// OSTs is the OST count of the deployment.
	OSTs int `json:"osts"`
	// MDSOps and MDSBusySeconds describe the single metadata server (§2's
	// bottleneck); MDSUtilization is busy/horizon.
	MDSOps         uint64  `json:"mds_ops"`
	MDSBusySeconds float64 `json:"mds_busy_seconds"`
	MDSUtilization float64 `json:"mds_utilization"`
	// Client byte totals, as issued by compute-node clients.
	ClientBytesWritten int64 `json:"client_bytes_written"`
	ClientBytesRead    int64 `json:"client_bytes_read"`
	// Per-OST payload bytes (all traffic) and write-only bytes.
	OSTBytes      []int64 `json:"ost_bytes"`
	OSTWriteBytes []int64 `json:"ost_write_bytes"`
	// OST bandwidth utilizations over the horizon: bytes served divided by
	// OSTBandwidth × horizon, mean and max across OSTs; BusiestOST is the
	// max's index (ties toward the lowest index).
	OSTMeanUtilization float64 `json:"ost_mean_utilization"`
	OSTMaxUtilization  float64 `json:"ost_max_utilization"`
	BusiestOST         int     `json:"busiest_ost"`
	// Client write-time histogram (populated buckets only).
	WriteCount   uint64       `json:"write_count"`
	WriteSeconds float64      `json:"write_seconds"`
	WriteHist    []IOHistCell `json:"write_hist,omitempty"`
}

// CheckConservation verifies the I/O byte accounting: every byte a client
// wrote must land on exactly one OST, and the all-traffic per-OST total
// must equal reads plus writes. A violation means an instrumentation point
// is missing or double-counting (DESIGN.md §4j).
func (r *IOReport) CheckConservation() error {
	var wrote, all int64
	for _, b := range r.OSTWriteBytes {
		wrote += b
	}
	for _, b := range r.OSTBytes {
		all += b
	}
	if wrote != r.ClientBytesWritten {
		return fmt.Errorf("telemetry: per-OST write bytes sum to %d, but clients wrote %d", wrote, r.ClientBytesWritten)
	}
	if want := r.ClientBytesWritten + r.ClientBytesRead; all != want {
		return fmt.Errorf("telemetry: per-OST bytes sum to %d, but clients issued %d", all, want)
	}
	return nil
}
