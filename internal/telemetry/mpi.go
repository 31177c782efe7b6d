package telemetry

import "math/bits"

// histBuckets bounds the log2 message-size histogram: bucket k counts
// messages of size [2^(k-1), 2^k) bytes (bucket 0 counts zero-byte
// messages), so 48 buckets cover sizes past 100 TB.
const histBuckets = 48

// maxSeriesBuckets bounds the in-memory time-series length. When a sample
// lands beyond it the series halves its resolution (adjacent buckets merge,
// the bucket width doubles) — deterministic, and O(1) amortised per sample.
const maxSeriesBuckets = 4096

// exportSeriesMax bounds the *exported* series length; Report merges the
// raw series down to at most this many points so a JSON block stays
// readable for arbitrarily long runs.
const exportSeriesMax = 64

// defaultBucketSeconds is the initial time-series resolution (100 µs of
// simulated time); runs longer than maxSeriesBuckets × this degrade
// resolution by doubling.
const defaultBucketSeconds = 1e-4

// OpCounter accumulates one operation class on one communicator.
type OpCounter struct {
	// Calls and Seconds count top-level blocking entries into the class and
	// the simulated time spent in them (the Profile attribution rules:
	// point-to-point traffic inside an algorithmic collective counts toward
	// the collective).
	Calls   uint64
	Seconds float64
	// Msgs and Bytes count messages injected while this class was the
	// innermost attributed operation, and their payload bytes.
	Msgs  uint64
	Bytes int64
	// Hist is the log2 message-size histogram (see histBuckets).
	Hist [histBuckets]uint64
}

// commStats holds one communicator's size and per-operation counters.
type commStats struct {
	size int
	ops  []OpCounter
}

// seriesCell is one time bucket of the injection series.
type seriesCell struct {
	bytes int64
	msgs  uint64
}

// MPIStats collects MPI-layer telemetry for one World: per-communicator
// operation counters plus a time series of injected bytes in
// simulated-time buckets. A world numbers its communicators densely, so
// comms is indexed by id and the per-op hot path is two slice indexes,
// never a map lookup.
type MPIStats struct {
	opNames []string
	comms   []*commStats // by communicator id; nil where none registered
	bucket  float64
	series  []seriesCell
}

// NewMPIStats creates a collector. opNames maps operation indices (the MPI
// package's OpClass values) to display names; bucketSeconds sets the
// initial time-series resolution (0 uses the default, 100 µs).
func NewMPIStats(opNames []string, bucketSeconds float64) *MPIStats {
	if bucketSeconds <= 0 {
		bucketSeconds = defaultBucketSeconds
	}
	return &MPIStats{opNames: opNames, bucket: bucketSeconds}
}

// Comm registers communicator id with the given size; the first
// registration of an id holds.
func (m *MPIStats) Comm(id, size int) {
	for len(m.comms) <= id {
		m.comms = append(m.comms, nil)
	}
	if m.comms[id] == nil {
		m.comms[id] = &commStats{size: size, ops: make([]OpCounter, len(m.opNames))}
	}
}

// EndOp attributes one completed top-level operation of class op on
// registered communicator comm.
func (m *MPIStats) EndOp(comm, op int, seconds float64) {
	oc := &m.comms[comm].ops[op]
	oc.Calls++
	oc.Seconds += seconds
}

// Message records one injected message at simulated time now, attributed to
// operation class op on registered communicator comm.
func (m *MPIStats) Message(comm, op int, now float64, bytes int64) {
	oc := &m.comms[comm].ops[op]
	oc.Msgs++
	oc.Bytes += bytes
	k := bits.Len64(uint64(bytes))
	if k >= histBuckets {
		k = histBuckets - 1
	}
	oc.Hist[k]++

	idx := int(now / m.bucket)
	for idx >= maxSeriesBuckets {
		halveSeries(&m.series, &m.bucket)
		idx = int(now / m.bucket)
	}
	for len(m.series) <= idx {
		m.series = append(m.series, seriesCell{})
	}
	m.series[idx].bytes += bytes
	m.series[idx].msgs++
}

// halveSeries merges adjacent buckets and doubles the bucket width.
func halveSeries(series *[]seriesCell, bucket *float64) {
	s := *series
	n := (len(s) + 1) / 2
	for i := 0; i < n; i++ {
		a := s[2*i]
		var b seriesCell
		if 2*i+1 < len(s) {
			b = s[2*i+1]
		}
		s[i] = seriesCell{bytes: a.bytes + b.bytes, msgs: a.msgs + b.msgs}
	}
	*series = s[:n]
	*bucket *= 2
}

// HistBucket is one non-empty log2 size-histogram bucket: Count messages
// with payload size in [LtBytes/2, LtBytes) — except the zero-size bucket,
// whose LtBytes is 1.
type HistBucket struct {
	LtBytes int64  `json:"lt_bytes"`
	Count   uint64 `json:"count"`
}

// OpReport is the exported form of one operation class on one communicator.
type OpReport struct {
	Op      string       `json:"op"`
	Calls   uint64       `json:"calls"`
	Seconds float64      `json:"seconds"`
	Msgs    uint64       `json:"msgs,omitempty"`
	Bytes   int64        `json:"bytes,omitempty"`
	Hist    []HistBucket `json:"size_hist,omitempty"`
}

// CommReport is the exported form of one communicator.
type CommReport struct {
	ID   int        `json:"id"`
	Size int        `json:"size"`
	Ops  []OpReport `json:"ops"`
}

// SeriesPoint is one exported time bucket: Bytes payload injected in
// [T, T+BucketSeconds) of simulated time.
type SeriesPoint struct {
	T     float64 `json:"t"`
	Bytes int64   `json:"bytes"`
	Msgs  uint64  `json:"msgs"`
}

// MPIReport is the exported MPI-layer telemetry.
type MPIReport struct {
	BucketSeconds float64       `json:"bucket_seconds"`
	Comms         []CommReport  `json:"comms"`
	Series        []SeriesPoint `json:"series,omitempty"`
}

// Report assembles the deterministic export: communicators in id order,
// operations in class order (only classes that were used), the series
// merged down to at most exportSeriesMax points. Safe on a nil collector
// (returns nil), so callers can forward it unconditionally.
func (m *MPIStats) Report() *MPIReport {
	if m == nil {
		return nil
	}
	rep := &MPIReport{BucketSeconds: m.bucket}
	for id, c := range m.comms {
		if c == nil {
			continue
		}
		cr := CommReport{ID: id, Size: c.size}
		for op := range c.ops {
			oc := &c.ops[op]
			if oc.Calls == 0 && oc.Msgs == 0 {
				continue
			}
			or := OpReport{
				Op:      m.opNames[op],
				Calls:   oc.Calls,
				Seconds: oc.Seconds,
				Msgs:    oc.Msgs,
				Bytes:   oc.Bytes,
			}
			for k, n := range oc.Hist {
				if n == 0 {
					continue
				}
				lt := int64(1)
				if k > 0 {
					lt = 1 << uint(k)
				}
				or.Hist = append(or.Hist, HistBucket{LtBytes: lt, Count: n})
			}
			cr.Ops = append(cr.Ops, or)
		}
		rep.Comms = append(rep.Comms, cr)
	}

	series := append([]seriesCell(nil), m.series...)
	bucket := m.bucket
	for len(series) > exportSeriesMax {
		halveSeries(&series, &bucket)
	}
	rep.BucketSeconds = bucket
	for i, cell := range series {
		if cell.msgs == 0 {
			continue
		}
		rep.Series = append(rep.Series, SeriesPoint{T: float64(i) * bucket, Bytes: cell.bytes, Msgs: cell.msgs})
	}
	return rep
}
