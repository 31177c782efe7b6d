// Package timeline is the simulator's flight recorder: a nil-gated,
// opt-in collector that samples resource reservations (torus links, NIC
// injection ports, VN-mode handling cores, Lustre OSTs) into fixed
// simulated-time bins and records application-emitted phase spans
// (compute / halo / collective / ckpt), then joins the two into
// per-iteration, per-phase resource breakdowns at export time. It also
// hosts the Probe, the one reservation observer that feeds these bins,
// telemetry's per-resource counters and the critical-path edge stages.
//
// Where the telemetry package answers "how much, in total", this package
// answers "when": the paper's findings — CAM/POP load imbalance (§6), the
// checkpoint-epoch interference window (DESIGN.md §4j) — are visible only
// as utilization *over time*, and the variability campaigns of ROADMAP
// item 5 need exactly this instrument.
//
// Design invariants (DESIGN.md §4k):
//
//   - Zero cost when disabled: instrumented packages hold one nil-gated
//     Probe; off, every reservation site pays a single nil check and
//     allocates nothing (pinned by TestSendRecvZeroAllocsWithTimelineOff).
//
//   - Integer-exact accumulation: sample endpoints are converted once to
//     integer nanoseconds on a fixed grid; each bin accumulates exact
//     integer overlaps, so addition is associative and commutative —
//     fold order cannot change a single bit.
//
//   - Bounded memory: bins follow the telemetry halveSeries idiom (merge
//     adjacent bins, double the width, never past maxBins); phase spans
//     are capped per rank, so the drop set is a pure function of each
//     rank's own program and cannot depend on sharding.
//
//   - Deterministic shard fold: under the sharded scheduler every domain
//     owns a private Collector (worker-local, no shared state). The fold
//     aligns widths by halving the finer collectors — the final width is
//     the smallest that fits the latest sample, the same value the serial
//     collector converges to — then adds bins elementwise and merges
//     spans in (rank, seq) order. A run in the byte-identical equivalence
//     class therefore exports byte-identical timelines at every shard
//     count.
package timeline

import "sort"

// Class enumerates the sampled resource classes.
type Class int

const (
	// Link is the torus links class (directed, dense link ids).
	Link Class = iota
	// NIC is the injection-port class (one per node).
	NIC
	// VNProxy is the VN-mode message-handling core class (one per node).
	VNProxy
	// OST is the Lustre object-storage-target disk class.
	OST
	numClasses
)

// ClassName returns the stable export label of a class.
func ClassName(c Class) string {
	switch c {
	case Link:
		return "link"
	case NIC:
		return "nic"
	case VNProxy:
		return "vn_proxy"
	case OST:
		return "ost"
	}
	return "unknown"
}

const (
	// baseBinNs is the initial bin width: 100 µs of simulated time in
	// integer nanoseconds, matching the telemetry series' default bucket.
	baseBinNs = 100_000
	// maxBins bounds the in-memory series length (the halveSeries cap):
	// past it the bins merge pairwise and the width doubles.
	maxBins = 4096
	// exportBins bounds the exported series length, like the telemetry
	// exportSeriesMax: reports merge down to at most this many bins.
	exportBins = 64
	// maxSpansPerRank caps recorded phase spans per rank. The cap is
	// per-rank (not per-collector) so the drop set is identical at every
	// shard count: a rank always lands in exactly one domain.
	maxSpansPerRank = 512
)

// toNs converts seconds of simulated time to the integer-nanosecond grid.
// Conversion happens exactly once per endpoint, at the sampling site, so
// every later computation is exact integer arithmetic.
func toNs(sec float64) int64 {
	return int64(sec*1e9 + 0.5)
}

// bin is one fixed-width time bin of one resource class: exact integer
// nanoseconds of busy (serialisation) and wait (queued behind earlier
// reservations) time accumulated over all resources of the class, plus the
// number of reservations that began in the bin (the queue-pressure count).
type bin struct {
	busy  int64
	wait  int64
	count int64
}

// Span is one recorded phase: rank's program emitted it (or the MPI
// runtime did, for collectives and I/O regions). Seq is the rank-local
// emission index — the deterministic merge key under sharding.
type Span struct {
	Rank    int32
	Seq     int32
	Iter    int32
	Name    string
	StartNs int64
	EndNs   int64
}

// Collector accumulates samples for one scheduling domain. In serial runs
// there is exactly one; under the sharded scheduler each domain worker owns
// a private Collector and the Recorder folds them after the terminal window
// barrier. Methods are not safe for concurrent use — each Collector belongs
// to exactly one worker, which is the whole point.
type Collector struct {
	widthNs int64
	bins    [numClasses][]bin
	spans   []Span
	dropped int64
}

func newCollector() *Collector {
	return &Collector{widthNs: baseBinNs}
}

// Sample records one reservation of a class-c resource: requested at reqAt,
// actually started at startAt (the gap is queue wait), occupied until endAt.
// Times are seconds of simulated time; conversion to the integer grid
// happens here, once.
func (c *Collector) Sample(cl Class, reqAt, startAt, endAt float64) {
	req, start, end := toNs(reqAt), toNs(startAt), toNs(endAt)
	if start < req {
		start = req
	}
	if end < start {
		end = start
	}
	last := end - 1
	if last < req {
		last = req
	}
	c.ensure(cl, last)
	c.bins[cl][req/c.widthNs].count++
	c.accrue(cl, req, start, true)
	c.accrue(cl, start, end, false)
}

// ensure grows class cl's bins to cover maxNs, halving the whole collector
// (all classes share one width) whenever the index would pass maxBins.
func (c *Collector) ensure(cl Class, maxNs int64) {
	for maxNs/c.widthNs >= maxBins {
		c.halve()
	}
	idx := int(maxNs / c.widthNs)
	for len(c.bins[cl]) <= idx {
		c.bins[cl] = append(c.bins[cl], bin{})
	}
}

// accrue distributes the exact integer overlap of [from, to) over the
// covered bins, into the wait or busy accumulator.
func (c *Collector) accrue(cl Class, from, to int64, wait bool) {
	if to <= from {
		return
	}
	w := c.widthNs
	b := c.bins[cl]
	for i := from / w; from < to; i++ {
		hi := (i + 1) * w
		if hi > to {
			hi = to
		}
		if wait {
			b[i].wait += hi - from
		} else {
			b[i].busy += hi - from
		}
		from = hi
	}
}

// halve merges adjacent bins of every class and doubles the width — the
// telemetry halveSeries idiom on integers, so the merge is exact.
func (c *Collector) halve() {
	for cl := range c.bins {
		s := c.bins[cl]
		if len(s) == 0 {
			continue
		}
		n := (len(s) + 1) / 2
		for i := 0; i < n; i++ {
			a := s[2*i]
			var b bin
			if 2*i+1 < len(s) {
				b = s[2*i+1]
			}
			s[i] = bin{busy: a.busy + b.busy, wait: a.wait + b.wait, count: a.count + b.count}
		}
		c.bins[cl] = s[:n]
	}
	c.widthNs *= 2
}

// Recorder is the per-system flight recorder: one Collector per scheduling
// domain plus the rank-indexed span bookkeeping (each index is touched only
// by its rank's domain worker, so the slices need no locking).
type Recorder struct {
	doms      []*Collector
	rankSpans []int32
	resources [numClasses]int
}

// NewRecorder creates a recorder for a system of numTasks ranks, starting
// in serial shape (one collector).
func NewRecorder(numTasks int) *Recorder {
	return &Recorder{
		doms:      []*Collector{newCollector()},
		rankSpans: make([]int32, numTasks),
	}
}

// SetResources records how many resources class cl has, so exports can
// normalise busy time into utilization. Zero leaves the class unnormalised.
func (r *Recorder) SetResources(cl Class, n int) { r.resources[cl] = n }

// Dom returns domain i's collector.
func (r *Recorder) Dom(i int) *Collector { return r.doms[i] }

// Shard reshapes the recorder for n scheduling domains. Existing samples
// (normally none — sharding is decided before traffic) stay in domain 0.
func (r *Recorder) Shard(n int) {
	r.Fold()
	for len(r.doms) < n {
		r.doms = append(r.doms, newCollector())
	}
}

// Span records one phase span for rank on domain dom. Spans beyond the
// per-rank cap are dropped (counted), and because the cap is per rank the
// drop set is independent of the domain partition.
func (r *Recorder) Span(dom, rank int, name string, iter int, start, end float64) {
	if r.rankSpans[rank] >= maxSpansPerRank {
		r.doms[dom].dropped++
		return
	}
	r.rankSpans[rank]++
	r.doms[dom].spans = append(r.doms[dom].spans, Span{
		Rank:    int32(rank),
		Seq:     r.rankSpans[rank],
		Iter:    int32(iter),
		Name:    name,
		StartNs: toNs(start),
		EndNs:   toNs(end),
	})
}

// Fold merges every domain collector into one, deterministically: widths
// align by halving the finer collectors (reaching exactly the width the
// serial collector would have used for the same latest sample), bins add
// elementwise as exact integers, spans concatenate and sort by (rank, seq).
// Idempotent; must only be called once the domain workers have stopped
// (System.Run folds after the terminal window barrier).
func (r *Recorder) Fold() {
	if len(r.doms) <= 1 {
		return
	}
	w := r.doms[0].widthNs
	for _, d := range r.doms[1:] {
		if d.widthNs > w {
			w = d.widthNs
		}
	}
	dst := r.doms[0]
	for _, d := range r.doms {
		for d.widthNs < w {
			d.halve()
		}
	}
	for _, d := range r.doms[1:] {
		for cl := range d.bins {
			src := d.bins[cl]
			for len(dst.bins[cl]) < len(src) {
				dst.bins[cl] = append(dst.bins[cl], bin{})
			}
			for i := range src {
				dst.bins[cl][i].busy += src[i].busy
				dst.bins[cl][i].wait += src[i].wait
				dst.bins[cl][i].count += src[i].count
			}
		}
		dst.spans = append(dst.spans, d.spans...)
		dst.dropped += d.dropped
	}
	sortSpans(dst.spans)
	r.doms = r.doms[:1]
}

// sortSpans orders spans by (rank, seq) — a total order, since seq is the
// rank-local emission index.
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Rank != spans[j].Rank {
			return spans[i].Rank < spans[j].Rank
		}
		return spans[i].Seq < spans[j].Seq
	})
}
