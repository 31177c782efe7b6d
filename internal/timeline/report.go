package timeline

import (
	"encoding/json"
	"io"
	"sort"

	"xtsim/internal/telemetry"
)

// SchemaVersion identifies the timeline report layout (JSON and the Chrome
// span export); bump on incompatible changes.
// EXPERIMENTS.md documents the schema.
const SchemaVersion = 1

// BinPoint is one populated time bin of one resource class: total busy and
// queue-wait seconds over all resources of the class in [T, T+BinSeconds),
// the number of reservations that began in the bin, and — when the class's
// resource count is known — the mean utilization busy/(resources×width).
type BinPoint struct {
	T           float64 `json:"t"`
	BusySeconds float64 `json:"busy_seconds"`
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
	Count       int64   `json:"count"`
	Utilization float64 `json:"utilization,omitempty"`
}

// ClassSeries is one resource class's binned series (populated bins only).
type ClassSeries struct {
	Class     string     `json:"class"`
	Resources int        `json:"resources,omitempty"`
	Bins      []BinPoint `json:"bins"`
}

// BinPhase annotates one time bin with its dominant phase: the phase name
// whose spans covered the most rank-time in the bin (ties break toward the
// lexicographically smaller name).
type BinPhase struct {
	T     float64 `json:"t"`
	Phase string  `json:"phase"`
	// CoverSeconds is the dominant phase's total rank-time in the bin
	// (summed over ranks, so it can exceed the bin width).
	CoverSeconds float64 `json:"cover_seconds"`
}

// IterPhase is one row of the per-iteration, per-phase resource breakdown:
// how much rank-time iteration Iter spent in phase Phase, the union window
// those spans cover, and the share of each resource class's busy time that
// falls inside that window (bin overlaps share-weighted, computed on the
// folded integer bins — deterministic).
type IterPhase struct {
	Iter        int     `json:"iter"`
	Phase       string  `json:"phase"`
	Spans       int     `json:"spans"`
	SpanSeconds float64 `json:"span_seconds"`
	// WindowSeconds is the length of the union of the phase's spans.
	WindowSeconds float64 `json:"window_seconds"`
	// Per-class busy seconds attributed to the phase window.
	LinkBusySeconds    float64 `json:"link_busy_seconds"`
	NICBusySeconds     float64 `json:"nic_busy_seconds"`
	VNProxyBusySeconds float64 `json:"vn_proxy_busy_seconds,omitempty"`
	OSTBusySeconds     float64 `json:"ost_busy_seconds,omitempty"`
}

// PhaseSpan is one exported phase span (rank 0's only: the JSON document
// stays readable at paper scale; the Chrome export carries every rank).
type PhaseSpan struct {
	Rank         int     `json:"rank"`
	Iter         int     `json:"iter"`
	Phase        string  `json:"phase"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
}

// Report is the deterministic timeline export of one run.
type Report struct {
	SchemaVersion  int     `json:"schema_version"`
	HorizonSeconds float64 `json:"horizon_seconds"`
	// BinSeconds is the exported bin width (the in-memory width possibly
	// halved further so at most exportBins bins are emitted).
	BinSeconds float64 `json:"bin_seconds"`
	// Classes holds one binned series per resource class that saw traffic.
	Classes []ClassSeries `json:"classes,omitempty"`
	// Phases annotates each bin with its dominant phase.
	Phases []BinPhase `json:"phases,omitempty"`
	// Iterations is the per-iteration, per-phase resource breakdown,
	// sorted by (iter, phase).
	Iterations []IterPhase `json:"iterations,omitempty"`
	// Spans counts recorded phase spans over all ranks; DroppedSpans
	// counts spans discarded at the per-rank cap.
	Spans        int   `json:"spans"`
	DroppedSpans int64 `json:"dropped_spans"`
	// Rank0Spans lists rank 0's spans verbatim, a readable sample of the
	// full span set.
	Rank0Spans []PhaseSpan `json:"rank0_spans,omitempty"`

	// all retains every span for WriteChromeTrace.
	all []Span
}

// Report folds the recorder (idempotent) and assembles the deterministic
// export over [0, horizon].
func (r *Recorder) Report(horizon float64) *Report {
	r.Fold()
	c := r.doms[0]

	// Export resolution: copy the bins and halve until the longest class
	// fits exportBins. The copy leaves the collector intact.
	exp := &Collector{widthNs: c.widthNs}
	maxLen := 0
	for cl := range c.bins {
		exp.bins[cl] = append([]bin(nil), c.bins[cl]...)
		if len(exp.bins[cl]) > maxLen {
			maxLen = len(exp.bins[cl])
		}
	}
	for maxLen > exportBins {
		exp.halve()
		maxLen = (maxLen + 1) / 2
	}
	w := exp.widthNs

	spans := append([]Span(nil), c.spans...)
	sortSpans(spans)

	rep := &Report{
		SchemaVersion:  SchemaVersion,
		HorizonSeconds: horizon,
		BinSeconds:     float64(w) / 1e9,
		Spans:          len(spans),
		DroppedSpans:   c.dropped,
		all:            spans,
	}

	for cl := Class(0); cl < numClasses; cl++ {
		bins := exp.bins[cl]
		var points []BinPoint
		for i, b := range bins {
			if b.busy == 0 && b.wait == 0 && b.count == 0 {
				continue
			}
			p := BinPoint{
				T:           float64(int64(i)*w) / 1e9,
				BusySeconds: float64(b.busy) / 1e9,
				WaitSeconds: float64(b.wait) / 1e9,
				Count:       b.count,
			}
			if n := r.resources[cl]; n > 0 {
				p.Utilization = telemetry.Round6(float64(b.busy) / (float64(n) * float64(w)))
			}
			points = append(points, p)
		}
		if points != nil {
			rep.Classes = append(rep.Classes, ClassSeries{
				Class:     ClassName(cl),
				Resources: r.resources[cl],
				Bins:      points,
			})
		}
	}

	rep.Phases = dominantPhases(spans, w, maxLen)
	rep.Iterations = iterBreakdown(spans, exp, w)
	for _, s := range spans {
		if s.Rank != 0 {
			continue
		}
		rep.Rank0Spans = append(rep.Rank0Spans, PhaseSpan{
			Rank:         int(s.Rank),
			Iter:         int(s.Iter),
			Phase:        s.Name,
			StartSeconds: float64(s.StartNs) / 1e9,
			EndSeconds:   float64(s.EndNs) / 1e9,
		})
	}
	return rep
}

// dominantPhases computes each bin's dominant phase by exact integer
// coverage (rank-time of each phase overlapping the bin).
func dominantPhases(spans []Span, w int64, nBins int) []BinPhase {
	if len(spans) == 0 || nBins == 0 {
		return nil
	}
	cover := make(map[string][]int64)
	for _, s := range spans {
		arr := cover[s.Name]
		if arr == nil {
			arr = make([]int64, nBins)
			cover[s.Name] = arr
		}
		from, to := s.StartNs, s.EndNs
		if to > int64(nBins)*w {
			to = int64(nBins) * w
		}
		for i := from / w; from < to; i++ {
			hi := (i + 1) * w
			if hi > to {
				hi = to
			}
			arr[i] += hi - from
			from = hi
		}
	}
	names := make([]string, 0, len(cover))
	for name := range cover {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []BinPhase
	for i := 0; i < nBins; i++ {
		var best string
		var bestNs int64
		for _, name := range names {
			if ns := cover[name][i]; ns > bestNs {
				best, bestNs = name, ns
			}
		}
		if bestNs > 0 {
			out = append(out, BinPhase{
				T:            float64(int64(i)*w) / 1e9,
				Phase:        best,
				CoverSeconds: float64(bestNs) / 1e9,
			})
		}
	}
	return out
}

// iterBreakdown joins spans and bins into the per-(iteration, phase)
// resource attribution. All interval arithmetic is integer; the final
// busy-share products are computed in one fixed order on identical
// integers, so the output is deterministic.
func iterBreakdown(spans []Span, c *Collector, w int64) []IterPhase {
	if len(spans) == 0 {
		return nil
	}
	type key struct {
		iter int32
		name string
	}
	groups := make(map[key][]Span)
	for _, s := range spans {
		k := key{s.Iter, s.Name}
		groups[k] = append(groups[k], s)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].iter != keys[j].iter {
			return keys[i].iter < keys[j].iter
		}
		return keys[i].name < keys[j].name
	})

	out := make([]IterPhase, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		var spanNs int64
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(g))
		for _, s := range g {
			spanNs += s.EndNs - s.StartNs
			ivs = append(ivs, iv{s.StartNs, s.EndNs})
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		// Merge into the union window.
		merged := ivs[:0]
		for _, v := range ivs {
			if n := len(merged); n > 0 && v.lo <= merged[n-1].hi {
				if v.hi > merged[n-1].hi {
					merged[n-1].hi = v.hi
				}
				continue
			}
			merged = append(merged, v)
		}
		var windowNs int64
		var busy [numClasses]float64
		for _, v := range merged {
			windowNs += v.hi - v.lo
			for cl := Class(0); cl < numClasses; cl++ {
				bins := c.bins[cl]
				from, to := v.lo, v.hi
				if to > int64(len(bins))*w {
					to = int64(len(bins)) * w
				}
				for i := from / w; from < to; i++ {
					hi := (i + 1) * w
					if hi > to {
						hi = to
					}
					busy[cl] += float64(bins[i].busy) * float64(hi-from) / float64(w)
					from = hi
				}
			}
		}
		out = append(out, IterPhase{
			Iter:               int(k.iter),
			Phase:              k.name,
			Spans:              len(g),
			SpanSeconds:        float64(spanNs) / 1e9,
			WindowSeconds:      float64(windowNs) / 1e9,
			LinkBusySeconds:    telemetry.Round6(busy[Link] / 1e9),
			NICBusySeconds:     telemetry.Round6(busy[NIC] / 1e9),
			VNProxyBusySeconds: telemetry.Round6(busy[VNProxy] / 1e9),
			OSTBusySeconds:     telemetry.Round6(busy[OST] / 1e9),
		})
	}
	return out
}

// WriteJSON writes the report as indented JSON. Deterministic: struct
// fields marshal in declaration order and every slice was sorted at
// assembly.
func (r *Report) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events; timestamps in microseconds).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChromeTrace emits every recorded phase span (all ranks) as a Chrome
// trace-event JSON array ("X" complete events, ranks as threads of one
// process, ordered by rank then start), which chrome://tracing and
// Perfetto open directly.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, len(r.all))
	for _, s := range r.all {
		start, end := float64(s.StartNs)/1e9, float64(s.EndNs)/1e9
		events = append(events, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   start * 1e6,
			Dur:  (end - start) * 1e6,
			Pid:  1,
			Tid:  int(s.Rank),
		})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Tid != events[j].Tid {
			return events[i].Tid < events[j].Tid
		}
		return events[i].Ts < events[j].Ts
	})
	return json.NewEncoder(w).Encode(events)
}
