package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// tracer records the benchmark's own spans around its calls into xtsim:
// repetition → experiment or cell → NewSystem, Enable*, RunOn, Execute.
// Spans stay in memory; writeChrome exports them once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int           // -1 for a repetition
	start, end time.Duration // since t0; end is 0 while the span is open
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// add records a span timed elsewhere, such as an experiment the Runner ran.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start.Sub(t.t0), end: end.Sub(t.t0)})
}

// selfTimes returns each span's duration minus the part of it its children
// cover. Children may overlap each other (the campaign runs two
// experiments at once), so the covered part is the union of their
// intervals. Open spans, left by a panic, have no self time.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			c := t.spans[k]
			if c.end == 0 {
				continue
			}
			ivs = append(ivs, iv{max(c.start, s.start), min(c.end, s.end)})
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// lanes gives every closed span a thread row such that spans sharing a row
// are disjoint or nested, which is what a trace viewer can draw.
func (t *tracer) lanes() []int {
	var order []int
	for i, s := range t.spans {
		if s.end != 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, b := t.spans[order[x]], t.spans[order[y]]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	lane := make([]int, len(t.spans))
	var rows [][]int
	for _, i := range order {
		s := t.spans[i]
		l := 0
		for ; l < len(rows); l++ {
			fits := true
			for _, j := range rows[l] {
				o := t.spans[j]
				if s.start < o.end && s.end > o.start && !(o.start <= s.start && s.end <= o.end) {
					fits = false
					break
				}
			}
			if fits {
				break
			}
		}
		if l == len(rows) {
			rows = append(rows, nil)
		}
		rows[l] = append(rows[l], i)
		lane[i] = l
	}
	return lane
}

// writeChrome writes the closed spans as Chrome trace-event JSON, with each
// span's self time in its args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	self := t.selfTimes()
	lane := t.lanes()
	events := []event{}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: lane[i],
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]float64{"self_ms": float64(self[i].Nanoseconds()) / 1e6},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
