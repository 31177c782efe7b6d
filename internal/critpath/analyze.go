package critpath

import (
	"sort"
	"strconv"

	"xtsim/internal/telemetry"
)

// Attribution categories, in the fixed report order.
const (
	catCompute = iota
	catMPIWait
	catQueueWait
	catNICInjection
	catLinkTransit
	catIOWait
	numCats
)

var catNames = [numCats]string{
	catCompute:      "compute",
	catMPIWait:      "mpi_wait",
	catQueueWait:    "queue_wait",
	catNICInjection: "nic_injection",
	catLinkTransit:  "link_transit",
	catIOWait:       "io_wait",
}

// DefaultTopK is the contributor-list length when AnalyzeOptions leaves
// TopK zero.
const DefaultTopK = 8

// AnalyzeOptions parameterises the backward walk.
type AnalyzeOptions struct {
	// Makespan is the end-to-end simulated runtime (core passes the engine
	// clock); the walk starts here and all shares are fractions of it.
	Makespan float64
	// TopK bounds the per-rank and per-link contributor lists (0 →
	// DefaultTopK). The per-class list is never truncated: the op-class set
	// is small and the experiments assert on its head.
	TopK int
	// LinkLabel labels a directed link id for the per-link list; nil falls
	// back to "link <id>".
	LinkLabel func(int) string
}

// Analyze walks the causal graph backwards from the final event and
// returns the critical-path report. The walker keeps a (rank, clock)
// cursor: any gap between the cursor and the rank's latest earlier wait is
// compute; a wait ended by a message edge attributes the transfer's
// component decomposition and jumps to the sender at its departure time; a
// wait ended by a collective edge attributes MPI wait and jumps to the
// last arriver; other waits attribute in place. The clock decreases
// strictly, so every attributed span is disjoint and the category totals
// sum to the makespan by construction.
func (r *Recorder) Analyze(o AnalyzeOptions) *Report {
	topK := o.TopK
	if topK <= 0 {
		topK = DefaultTopK
	}
	n := len(r.waits)
	var (
		cats    [numCats]float64
		byClass = make(map[int16]float64)
		byRank  = make([]float64, n)
		byLink  = make(map[int32]float64)
	)
	addCat := func(c int, v float64) { cats[c] += v }

	// Start on the latest-finishing rank (ties toward the lowest id).
	rank := 0
	for i := 1; i < n; i++ {
		if r.finish[i] > r.finish[rank] {
			rank = i
		}
	}

	t := o.Makespan
	steps, hops := 0, 0
	maxSteps := 2 * (r.WaitsRecorded() + n + 1)
	for t > 0 && n > 0 {
		if steps++; steps > maxSteps {
			break // cycle guard; the remainder lands in compute below
		}
		ws := r.waits[rank]
		// Latest wait on this rank ending at or before the cursor.
		i := sort.Search(len(ws), func(i int) bool { return ws[i].End > t }) - 1
		if i < 0 {
			addCat(catCompute, t)
			byRank[rank] += t
			t = 0
			break
		}
		w := ws[i]
		if t > w.End {
			addCat(catCompute, t-w.End)
			byRank[rank] += t - w.End
			t = w.End
		}
		var e *Edge
		if w.Edge != 0 {
			e = &r.edges[w.Edge-1]
		}
		switch {
		case e != nil && w.Kind == KindRecv && e.Depart < t:
			// The binding chain is the transfer itself: span covers
			// depart → arrival, scaled over the edge's exact stage
			// decomposition, then the walk continues on the sender.
			span := t - e.Depart
			sum := e.Overhead + e.InjWait + e.Inject + e.LinkWait + e.Transit
			scale := 1.0
			if sum > 0 {
				scale = span / sum
			}
			addCat(catMPIWait, e.Overhead*scale)
			addCat(catQueueWait, e.InjWait*scale)
			addCat(catNICInjection, e.Inject*scale)
			addCat(catQueueWait, e.LinkWait*scale)
			addCat(catLinkTransit, e.Transit*scale)
			for _, h := range r.hops[e.hopOff : e.hopOff+e.hopLen] {
				byLink[h.Link] += h.Wait * scale
			}
			byClass[w.Class] += span
			byRank[rank] += span
			rank = int(e.SrcRank)
			t = e.Depart
			hops++
		case e != nil && w.Kind == KindColl && e.Depart < t:
			// Analytic collective: blocked on the last arriver.
			span := t - e.Depart
			addCat(catMPIWait, span)
			byClass[w.Class] += span
			byRank[rank] += span
			rank = int(e.SrcRank)
			t = e.Depart
			hops++
		default:
			// Send wait, edgeless wait, or a degenerate edge: attribute in
			// place and continue on the same rank before the block began.
			span := t - w.Start
			if span < 0 {
				span = 0
			}
			if e != nil && w.Kind == KindSend {
				qw := e.InjWait
				if qw > span {
					qw = span
				}
				inj := e.Inject
				if inj > span-qw {
					inj = span - qw
				}
				addCat(catQueueWait, qw)
				addCat(catNICInjection, inj)
				addCat(catMPIWait, span-qw-inj)
			} else if w.Kind == KindIO {
				addCat(catIOWait, span)
			} else {
				addCat(catMPIWait, span)
			}
			byClass[w.Class] += span
			byRank[rank] += span
			t = w.Start
		}
	}
	if t > 0 && n > 0 {
		addCat(catCompute, t) // cycle-guard bailout: keep the sum exact
		byRank[rank] += t
	}

	rep := &Report{
		SchemaVersion:   SchemaVersion,
		MakespanSeconds: o.Makespan,
		Ranks:           n,
		WaitsRecorded:   r.WaitsRecorded(),
		EdgesRecorded:   len(r.edges),
		Dropped:         r.Dropped,
		PathSteps:       steps,
		PathHops:        hops,
	}
	share := func(v float64) float64 {
		if o.Makespan <= 0 {
			return 0
		}
		return telemetry.Round6(v / o.Makespan)
	}
	for c := 0; c < numCats; c++ {
		rep.Attribution = append(rep.Attribution, Attribution{
			Category: catNames[c],
			Seconds:  cats[c],
			Share:    share(cats[c]),
		})
	}

	// Per-class contributors: every class with path time, seconds-descending
	// (ties toward the lower class index for determinism).
	classIDs := make([]int, 0, len(byClass))
	for c := range byClass {
		classIDs = append(classIDs, int(c))
	}
	sort.Ints(classIDs)
	for _, c := range classIDs {
		rep.ByClass = append(rep.ByClass, Contributor{
			Name:    r.className(int16(c)),
			Seconds: byClass[int16(c)],
			Share:   share(byClass[int16(c)]),
		})
	}
	sortContributors(rep.ByClass)

	// Per-rank contributors, truncated to topK.
	ranks := make([]Contributor, 0, n)
	for i, v := range byRank {
		if v > 0 {
			ranks = append(ranks, Contributor{Name: "rank " + strconv.Itoa(i), Seconds: v, Share: share(v)})
		}
	}
	sortContributors(ranks)
	if len(ranks) > topK {
		ranks = ranks[:topK]
	}
	rep.ByRank = ranks

	// Per-link queue-wait contributors on the path, truncated to topK.
	linkIDs := make([]int, 0, len(byLink))
	for id := range byLink {
		linkIDs = append(linkIDs, int(id))
	}
	sort.Ints(linkIDs)
	links := make([]Contributor, 0, len(linkIDs))
	label := o.LinkLabel
	if label == nil {
		label = func(id int) string { return "link " + strconv.Itoa(id) }
	}
	for _, id := range linkIDs {
		v := byLink[int32(id)]
		links = append(links, Contributor{Name: label(id), Seconds: v, Share: share(v)})
	}
	sortContributors(links)
	if len(links) > topK {
		links = links[:topK]
	}
	rep.ByLink = links

	rep.Slack = r.slack(o.Makespan, topK, share)
	return rep
}

// slack computes each rank's slack: time it spent blocked on remote
// progress (receive and collective waits) plus trailing idle after its
// body finished — how much the rank could slow before it, rather than the
// current path, bounds the runtime. Ranks on the critical path show ≈0.
func (r *Recorder) slack(makespan float64, topK int, share func(float64) float64) *SlackStats {
	n := len(r.waits)
	if n == 0 {
		return nil
	}
	per := make([]float64, n)
	for rank, ws := range r.waits {
		s := 0.0
		for _, w := range ws {
			if w.Kind == KindRecv || w.Kind == KindColl {
				s += w.End - w.Start
			}
		}
		if tail := makespan - r.finish[rank]; tail > 0 {
			s += tail
		}
		per[rank] = s
	}
	st := &SlackStats{MinSeconds: per[0], MaxSeconds: per[0]}
	sum := 0.0
	for rank, v := range per {
		sum += v
		if v < st.MinSeconds {
			st.MinSeconds = v
			st.MinRank = rank
		}
		if v > st.MaxSeconds {
			st.MaxSeconds = v
			st.MaxRank = rank
		}
	}
	st.MeanSeconds = sum / float64(n)
	top := make([]Contributor, 0, n)
	for rank, v := range per {
		top = append(top, Contributor{Name: "rank " + strconv.Itoa(rank), Seconds: v, Share: share(v)})
	}
	sortContributors(top)
	if len(top) > topK {
		top = top[:topK]
	}
	st.Top = top
	return st
}

// sortContributors orders seconds-descending with a deterministic
// name-ascending tie-break. Entries arrive in a deterministic base order
// (class/rank/link id ascending), so equal-name collisions cannot occur.
func sortContributors(cs []Contributor) {
	sort.SliceStable(cs, func(i, j int) bool {
		if cs[i].Seconds != cs[j].Seconds {
			return cs[i].Seconds > cs[j].Seconds
		}
		return false
	})
}
