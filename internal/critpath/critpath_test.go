package critpath

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// handGraph builds a two-rank scenario with every attribution category
// exercised and known expected values:
//
//	rank 0: compute [0,2), recv wait [2,5) ended by a message edge from
//	        rank 1 departing at 1 (components: overhead 1, injwait 1,
//	        inject 0.5, linkwait 1, transit 0.5 — sum 4 = 5-1)
//	rank 1: compute [0,1) then finishes at 1
//
// Walking back from makespan 5 on rank 0: compute 0 (cursor starts on a
// wait end), recv span 4 split per components, jump to rank 1 at t=1,
// compute 1. Totals: compute 1, mpi_wait 1, queue_wait 2, nic 0.5,
// transit 0.5 — sum 5.
func handGraph() *Recorder {
	r := NewRecorder(2, 0)
	r.SetClassNames([]string{"Recv"})
	id, e := r.StartEdge(EdgeMessage, 1, 4096, 2)
	e.SrcRank = 1
	e.Overhead, e.InjWait, e.Inject, e.LinkWait, e.Transit = 1, 1, 0.5, 1, 0.5
	r.AddHopWait(id, 7, 0.75)
	r.AddHopWait(id, 9, 0.25)
	r.AddWait(0, 2, 5, 0, KindRecv, id)
	r.SetFinish(0, 5)
	r.SetFinish(1, 1)
	return r
}

func TestAnalyzeHandGraphExact(t *testing.T) {
	rep := handGraph().Analyze(AnalyzeOptions{Makespan: 5})
	want := map[string]float64{
		"compute":       1,
		"mpi_wait":      1,
		"queue_wait":    2,
		"nic_injection": 0.5,
		"link_transit":  0.5,
	}
	for cat, w := range want {
		if got := rep.Category(cat).Seconds; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", cat, got, w)
		}
	}
	if d := math.Abs(rep.AttributionSum() - rep.MakespanSeconds); d > 1e-12 {
		t.Errorf("attribution sum off by %g", d)
	}
	if rep.PathHops != 1 {
		t.Errorf("path hops = %d, want 1", rep.PathHops)
	}
	// The recv wait is the only op-class time, labelled via SetClassNames.
	if len(rep.ByClass) != 1 || rep.ByClass[0].Name != "Recv" || math.Abs(rep.ByClass[0].Seconds-4) > 1e-12 {
		t.Errorf("by_class = %+v, want [Recv 4s]", rep.ByClass)
	}
	// Hop waits surface per link, scaled by 1 (span == component sum).
	if len(rep.ByLink) != 2 || math.Abs(rep.ByLink[0].Seconds-0.75) > 1e-12 {
		t.Errorf("by_link = %+v, want links 7 (0.75) and 9 (0.25)", rep.ByLink)
	}
	// Slack: rank 0 waited 3s blocked; rank 1 idled 4s after finishing.
	s := rep.Slack
	if s == nil || s.MinRank != 0 || math.Abs(s.MinSeconds-3) > 1e-12 ||
		s.MaxRank != 1 || math.Abs(s.MaxSeconds-4) > 1e-12 {
		t.Errorf("slack = %+v, want min rank 0 (3s), max rank 1 (4s)", s)
	}
}

// TestAnalyzeScalesDegenerateEdge checks the floating-safety scale: when a
// recv wait's span disagrees with the edge's component sum, the components
// are scaled so the attribution still sums to the makespan.
func TestAnalyzeScalesDegenerateEdge(t *testing.T) {
	r := NewRecorder(2, 0)
	id, e := r.StartEdge(EdgeMessage, 1, 64, 1)
	e.SrcRank = 1
	e.Overhead = 8 // claims twice the actual 4-second span
	r.AddWait(0, 2, 5, 0, KindRecv, id)
	r.SetFinish(0, 5)
	rep := r.Analyze(AnalyzeOptions{Makespan: 5})
	if d := math.Abs(rep.AttributionSum() - 5); d > 1e-12 {
		t.Errorf("attribution sum off by %g with a degenerate edge", d)
	}
	if got := rep.Category("mpi_wait").Seconds; math.Abs(got-4) > 1e-12 {
		t.Errorf("mpi_wait = %v, want the scaled span 4", got)
	}
}

func TestAddWaitCoalescing(t *testing.T) {
	r := NewRecorder(1, 0)
	// Zero- and negative-length waits are skipped.
	r.AddWait(0, 3, 3, 0, KindRecv, 0)
	r.AddWait(0, 3, 2, 0, KindRecv, 0)
	if got := r.WaitsRecorded(); got != 0 {
		t.Fatalf("zero-length waits stored: %d", got)
	}
	// Abutting edgeless waits of one class+kind merge into one record.
	r.AddWait(0, 0, 1, 2, KindSend, 0)
	r.AddWait(0, 1, 2, 2, KindSend, 0)
	r.AddWait(0, 2, 3, 2, KindSend, 0)
	if got := r.WaitsRecorded(); got != 1 {
		t.Fatalf("abutting edgeless waits = %d records, want 1", got)
	}
	// A class change, a gap, or an edge breaks the merge.
	r.AddWait(0, 3, 4, 1, KindSend, 0) // different class
	r.AddWait(0, 5, 6, 1, KindSend, 0) // gap
	id, _ := r.StartEdge(EdgeMessage, 0, 0, 0)
	r.AddWait(0, 6, 7, 1, KindSend, id) // carries an edge
	if got := r.WaitsRecorded(); got != 4 {
		t.Fatalf("waits = %d records, want 4", got)
	}
}

// TestRecorderCapDropsLoudly fills a tiny recorder past its cap and checks
// refusal is counted, never silent, and the analyzer still sums exactly.
func TestRecorderCapDropsLoudly(t *testing.T) {
	r := NewRecorder(1, 3)
	for i := 0; i < 5; i++ {
		id, _ := r.StartEdge(EdgeMessage, float64(i), 0, 0)
		if i >= 3 && id != 0 {
			t.Fatalf("StartEdge returned id %d past the cap", id)
		}
	}
	if r.Dropped != 2 {
		t.Fatalf("Dropped = %d after 2 refused edges", r.Dropped)
	}
	// Wait and hop records respect the same budget.
	r.AddWait(0, 0, 1, 0, KindRecv, 1)
	r.AddHopWait(1, 3, 0.5)
	if r.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4 (edge×2 + wait + hop)", r.Dropped)
	}
	r.SetFinish(0, 2)
	rep := r.Analyze(AnalyzeOptions{Makespan: 2})
	if rep.Dropped != 4 {
		t.Fatalf("report dropped = %d", rep.Dropped)
	}
	if d := math.Abs(rep.AttributionSum() - 2); d > 1e-12 {
		t.Errorf("attribution sum off by %g with dropped records", d)
	}
	var js strings.Builder
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"dropped": 4`) {
		t.Errorf("JSON export hides the drop:\n%s", js.String())
	}
}

// TestAnalyzeEmptyRecorder: a run that never blocked is pure compute.
func TestAnalyzeEmptyRecorder(t *testing.T) {
	r := NewRecorder(3, 0)
	r.SetFinish(1, 7)
	rep := r.Analyze(AnalyzeOptions{Makespan: 7})
	if got := rep.Category("compute").Seconds; got != 7 {
		t.Errorf("compute = %v, want the whole makespan", got)
	}
	if len(rep.ByRank) != 1 || rep.ByRank[0].Name != "rank 1" {
		t.Errorf("by_rank = %+v, want the latest-finishing rank 1", rep.ByRank)
	}
	if len(rep.ByClass) != 0 || len(rep.ByLink) != 0 {
		t.Errorf("unexpected contributors on an empty record: %+v %+v", rep.ByClass, rep.ByLink)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	export := func() string {
		var b strings.Builder
		if err := handGraph().Analyze(AnalyzeOptions{Makespan: 5, LinkLabel: func(id int) string {
			return "L" + strconv.Itoa(id)
		}}).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := export(), export()
	if a != b {
		t.Error("JSON export differs across identical analyses")
	}
	for _, frag := range []string{`"schema_version": 1`, `"category": "compute"`, `"L7"`, `"dropped": 0`} {
		if !strings.Contains(a, frag) {
			t.Errorf("export missing %s:\n%s", frag, a)
		}
	}
}
