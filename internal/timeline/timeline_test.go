package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestSampleExactBinning checks that a reservation's wait and busy time land
// in the right bins with exact integer nanoseconds.
func TestSampleExactBinning(t *testing.T) {
	c := newCollector(nil)
	// Requested at 50 µs, started at 150 µs (100 µs wait spanning the
	// boundary of bins 0/1), busy until 250 µs (spanning bins 1/2).
	c.Sample(Link, 50e-6, 150e-6, 250e-6)
	if got := c.bins[Link][0].count; got != 1 {
		t.Fatalf("count in bin 0 = %d, want 1", got)
	}
	wantWait := []int64{50_000, 50_000, 0}
	wantBusy := []int64{0, 50_000, 50_000}
	for i := 0; i < 3; i++ {
		if c.bins[Link][i].wait != wantWait[i] {
			t.Errorf("bin %d wait = %d, want %d", i, c.bins[Link][i].wait, wantWait[i])
		}
		if c.bins[Link][i].busy != wantBusy[i] {
			t.Errorf("bin %d busy = %d, want %d", i, c.bins[Link][i].busy, wantBusy[i])
		}
	}
}

// TestHalvePreservesTotals checks the doubling merge conserves every counter,
// including with an odd bin count.
func TestHalvePreservesTotals(t *testing.T) {
	c := newCollector(nil)
	// Three bins (odd length): busy in bins 0, 1, 2.
	c.Sample(NIC, 0, 0, 300e-6)
	var total int64
	for _, b := range c.bins[NIC] {
		total += b.busy
	}
	if total != 300_000 {
		t.Fatalf("total busy before halve = %d, want 300000", total)
	}
	if len(c.bins[NIC]) != 3 {
		t.Fatalf("bins before halve = %d, want 3", len(c.bins[NIC]))
	}
	c.halve()
	if len(c.bins[NIC]) != 2 {
		t.Fatalf("bins after halve = %d, want 2", len(c.bins[NIC]))
	}
	if c.widthNs != 2*baseBinNs {
		t.Fatalf("width after halve = %d, want %d", c.widthNs, 2*baseBinNs)
	}
	var after int64
	for _, b := range c.bins[NIC] {
		after += b.busy
	}
	if after != total {
		t.Fatalf("total busy after halve = %d, want %d", after, total)
	}
}

// TestEnsureHalvesPastMaxBins checks that a sample far beyond the current
// horizon triggers width doubling rather than unbounded growth.
func TestEnsureHalvesPastMaxBins(t *testing.T) {
	c := newCollector(nil)
	far := float64(maxBins) * 100e-6 * 3 // 3× past the base-width capacity
	c.Sample(Link, far, far, far+100e-6)
	if len(c.bins[Link]) > maxBins {
		t.Fatalf("bins = %d, exceeds maxBins %d", len(c.bins[Link]), maxBins)
	}
	if c.widthNs <= baseBinNs {
		t.Fatalf("width = %d, expected doubling past %d", c.widthNs, baseBinNs)
	}
}

// TestFoldMatchesSerial drives the same sample stream through one collector
// and through four sharded collectors (samples partitioned arbitrarily), and
// requires bit-identical folded state.
func TestFoldMatchesSerial(t *testing.T) {
	type sample struct {
		cl            Class
		req, from, to float64
	}
	var stream []sample
	for i := 0; i < 200; i++ {
		at := float64(i) * 37e-6
		stream = append(stream, sample{Link, at, at + 5e-6, at + 20e-6})
		stream = append(stream, sample{NIC, at, at, at + 11e-6})
	}
	// Push one sample far out so widths must double.
	stream = append(stream, sample{Link, 1.0, 1.0, 1.001})

	serial := NewRecorder(4)
	for _, s := range stream {
		serial.Dom(0).Sample(s.cl, s.req, s.from, s.to)
	}
	serial.Dom(0).Span(1, "halo", 3, 0.001, 0.002)
	serial.Dom(0).Span(0, "compute", 3, 0.002, 0.004)

	sharded := NewRecorder(4)
	sharded.Shard(4)
	for i, s := range stream {
		sharded.Dom(i%4).Sample(s.cl, s.req, s.from, s.to)
	}
	sharded.Dom(1).Span(1, "halo", 3, 0.001, 0.002)
	sharded.Dom(0).Span(0, "compute", 3, 0.002, 0.004)
	sharded.Fold()

	a, b := serial.Dom(0), sharded.Dom(0)
	if a.widthNs != b.widthNs {
		t.Fatalf("width: serial %d, folded %d", a.widthNs, b.widthNs)
	}
	for cl := range a.bins {
		if len(a.bins[cl]) != len(b.bins[cl]) {
			t.Fatalf("class %d: serial %d bins, folded %d", cl, len(a.bins[cl]), len(b.bins[cl]))
		}
		for i := range a.bins[cl] {
			if a.bins[cl][i] != b.bins[cl][i] {
				t.Fatalf("class %d bin %d: serial %+v, folded %+v", cl, i, a.bins[cl][i], b.bins[cl][i])
			}
		}
	}
	// Serial spans must be sorted too: Report sorts, Fold sorts — compare
	// via the exported report bytes, the artifact that must be identical.
	var ja, jb bytes.Buffer
	if err := serial.Report(1.01).WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Report(1.01).WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("reports differ:\nserial:\n%s\nfolded:\n%s", ja.String(), jb.String())
	}
}

// TestSpanCapPerRank checks the per-rank cap drops (and counts) excess spans
// identically regardless of which domain records them.
func TestSpanCapPerRank(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < maxSpansPerRank+7; i++ {
		r.Dom(0).Span(0, "compute", i, float64(i), float64(i)+0.5)
	}
	r.Dom(0).Span(1, "halo", 0, 0, 1) // other rank unaffected by rank 0's cap
	c := r.Dom(0)
	if got := len(c.spans); got != maxSpansPerRank+1 {
		t.Fatalf("retained spans = %d, want %d", got, maxSpansPerRank+1)
	}
	if c.dropped != 7 {
		t.Fatalf("dropped = %d, want 7", c.dropped)
	}
}

// TestCapDropsExcess checks the cap end to end on a sharded recorder: the
// folded report keeps the first maxSpansPerRank spans of the capped rank,
// counts the rest in DroppedSpans, and the Chrome export carries exactly
// the kept spans.
func TestCapDropsExcess(t *testing.T) {
	r := NewRecorder(2)
	r.Shard(2)
	for i := 0; i < maxSpansPerRank+5; i++ {
		r.Dom(i%2).Span(0, "compute", i, float64(i), float64(i)+0.5)
	}
	for i := 0; i < 3; i++ {
		r.Dom(1).Span(1, "halo", i, float64(i), float64(i)+0.25)
	}
	rep := r.Report(float64(maxSpansPerRank + 5))
	if rep.Spans != maxSpansPerRank+3 || rep.DroppedSpans != 5 {
		t.Fatalf("spans %d dropped %d, want %d and 5", rep.Spans, rep.DroppedSpans, maxSpansPerRank+3)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ts  float64
		Tid int
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != rep.Spans {
		t.Fatalf("Chrome events = %d, want %d", len(events), rep.Spans)
	}
	for _, e := range events {
		if e.Tid == 0 && e.Ts >= float64(maxSpansPerRank)*1e6 {
			t.Fatalf("span past the cap exported: %+v", e)
		}
	}
}

// TestReportDeterministic pins run-twice byte identity of both exports.
func TestReportDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder(3)
		r.SetResources(Link, 10)
		for i := 0; i < 50; i++ {
			at := float64(i) * 1e-4
			r.Dom(0).Sample(Link, at, at+1e-6, at+5e-5)
		}
		r.Dom(0).Span(0, "compute", 0, 0, 1e-3)
		r.Dom(0).Span(1, "halo", 0, 5e-4, 2e-3)
		r.Dom(0).Span(2, "halo", 1, 2e-3, 3e-3)
		return r
	}
	for _, exp := range []struct {
		name  string
		write func(*Report, *bytes.Buffer) error
	}{
		{"json", func(rep *Report, b *bytes.Buffer) error { return rep.WriteJSON(b) }},
		{"chrome", func(rep *Report, b *bytes.Buffer) error { return rep.WriteChromeTrace(b) }},
	} {
		var b1, b2 bytes.Buffer
		if err := exp.write(build().Report(0.01), &b1); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if err := exp.write(build().Report(0.01), &b2); err != nil {
			t.Fatalf("%s: %v", exp.name, err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("%s export not run-twice identical", exp.name)
		}
	}
}

// TestIterBreakdownJoin checks the span×bin join: overlapping spans merge
// into one window and busy time attributes share-weighted.
func TestIterBreakdownJoin(t *testing.T) {
	r := NewRecorder(2)
	// Link busy for the whole first bin.
	r.Dom(0).Sample(Link, 0, 0, 100e-6)
	// Two overlapping halo spans covering the first half of the bin.
	r.Dom(0).Span(0, "halo", 0, 0, 30e-6)
	r.Dom(0).Span(1, "halo", 0, 20e-6, 50e-6)
	rep := r.Report(100e-6)
	if len(rep.Iterations) != 1 {
		t.Fatalf("iterations = %d, want 1", len(rep.Iterations))
	}
	ip := rep.Iterations[0]
	if ip.Iter != 0 || ip.Phase != "halo" || ip.Spans != 2 {
		t.Fatalf("row = %+v", ip)
	}
	if got, want := ip.SpanSeconds, 60e-6; !close6(got, want) {
		t.Errorf("span seconds = %g, want %g", got, want)
	}
	if got, want := ip.WindowSeconds, 50e-6; !close6(got, want) {
		t.Errorf("window seconds = %g, want %g", got, want)
	}
	// Window covers half the only bin → half the link busy time.
	if got, want := ip.LinkBusySeconds, 50e-6; !close6(got, want) {
		t.Errorf("link busy = %g, want %g", got, want)
	}
}

func close6(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-6
}

// TestDominantPhases checks the per-bin annotation picks the phase with the
// most rank-time coverage, with lexicographic tie-break.
func TestDominantPhases(t *testing.T) {
	r := NewRecorder(3)
	r.Dom(0).Sample(Link, 0, 0, 200e-6)
	r.Dom(0).Span(0, "halo", 0, 0, 80e-6)          // 80 µs halo in bin 0
	r.Dom(0).Span(1, "compute", 0, 0, 60e-6)       // 60 µs compute in bin 0
	r.Dom(0).Span(2, "compute", 0, 100e-6, 150e-6) // bin 1: compute only
	rep := r.Report(200e-6)
	if len(rep.Phases) != 2 {
		t.Fatalf("phase annotations = %d, want 2 (%+v)", len(rep.Phases), rep.Phases)
	}
	if rep.Phases[0].Phase != "halo" {
		t.Errorf("bin 0 dominant = %q, want halo", rep.Phases[0].Phase)
	}
	if rep.Phases[1].Phase != "compute" {
		t.Errorf("bin 1 dominant = %q, want compute", rep.Phases[1].Phase)
	}
}

// TestToNsGrid pins the seconds→nanoseconds conversion at representative
// values, including ones that are not exactly representable in binary.
func TestToNsGrid(t *testing.T) {
	cases := []struct {
		sec  float64
		want int64
	}{
		{0, 0},
		{1e-9, 1},
		{100e-6, 100_000},
		{0.1, 100_000_000},
		{1.0, 1_000_000_000},
	}
	for _, c := range cases {
		if got := toNs(c.sec); got != c.want {
			t.Errorf("toNs(%v) = %d, want %d", c.sec, got, c.want)
		}
	}
}

func ExampleClassName() {
	fmt.Println(ClassName(Link), ClassName(OST))
	// Output: link ost
}

// chromeSample is a two-rank report whose spans arrive out of rank order.
func chromeSample() *Report {
	r := NewRecorder(2)
	r.Dom(0).Span(1, "compute", 0, 0.5, 1.0)
	r.Dom(0).Span(0, "Recv", 0, 0, 0.25)
	return r.Report(1)
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := chromeSample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	// Sorted by tid then ts: rank 0 first.
	if events[0]["tid"].(float64) != 0 {
		t.Fatalf("events not sorted by rank: %v", events)
	}
	if events[0]["ph"] != "X" {
		t.Fatalf("wrong phase: %v", events[0])
	}
	// Microsecond conversion.
	if events[1]["ts"].(float64) != 0.5e6 {
		t.Fatalf("timestamp not in µs: %v", events[1])
	}
}

// TestChromeTraceGoldenBytes pins the exact export bytes: the format is a
// published interchange format and the trace is advertised as a
// deterministic artifact, so any byte change is a compatibility event.
func TestChromeTraceGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := chromeSample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"Recv","ph":"X","ts":0,"dur":250000,"pid":1,"tid":0},{"name":"compute","ph":"X","ts":500000,"dur":500000,"pid":1,"tid":1}]` + "\n"
	if buf.String() != want {
		t.Fatalf("Chrome trace bytes changed:\n got: %q\nwant: %q", buf.String(), want)
	}
}
