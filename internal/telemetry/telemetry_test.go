package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestClassAggSummary(t *testing.T) {
	a := NewClassAgg("link", 10)
	a.Add(2, 0.5, 100, 3)
	a.Add(6, 1.5, 300, 5) // busiest
	a.Add(4, 0, 200, 2)
	if got := a.MaxIndex(); got != 1 {
		t.Fatalf("MaxIndex = %d, want 1", got)
	}
	s := a.Summary()
	if s.Resources != 3 || s.BusySeconds != 12 || s.WaitSeconds != 2 || s.Bytes != 600 || s.Reservations != 10 {
		t.Fatalf("summary totals wrong: %+v", s)
	}
	// mean = 12 / (3*10) = 0.4; max = 6/10 = 0.6.
	if s.MeanUtilization != 0.4 || s.MaxUtilization != 0.6 {
		t.Fatalf("utilizations = %g / %g, want 0.4 / 0.6", s.MeanUtilization, s.MaxUtilization)
	}
}

func TestClassAggEmptyAndZeroHorizon(t *testing.T) {
	a := NewClassAgg("nic_tx", 0)
	a.Add(5, 0, 1, 1)
	s := a.Summary()
	if s.MeanUtilization != 0 || s.MaxUtilization != 0 {
		t.Fatalf("zero horizon must yield zero utilizations: %+v", s)
	}
	if NewClassAgg("x", 1).MaxIndex() != -1 {
		t.Fatal("empty aggregation should have MaxIndex -1")
	}
}

func TestRoundUtil(t *testing.T) {
	if got := Round6(0.1234567); got != 0.123457 {
		t.Fatalf("Round6 = %v", got)
	}
	if got := Round6(1.0); got != 1.0 {
		t.Fatalf("Round6(1) = %v", got)
	}
}

func TestHeatCellScale(t *testing.T) {
	cases := []struct {
		u    float64
		want byte
	}{
		{0, '.'}, {-1, '.'}, {0.05, '0'}, {0.1, '1'}, {0.55, '5'},
		{0.99, '9'}, {0.995, '#'}, {1.5, '#'},
	}
	for _, c := range cases {
		if got := heatCell(c.u); got != c.want {
			t.Errorf("heatCell(%g) = %q, want %q", c.u, got, c.want)
		}
	}
}

func TestWriteHeatmap(t *testing.T) {
	r := &FabricReport{
		NX: 2, NY: 2, NZ: 1, Torus: "2x2x1",
		NodeUtil: []float64{0, 0.25, 0.5, 1.0},
	}
	var buf bytes.Buffer
	if err := r.WriteHeatmap(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "|.2|") || !strings.Contains(out, "|5#|") {
		t.Fatalf("unexpected heatmap:\n%s", out)
	}
}

func TestMPIHistogramBuckets(t *testing.T) {
	m := NewMPIStats([]string{"Send"}, 1)
	m.Comm(1, 2)
	m.Message(1, 0, 0, 0)    // zero bytes -> bucket 0, lt 1
	m.Message(1, 0, 0, 1)    // -> lt 2
	m.Message(1, 0, 0, 1024) // 2^10 -> [2^10, 2^11), lt 2048
	m.Message(1, 0, 0, 1025)
	rep := m.Report()
	ops := rep.Comms[0].Ops
	if len(ops) != 1 || ops[0].Msgs != 4 || ops[0].Bytes != 2050 {
		t.Fatalf("op report wrong: %+v", ops)
	}
	want := []HistBucket{{LtBytes: 1, Count: 1}, {LtBytes: 2, Count: 1}, {LtBytes: 2048, Count: 2}}
	if len(ops[0].Hist) != len(want) {
		t.Fatalf("hist = %+v, want %+v", ops[0].Hist, want)
	}
	for i, hb := range ops[0].Hist {
		if hb != want[i] {
			t.Fatalf("hist[%d] = %+v, want %+v", i, hb, want[i])
		}
	}
}

func TestMPISeriesHalving(t *testing.T) {
	m := NewMPIStats([]string{"Send"}, 1)
	m.Comm(1, 2)
	m.Message(1, 0, 0.5, 8)
	// Beyond maxSeriesBuckets seconds at 1 s/bucket: forces halving until
	// the index fits.
	m.Message(1, 0, float64(maxSeriesBuckets)*1.5, 8)
	if m.bucket <= 1 {
		t.Fatalf("bucket did not grow: %g", m.bucket)
	}
	var total uint64
	for _, cell := range m.series {
		total += cell.msgs
	}
	if total != 2 {
		t.Fatalf("halving lost samples: %d msgs", total)
	}
	rep := m.Report()
	if len(rep.Series) == 0 || len(rep.Series) > exportSeriesMax {
		t.Fatalf("exported series length %d", len(rep.Series))
	}
}

func TestMPIReportNilSafe(t *testing.T) {
	var m *MPIStats
	if m.Report() != nil {
		t.Fatal("nil collector must report nil")
	}
}

func TestMPIReportSortsComms(t *testing.T) {
	m := NewMPIStats([]string{"Send"}, 1)
	m.Comm(3, 4)
	m.Message(3, 0, 0, 8)
	m.Comm(1, 2)
	m.Message(1, 0, 0, 8)
	rep := m.Report()
	if len(rep.Comms) != 2 || rep.Comms[0].ID != 1 || rep.Comms[1].ID != 3 {
		t.Fatalf("comms not sorted by id: %+v", rep.Comms)
	}
}

func TestCheckConservation(t *testing.T) {
	ok := &FabricReport{
		BytesDelivered: 100, LocalBytes: 20, HopBytes: 240,
		Classes: []ClassSummary{
			{Class: "link", Bytes: 240},
			{Class: "nic_tx", Bytes: 80},
		},
	}
	if err := ok.CheckConservation(); err != nil {
		t.Fatalf("conserved report rejected: %v", err)
	}
	bad := &FabricReport{
		BytesDelivered: 100, LocalBytes: 20, HopBytes: 240,
		Classes: []ClassSummary{
			{Class: "link", Bytes: 240},
			{Class: "nic_tx", Bytes: 81},
		},
	}
	if err := bad.CheckConservation(); err == nil {
		t.Fatal("NIC imbalance not detected")
	}
	badLink := &FabricReport{
		BytesDelivered: 100, LocalBytes: 20, HopBytes: 240,
		Classes: []ClassSummary{
			{Class: "link", Bytes: 239},
			{Class: "nic_tx", Bytes: 80},
		},
	}
	if err := badLink.CheckConservation(); err == nil {
		t.Fatal("link/hop imbalance not detected")
	}
}

// TestCheckConservationNamesViolatedInvariant pins the diagnostic quality
// of each failure path: the error must name the violated invariant and
// carry the mismatched figures, because CheckConservation is what turns a
// missing instrumentation point into an actionable message rather than a
// bare "inconsistent".
func TestCheckConservationNamesViolatedInvariant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rep   FabricReport
		frags []string
	}{
		{
			// nic_tx says 81 but delivered-minus-local implies 80.
			name: "nic-vs-delivered",
			rep: FabricReport{
				BytesDelivered: 100, LocalBytes: 20, HopBytes: 240,
				Classes: []ClassSummary{
					{Class: "link", Bytes: 240},
					{Class: "nic_tx", Bytes: 81},
				},
			},
			frags: []string{"NIC-tx 81", "local 20", "fabric delivered 100"},
		},
		{
			// A missing nic_tx class entirely is the same invariant: the
			// zero-summary fallback must not mask the hole.
			name: "nic-class-missing",
			rep: FabricReport{
				BytesDelivered: 100, LocalBytes: 20, HopBytes: 240,
				Classes: []ClassSummary{
					{Class: "link", Bytes: 240},
				},
			},
			frags: []string{"NIC-tx 0", "fabric delivered 100"},
		},
		{
			// Per-link counters short by one byte against Σ bytes×hops.
			name: "link-vs-hopbytes",
			rep: FabricReport{
				BytesDelivered: 100, LocalBytes: 20, HopBytes: 240,
				Classes: []ClassSummary{
					{Class: "link", Bytes: 239},
					{Class: "nic_tx", Bytes: 80},
				},
			},
			frags: []string{"per-link bytes sum to 239", "hop-weighted delivered bytes are 240"},
		},
		{
			// Both invariants broken: the NIC one reports first (the checks
			// run in declaration order, so the error is deterministic).
			name: "both-broken-nic-first",
			rep: FabricReport{
				BytesDelivered: 100, LocalBytes: 0, HopBytes: 240,
				Classes: []ClassSummary{
					{Class: "link", Bytes: 0},
					{Class: "nic_tx", Bytes: 0},
				},
			},
			frags: []string{"NIC-tx 0", "fabric delivered 100"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rep.CheckConservation()
			if err == nil {
				t.Fatal("inconsistent snapshot passed the conservation check")
			}
			for _, frag := range tc.frags {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not name %q", err, frag)
				}
			}
		})
	}
}

// buildReport assembles a fixed small report; used to pin determinism.
func buildReport() *Report {
	m := NewMPIStats([]string{"Send", "Allreduce"}, 1e-4)
	m.Comm(1, 4)
	m.Message(1, 1, 0.0001, 64)
	m.Message(1, 1, 0.0002, 64)
	m.EndOp(1, 1, 0.5)
	return &Report{
		SchemaVersion:  SchemaVersion,
		HorizonSeconds: 1.25,
		Fabric: &FabricReport{
			NX: 2, NY: 1, NZ: 1, Torus: "2x1x1",
			MsgsDelivered: 2, BytesDelivered: 128, HopBytes: 128,
			Classes:  []ClassSummary{{Class: "link", Resources: 12, Bytes: 128}},
			NodeUtil: []float64{0.1, 0.2},
		},
		MPI: m.Report(),
	}
}

func TestExportsAreDeterministic(t *testing.T) {
	var j1, j2 bytes.Buffer
	if err := buildReport().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := buildReport().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("JSON export is not byte-identical across identical runs")
	}
	for _, want := range []string{
		`"horizon_seconds": 1.25`,
		`"class": "link",`,
		`"hop_bytes": 128`,
		`"op": "Allreduce"`,
	} {
		if !strings.Contains(j1.String(), want) {
			t.Errorf("JSON export missing %q:\n%s", want, j1.String())
		}
	}
}
