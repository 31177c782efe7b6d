package network

import (
	"bytes"
	"testing"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
)

// enableTelemetry installs a serial probe with telemetry's counters on, as
// core.System.Plan does for a system with telemetry enabled.
func enableTelemetry(f *Fabric) {
	p := timeline.NewProbe(nil, nil)
	p.Count(f.NumLinks(), f.Tor.Nodes())
	f.InstallProbe(p)
}

// soak drives every ordered pair of the fabric once (plus one local
// message), runs the engine to completion, and returns the last arrival
// time — the horizon a report over the whole run should use.
func soak(f *Fabric, mode machine.Mode) sim.Time {
	eng := f.Eng
	n := f.Tor.Nodes()
	var horizon sim.Time
	eng.After(0, func() {
		now := eng.Now()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				tl := f.Deliver(now, Msg{SrcNode: s, DstNode: d, SrcCore: s % 2, DstCore: d % 2, Bytes: 4096, Mode: mode}, sim.ArriveFunc(func(at sim.Time) {
					if at > horizon {
						horizon = at
					}
				}))
				if tl.Arrive > horizon {
					horizon = tl.Arrive
				}
			}
		}
		f.Deliver(now, Msg{SrcNode: 0, DstNode: 0, Bytes: 1000, Mode: mode}, nil)
	})
	eng.Run()
	return horizon
}

func TestTelemetryDisabledReportsNil(t *testing.T) {
	f := New(sim.NewEngine(), machine.XT4(), 8)
	soak(f, machine.SN)
	if rep := f.TelemetryReport(1); rep != nil {
		t.Fatal("disabled fabric must report nil")
	}
	f.InstallProbe(timeline.NewProbe(nil, nil))
	if rep := f.TelemetryReport(1); rep != nil {
		t.Fatal("a probe without telemetry's counters must report nil")
	}
}

func TestTelemetryConservation(t *testing.T) {
	for _, mode := range []machine.Mode{machine.SN, machine.VN} {
		f := New(sim.NewEngine(), machine.XT4(), 16)
		enableTelemetry(f)
		horizon := soak(f, mode)
		rep := f.TelemetryReport(horizon)
		if rep == nil {
			t.Fatal("nil report with telemetry enabled")
		}
		if err := rep.CheckConservation(); err != nil {
			t.Fatalf("%v mode: %v", mode, err)
		}
		if rep.LocalBytes != 1000 {
			t.Fatalf("%v mode: local bytes = %d, want 1000", mode, rep.LocalBytes)
		}
		n := f.Tor.Nodes()
		wantDelivered := uint64(n*(n-1))*4096 + 1000
		if rep.BytesDelivered != wantDelivered {
			t.Fatalf("%v mode: delivered %d bytes, want %d", mode, rep.BytesDelivered, wantDelivered)
		}
		if mode == machine.VN && rep.Class("vn_proxy").Reservations == 0 {
			t.Fatal("VN mode recorded no proxy reservations")
		}
		if mode == machine.SN && rep.Class("vn_proxy").Reservations != 0 {
			t.Fatal("SN mode recorded proxy reservations")
		}
		if len(rep.NodeUtil) != n {
			t.Fatalf("NodeUtil length %d, want %d", len(rep.NodeUtil), n)
		}
		if len(rep.TopLinks) == 0 || rep.TopLinks[0].Utilization <= 0 {
			t.Fatalf("no busiest links in %+v", rep.TopLinks)
		}
		for i := 1; i < len(rep.TopLinks); i++ {
			if rep.TopLinks[i].Utilization > rep.TopLinks[i-1].Utilization {
				t.Fatalf("top links not sorted: %+v", rep.TopLinks)
			}
		}
		// Dimension summaries partition the link class exactly.
		var dimBytes int64
		var dimRes int
		for _, d := range rep.Dims {
			dimBytes += d.Bytes
			dimRes += d.Resources
		}
		link := rep.Class("link")
		if dimBytes != link.Bytes || dimRes != link.Resources {
			t.Fatalf("dimension summaries don't partition links: %d/%d bytes, %d/%d resources",
				dimBytes, link.Bytes, dimRes, link.Resources)
		}
	}
}

func TestTelemetryReportDeterministic(t *testing.T) {
	render := func() []byte {
		f := New(sim.NewEngine(), machine.XT4(), 16)
		enableTelemetry(f)
		horizon := soak(f, machine.SN)
		rep := &telemetry.Report{
			SchemaVersion:  telemetry.SchemaVersion,
			HorizonSeconds: horizon,
			Fabric:         f.TelemetryReport(horizon),
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.Fabric.WriteHeatmap(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("telemetry exports differ between identical runs")
	}
}

func TestLinkLabel(t *testing.T) {
	f := New(sim.NewEngine(), machine.XT4(), 16)
	cases := map[int]string{
		0:  "node 0 +X",
		1:  "node 0 -X",
		2:  "node 0 +Y",
		5:  "node 0 -Z",
		12: "node 2 +X",
	}
	for id, want := range cases {
		if got := f.LinkLabel(id); got != want {
			t.Errorf("LinkLabel(%d) = %q, want %q", id, got, want)
		}
	}
}

// BenchmarkFabricDeliverTelemetry is BenchmarkFabricDeliver with telemetry
// enabled: the per-message cost of the byte counters. Compare against the
// base benchmark to bound the instrumentation overhead; it must stay
// 0 allocs/op.
func BenchmarkFabricDeliverTelemetry(b *testing.B) {
	eng := sim.NewEngine()
	f := New(eng, machine.XT4(), 64)
	enableTelemetry(f)
	n := f.Tor.Nodes()
	msg := Msg{Bytes: 4096, Mode: machine.SN}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				f.Deliver(0, Msg{SrcNode: s, DstNode: d, Bytes: 8, Mode: machine.SN}, nil)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		dst := (src + 1 + i%(n-1)) % n
		msg.SrcNode, msg.DstNode = src, dst
		f.Deliver(0, msg, nil)
	}
}
