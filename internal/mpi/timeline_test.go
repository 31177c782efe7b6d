package mpi

import (
	"bytes"
	"encoding/json"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// TestSendRecvZeroAllocsWithTimelineOff is the flight recorder's zero-alloc
// guard: the timeline-off message hot path must stay allocation-free.
func TestSendRecvZeroAllocsWithTimelineOff(t *testing.T) {
	requireZeroAllocPingPong(t, "the timeline")
}

// TestTimelineCapturesSimulation attaches the flight recorder to a live
// run: an application phase and a collective on every rank become spans
// with simulated timestamps inside the makespan, and the Chrome export
// carries every one of them.
func TestTimelineCapturesSimulation(t *testing.T) {
	sys := newSys(4, machine.SN).EnableTimeline()
	end := Run(sys, Algorithmic, func(p *P) {
		start := p.PhaseBegin()
		p.Compute(core.Work{Flops: 1e8, FlopEff: 0.5})
		p.PhaseEnd("compute", start)
		p.Allreduce(Sum, 8, nil)
	})
	rep := sys.TimelineReport(end)
	seconds := map[string]float64{}
	for _, ip := range rep.Iterations {
		seconds[ip.Phase] += ip.SpanSeconds
	}
	if seconds["compute"] <= 0 || seconds["Allreduce"] <= 0 {
		t.Fatalf("phase seconds = %v, want compute and Allreduce spans", seconds)
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name    string
		Ts, Dur float64
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	// 4 ranks × (1 compute + 1 Allreduce) = 8 spans.
	if rep.Spans != 8 || len(events) != 8 {
		t.Fatalf("spans = %d, Chrome events = %d, want 8", rep.Spans, len(events))
	}
	for _, e := range events {
		if (e.Ts+e.Dur)/1e6 > end+1e-9 {
			t.Fatalf("span %+v extends past makespan %v", e, end)
		}
	}
}

// BenchmarkMPIPingPongTimeline is the ping-pong with the flight recorder
// on: the full per-message sampling cost (NIC + per-hop link bins). Pair
// with BenchmarkMPIPingPong for the recorder's overhead per message.
func BenchmarkMPIPingPongTimeline(b *testing.B) {
	sys := newSys(2, machine.SN).EnableTimeline()
	b.ReportAllocs()
	Run(sys, Algorithmic, func(p *P) {
		const warm = 200
		if p.Rank() == 0 {
			for i := 0; i < warm; i++ {
				p.Send(1, 0, 4096)
				p.Recv(1, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Send(1, 0, 4096)
				p.Recv(1, 1)
			}
		} else {
			for i := 0; i < warm+b.N; i++ {
				p.Recv(0, 0)
				p.Send(0, 1, 4096)
			}
		}
	})
}
