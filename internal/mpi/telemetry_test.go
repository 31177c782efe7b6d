package mpi

import (
	"testing"

	"xtsim/internal/machine"
	"xtsim/internal/telemetry"
)

// TestTelemetryAttribution runs a small program with telemetry enabled and
// checks the MPI collector's accounting: op calls match the per-rank
// profiles, and the p2p messages inside an algorithmic collective are
// attributed to the collective, not to Send.
func TestTelemetryAttribution(t *testing.T) {
	sys := newSys(4, machine.SN).EnableTelemetry()
	var calls [numOpClasses]uint64
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			p.Send(1, 7, 4096)
		} else if p.Rank() == 1 {
			p.Recv(0, 7)
		}
		p.Allreduce(Sum, 1024, nil)
		p.Barrier()
		for op := OpClass(0); op < numOpClasses; op++ {
			calls[op] += p.Profile().Calls[op]
		}
	})
	if sys.Tel == nil || sys.Tel.MPI == nil {
		t.Fatal("MPI collector not attached to the system's telemetry set")
	}
	rep := sys.Tel.MPI.Report()
	if len(rep.Comms) != 1 {
		t.Fatalf("comms = %d, want 1", len(rep.Comms))
	}
	world := rep.Comms[0]
	if world.Size != 4 {
		t.Fatalf("world size = %d", world.Size)
	}
	byOp := map[string]telemetry.OpReport{}
	for _, op := range world.Ops {
		byOp[op.Op] = op
	}
	// Call counts agree with the summed per-rank profiles.
	for op, name := range map[OpClass]string{OpSend: "Send", OpRecv: "Recv", OpAllreduce: "Allreduce", OpBarrier: "Barrier"} {
		if got := byOp[name].Calls; got != calls[op] {
			t.Errorf("%s calls: telemetry %d, profiles %d", name, got, calls[op])
		}
	}
	// Message attribution: the explicit Send carried 4096 bytes; everything
	// the Allreduce and Barrier injected counts toward them.
	if byOp["Send"].Msgs != 1 || byOp["Send"].Bytes != 4096 {
		t.Errorf("Send traffic = %d msgs / %d bytes, want 1 / 4096", byOp["Send"].Msgs, byOp["Send"].Bytes)
	}
	if byOp["Allreduce"].Msgs == 0 || byOp["Allreduce"].Bytes == 0 {
		t.Error("Allreduce's internal p2p not attributed to it")
	}
	if byOp["Barrier"].Msgs == 0 {
		t.Error("Barrier's internal p2p not attributed to it")
	}
	if byOp["Recv"].Msgs != 0 {
		t.Errorf("Recv should inject no messages, got %d", byOp["Recv"].Msgs)
	}
	// The injection series saw every message.
	var total uint64
	for _, pt := range rep.Series {
		total += pt.Msgs
	}
	if want := byOp["Send"].Msgs + byOp["Allreduce"].Msgs + byOp["Barrier"].Msgs; total != want {
		t.Errorf("series msgs = %d, want %d", total, want)
	}
}

// TestTelemetrySubCommunicators checks Split-created communicators get
// their own telemetry slots.
func TestTelemetrySubCommunicators(t *testing.T) {
	sys := newSys(4, machine.SN).EnableTelemetry()
	Run(sys, Algorithmic, func(p *P) {
		sub := p.Split(p.Rank()%2, p.Rank())
		sub.Allreduce(Sum, 64, nil)
	})
	rep := sys.Tel.MPI.Report()
	if len(rep.Comms) != 3 { // world + two halves
		t.Fatalf("comms = %d, want 3", len(rep.Comms))
	}
	for _, c := range rep.Comms[1:] {
		if c.Size != 2 {
			t.Errorf("sub-communicator size = %d, want 2", c.Size)
		}
		if len(c.Ops) == 0 {
			t.Errorf("sub-communicator %d recorded no ops", c.ID)
		}
	}
}

// TestSendRecvZeroAllocsWithTelemetryOff is the zero-alloc guard the CI
// relies on: the telemetry-off message hot path must not regress to
// allocating.
func TestSendRecvZeroAllocsWithTelemetryOff(t *testing.T) {
	requireZeroAllocPingPong(t, "telemetry")
}

// BenchmarkMPIPingPongTelemetry is the ping-pong with telemetry enabled:
// the full per-message accounting cost (byte counters, histogram, series).
func BenchmarkMPIPingPongTelemetry(b *testing.B) {
	sys := newSys(2, machine.SN).EnableTelemetry()
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
