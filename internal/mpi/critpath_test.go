package mpi

import (
	"math"
	"strings"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

func critSys(n int, mode machine.Mode) *core.System {
	return core.NewSystem(machine.XT4(), mode, n).EnableCritPath()
}

// TestCritPathAttributionSumsToMakespan is the structural exactness
// guarantee of the analyzer: the backward walk partitions [0, makespan], so
// the five attribution categories must sum to the makespan within float
// addition error — across point-to-point, algorithmic and analytic
// collectives, and both node modes.
func TestCritPathAttributionSumsToMakespan(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode machine.Mode
		impl CollectiveMode
		body func(p *P)
	}{
		{"pingpong-SN", machine.SN, Algorithmic, func(p *P) {
			for i := 0; i < 4; i++ {
				if p.Rank() == 0 {
					p.Send(1, 0, 64<<10)
					p.Recv(1, 1)
				} else if p.Rank() == 1 {
					p.Recv(0, 0)
					p.Send(0, 1, 64<<10)
				}
			}
			p.Barrier()
		}},
		{"halo-VN", machine.VN, Algorithmic, func(p *P) {
			n := p.Size()
			right := (p.Rank() + 1) % n
			left := (p.Rank() + n - 1) % n
			for i := 0; i < 3; i++ {
				p.Compute(core.Work{Flops: 1e6, FlopEff: 0.2, StreamBytes: 1e5, LoopLen: 64})
				reqs := []*Request{
					p.Isend(right, 1, 4096), p.Isend(left, 2, 4096),
					p.Irecv(left, 1), p.Irecv(right, 2),
				}
				p.Wait(reqs...)
			}
		}},
		{"collectives-algorithmic", machine.SN, Algorithmic, func(p *P) {
			p.Allreduce(Sum, 1024, nil)
			p.Alltoall(2048)
			p.Bcast(0, 4096, nil)
			p.Barrier()
		}},
		{"collectives-analytic", machine.VN, Analytic, func(p *P) {
			p.Compute(core.Work{Flops: 1e5 * float64(1+p.Rank()), FlopEff: 0.2, StreamBytes: 1e4, LoopLen: 64})
			p.Allreduce(Sum, 1024, nil)
			p.Alltoall(2048)
			p.Barrier()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := critSys(8, tc.mode)
			elapsed := Run(sys, tc.impl, tc.body)
			rep := sys.CritPathReport()
			if rep == nil {
				t.Fatal("CritPathReport returned nil with recording enabled")
			}
			if rep.MakespanSeconds != elapsed {
				t.Fatalf("report makespan %v != run elapsed %v", rep.MakespanSeconds, elapsed)
			}
			if d := math.Abs(rep.AttributionSum() - rep.MakespanSeconds); d > 1e-9 {
				t.Fatalf("attribution sums to %v, makespan %v (|diff| %g > 1e-9)",
					rep.AttributionSum(), rep.MakespanSeconds, d)
			}
			if rep.Dropped != 0 {
				t.Fatalf("dropped %d records at this tiny scale", rep.Dropped)
			}
			for _, a := range rep.Attribution {
				if a.Seconds < 0 {
					t.Errorf("category %s negative: %v", a.Category, a.Seconds)
				}
			}
		})
	}
}

// TestCritPathMessageEdgeDecomposition checks the causal edge of a remote
// message: its components must sum to the delivery span (arrive - depart)
// and a VN-mode transfer must show NIC injection time on the path.
func TestCritPathMessageEdgeDecomposition(t *testing.T) {
	sys := critSys(4, machine.VN)
	Run(sys, Algorithmic, func(p *P) {
		// One large remote transfer; ranks 0,1 share node 0, ranks 2,3 node 1.
		if p.Rank() == 0 {
			p.Send(2, 0, 1<<20)
		} else if p.Rank() == 2 {
			p.Recv(0, 0)
		}
	})
	rep := sys.CritPathReport()
	if rep.EdgesRecorded == 0 {
		t.Fatal("no edges recorded for a remote message")
	}
	if rep.Category("nic_injection").Seconds <= 0 {
		t.Error("a 1 MiB remote transfer on the path shows no NIC injection time")
	}
	if rep.Category("link_transit").Seconds <= 0 {
		t.Error("a remote transfer on the path shows no link transit time")
	}
	if d := math.Abs(rep.AttributionSum() - rep.MakespanSeconds); d > 1e-9 {
		t.Fatalf("attribution/makespan diff %g", d)
	}
}

// TestCritPathBlamesSlowRank builds a deliberately imbalanced program —
// rank 2 computes 10x longer before a barrier — and checks the analyzer
// puts the path through the slow rank and gives the fast ranks the slack.
func TestCritPathBlamesSlowRank(t *testing.T) {
	sys := critSys(4, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		w := core.Work{Flops: 1e7, FlopEff: 0.2, StreamBytes: 1e5, LoopLen: 64}
		if p.Rank() == 2 {
			w.Flops *= 10
		}
		p.Compute(w)
		p.Barrier()
	})
	rep := sys.CritPathReport()
	if len(rep.ByRank) == 0 || rep.ByRank[0].Name != "rank 2" {
		t.Fatalf("top path rank = %+v, want rank 2", rep.ByRank)
	}
	if rep.Slack == nil {
		t.Fatal("no slack stats")
	}
	if rep.Slack.MinRank != 2 {
		t.Errorf("min-slack rank = %d, want the slow rank 2", rep.Slack.MinRank)
	}
	if rep.Slack.MaxSeconds <= rep.Slack.MinSeconds {
		t.Errorf("slack spread missing: min %v max %v", rep.Slack.MinSeconds, rep.Slack.MaxSeconds)
	}
	// The imbalanced compute dominates the attribution.
	if c := rep.Category("compute"); c.Share < 0.5 {
		t.Errorf("compute share = %v on a compute-bound program", c.Share)
	}
}

// TestCritPathDeterministicExport runs the same program twice and requires
// a byte-identical JSON export.
func TestCritPathDeterministicExport(t *testing.T) {
	exportOnce := func() string {
		sys := critSys(8, machine.VN)
		Run(sys, Auto, func(p *P) {
			p.Compute(core.Work{Flops: 1e6 * float64(1+p.Rank()%3), FlopEff: 0.2, StreamBytes: 1e5, LoopLen: 64})
			p.Allreduce(Sum, 2048, nil)
			p.Alltoall(4096)
			p.Barrier()
		})
		rep := sys.CritPathReport()
		var js strings.Builder
		if err := rep.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return js.String()
	}
	j1, j2 := exportOnce(), exportOnce()
	if j1 != j2 {
		t.Error("JSON export differs between identical runs")
	}
	if j1 == "" {
		t.Error("empty export")
	}
}

// TestCritPathOffIsFree checks the recorder is genuinely opt-in: a system
// without EnableCritPath reports nil and runs produce identical timing.
func TestCritPathOffIsFree(t *testing.T) {
	body := func(p *P) {
		p.Allreduce(Sum, 1024, nil)
		p.Barrier()
	}
	off := newSys(4, machine.SN)
	on := critSys(4, machine.SN)
	tOff := Run(off, Algorithmic, body)
	tOn := Run(on, Algorithmic, body)
	if off.CritPathReport() != nil {
		t.Error("report should be nil without EnableCritPath")
	}
	if tOff != tOn {
		t.Errorf("recording changed simulated time: off %v on %v", tOff, tOn)
	}
}

// TestZeroAllocsWithCritPathOff is the causal recorder's zero-alloc guard:
// the recorder-off message hot path must stay allocation-free.
func TestZeroAllocsWithCritPathOff(t *testing.T) {
	requireZeroAllocPingPong(t, "critpath")
}

// BenchmarkMPIPingPongCritPath bounds the recorder-on cost of the message
// path: every round trip records two waits and finishes two causal edges.
func BenchmarkMPIPingPongCritPath(b *testing.B) {
	sys := critSys(2, machine.SN)
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

// BenchmarkMPIAllreduceCritPath bounds the recorder-on cost of the
// collective path (analytic implementation: one shared edge per
// collective).
func BenchmarkMPIAllreduceCritPath(b *testing.B) {
	sys := critSys(16, machine.SN)
	b.ReportAllocs()
	Run(sys, Analytic, func(p *P) {
		for i := 0; i < b.N; i++ {
			p.Allreduce(Sum, 1024, nil)
		}
	})
}
