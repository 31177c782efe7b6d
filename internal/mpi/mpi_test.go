package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

func newSys(n int, mode machine.Mode) *core.System {
	return core.NewSystem(machine.XT4(), mode, n)
}

func TestSendRecvDeliversPayload(t *testing.T) {
	sys := newSys(2, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			p.SendData(1, 7, []float64{1, 2, 3})
		} else {
			env := p.Recv(0, 7)
			if env.Src != 0 || env.Tag != 7 || env.Bytes != 24 {
				t.Errorf("envelope = %+v", env)
			}
			if len(env.Data) != 3 || env.Data[2] != 3 {
				t.Errorf("data = %v", env.Data)
			}
		}
	})
}

func TestMessagesFromSamePairOrdered(t *testing.T) {
	sys := newSys(2, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				p.SendData(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				env := p.Recv(0, 0)
				if env.Data[0] != float64(i) {
					t.Errorf("message %d carried %v", i, env.Data[0])
				}
			}
		}
	})
}

func TestTagsMatchIndependently(t *testing.T) {
	sys := newSys(2, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			p.SendData(1, 1, []float64{1})
			p.SendData(1, 2, []float64{2})
		} else {
			// Receive in the opposite tag order.
			e2 := p.Recv(0, 2)
			e1 := p.Recv(0, 1)
			if e2.Data[0] != 2 || e1.Data[0] != 1 {
				t.Errorf("tag matching broken: %v %v", e1.Data, e2.Data)
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	sys := newSys(2, machine.SN)
	var overlapOK bool
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			req := p.Isend(1, 0, 1<<20)
			p.Task().ComputeSeconds(0.01) // compute while the send flies
			p.Wait(req)
		} else {
			req := p.Irecv(0, 0)
			p.Task().ComputeSeconds(0.01)
			p.Wait(req)
			// 1 MB at ~2 GB/s is ~0.5 ms, fully hidden behind 10 ms compute.
			overlapOK = p.Now() < 0.012
			if len(p.pend) != 0 {
				t.Errorf("Wait left %d message(s) pending: the Irecv did not receive", len(p.pend))
			}
		}
	})
	if !overlapOK {
		t.Error("communication was not overlapped with computation")
	}
	if f := sys.Fabric; f.MsgsDelivered != 1 || f.BytesDelivered != 1<<20 {
		t.Errorf("delivered %d msgs / %d bytes, want 1 / %d", f.MsgsDelivered, f.BytesDelivered, 1<<20)
	}
}

func TestSendRecvExchange(t *testing.T) {
	sys := newSys(4, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		n := p.Size()
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		env := p.SendRecv(right, 5, 1024, left, 5)
		if env.Src != left || env.Bytes != 1024 {
			t.Errorf("rank %d got %+v", p.Rank(), env)
		}
	})
}

func TestBarrierSynchronises(t *testing.T) {
	sys := newSys(8, machine.SN)
	after := make([]float64, 8)
	var latest float64
	Run(sys, Algorithmic, func(p *P) {
		// Stagger arrivals.
		p.Task().ComputeSeconds(float64(p.Rank()) * 0.001)
		if p.Rank() == 7 {
			latest = p.Now()
		}
		p.Barrier()
		after[p.Rank()] = p.Now()
	})
	for r, a := range after {
		if a < latest {
			t.Errorf("rank %d left the barrier at %v before last arrival %v", r, a, latest)
		}
	}
}

func TestBcastDeliversData(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 16} {
		sys := newSys(n, machine.SN)
		Run(sys, Algorithmic, func(p *P) {
			var data []float64
			if p.Rank() == 2%n {
				data = []float64{42, 43}
			}
			got := p.Bcast(2%n, 16, data)
			if len(got) != 2 || got[0] != 42 || got[1] != 43 {
				t.Errorf("n=%d rank %d got %v", n, p.Rank(), got)
			}
		})
	}
}

func TestAllreduceSumAllSizes(t *testing.T) {
	// Exercises the power-of-two fast path and the fold/unfold path.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17} {
		sys := newSys(n, machine.SN)
		Run(sys, Algorithmic, func(p *P) {
			res := p.Allreduce(Sum, 8, []float64{float64(p.Rank() + 1)})
			want := float64(n*(n+1)) / 2
			if res == nil || res[0] != want {
				t.Errorf("n=%d rank %d allreduce = %v, want %v", n, p.Rank(), res, want)
			}
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	sys := newSys(6, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		v := float64(p.Rank())
		mx := p.Allreduce(Max, 16, []float64{v, -v})
		if mx[0] != 5 || mx[1] != 0 {
			t.Errorf("max = %v", mx)
		}
		mn := p.Allreduce(Min, 16, []float64{v, -v})
		if mn[0] != 0 || mn[1] != -5 {
			t.Errorf("min = %v", mn)
		}
	})
}

func TestAllreduceAnalyticMatchesData(t *testing.T) {
	sys := newSys(9, machine.SN)
	Run(sys, Analytic, func(p *P) {
		res := p.Allreduce(Sum, 8, []float64{1})
		if res == nil || res[0] != 9 {
			t.Errorf("analytic allreduce = %v, want 9", res)
		}
	})
}

func TestAnalyticCostTracksAlgorithmic(t *testing.T) {
	// The closed-form collective cost should be within 3x of the simulated
	// algorithm at small scale (it ignores contention but keeps the same
	// log term).
	for _, n := range []int{8, 32, 64} {
		cost := func(mode CollectiveMode) float64 {
			sys := newSys(n, machine.SN)
			return Run(sys, mode, func(p *P) {
				for i := 0; i < 5; i++ {
					p.Allreduce(Sum, 8, nil)
				}
			})
		}
		alg := cost(Algorithmic)
		ana := cost(Analytic)
		if ratio := alg / ana; ratio < 0.33 || ratio > 3 {
			t.Errorf("n=%d analytic %.3g vs algorithmic %.3g (ratio %.2f)", n, ana, alg, ratio)
		}
	}
}

// TestAnalyticLatestEntrantPrices pins which rank prices an analytic
// collective: the one that entered it last, with the cost it brought.
// Every rank enters Alltoallv at its own time with its own total; the
// latest entrant is neither the first arrival (by time on the DES, by run
// queue on the hybrid path) nor the rank with the largest total, so
// pricing with either of those changes the makespan.
func TestAnalyticLatestEntrantPrices(t *testing.T) {
	const n = 8
	entry := func(r int) float64 { return float64((5*r+3)%n+1) * 1e-6 }
	const latest = 4 // entry(4) = 8 µs, the only maximum
	own := func(r int) int64 { return int64(r+1) << 12 }
	for _, tier := range []core.HybridTier{core.HybridOff, core.HybridExact} {
		run := func(total func(r int) int64) float64 {
			sys := newSys(n, machine.SN)
			if tier != core.HybridOff && !sys.EnableHybrid(tier) {
				t.Fatalf("EnableHybrid declined: %s", sys.HybridReason())
			}
			end := Run(sys, Analytic, func(p *P) {
				p.Task().ComputeSeconds(entry(p.Rank()))
				sizes := make([]int64, n)
				for i := range sizes {
					if i != p.Rank() {
						sizes[i] = total(p.Rank()) / (n - 1)
					}
				}
				p.Alltoallv(sizes)
			})
			if tier != core.HybridOff && !sys.HybridEnabled() {
				t.Fatalf("hybrid fell back: %s", sys.HybridReason())
			}
			return end
		}
		got := run(own)
		if want := run(func(int) int64 { return own(latest) }); got != want {
			t.Errorf("%v: makespan %v with per-rank totals, %v with every rank at the latest entrant's", tier, got, want)
		}
		bumped := run(func(r int) int64 {
			if r == latest {
				return 2 * own(r)
			}
			return own(r)
		})
		if bumped == got {
			t.Errorf("%v: doubling the latest entrant's total left the makespan at %v", tier, got)
		}
	}
}

func TestAutoModeSwitchesAtThreshold(t *testing.T) {
	small := newSys(4, machine.SN)
	if got := Run(small, Auto, func(p *P) { p.Barrier() }); got <= 0 {
		t.Error("auto-mode barrier on 4 ranks should take time")
	}
	// Above threshold the barrier should cost ~log2(n)*alpha, far less
	// than n alpha-scale messages through one run queue would imply; we
	// simply check it runs and has sane magnitude (< 1 ms).
	big := core.NewSystem(machine.XT4(), machine.VN, 1000)
	end := Run(big, Auto, func(p *P) { p.Barrier() })
	if end <= 0 || end > 1e-3 {
		t.Errorf("1000-rank auto barrier took %v s", end)
	}
}

func TestAlltoallCompletes(t *testing.T) {
	sys := newSys(6, machine.SN)
	end := Run(sys, Algorithmic, func(p *P) {
		p.Alltoall(4096)
	})
	if end <= 0 {
		t.Fatal("alltoall consumed no time")
	}
}

func TestAlltoallvAsymmetricSizes(t *testing.T) {
	sys := newSys(4, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		sizes := make([]int64, 4)
		for i := range sizes {
			if i != p.Rank() {
				sizes[i] = int64(1024 * (p.Rank() + 1))
			}
		}
		p.Alltoallv(sizes)
		// Second round to check schedule stays aligned.
		p.Alltoallv(sizes)
	})
}

func TestAlltoallvSizeMismatchPanics(t *testing.T) {
	sys := newSys(2, machine.SN)
	panicked := make([]bool, 2)
	Run(sys, Algorithmic, func(p *P) {
		// Each rank panics at validation (before any communication); the
		// recover runs inside the rank's own goroutine.
		defer func() {
			if recover() != nil {
				panicked[p.Rank()] = true
			}
		}()
		p.Alltoallv(make([]int64, 3))
	})
	if !panicked[0] || !panicked[1] {
		t.Error("bad sizes slice did not panic on all ranks")
	}
}

func TestSplitRowsAndColumns(t *testing.T) {
	// 2D 3x2 process grid: split by row then column, and do row/col
	// reductions — the CAM/HPL communication pattern.
	sys := newSys(6, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		row := p.Rank() / 2
		col := p.Rank() % 2
		rp := p.Split(row, col)
		if rp.Size() != 2 || rp.Rank() != col {
			t.Errorf("rank %d: row comm size %d rank %d", p.Rank(), rp.Size(), rp.Rank())
		}
		res := rp.Allreduce(Sum, 8, []float64{1})
		if res[0] != 2 {
			t.Errorf("row allreduce = %v", res)
		}
		cp := p.Split(col+100, row)
		if cp.Size() != 3 || cp.Rank() != row {
			t.Errorf("rank %d: col comm size %d rank %d", p.Rank(), cp.Size(), cp.Rank())
		}
		res = cp.Allreduce(Sum, 8, []float64{1})
		if res[0] != 3 {
			t.Errorf("col allreduce = %v", res)
		}
	})
}

func TestVNModeSlowerThanSNForLatencyBound(t *testing.T) {
	// The central VN-mode result: many small messages from both cores are
	// slower per task than SN mode (Figures 2 and 11).
	run := func(mode machine.Mode) float64 {
		sys := core.NewSystem(machine.XT4(), mode, 8)
		return Run(sys, Algorithmic, func(p *P) {
			for i := 0; i < 50; i++ {
				p.Allreduce(Sum, 8, nil)
			}
		})
	}
	sn := run(machine.SN)
	vn := run(machine.VN)
	if vn <= sn {
		t.Fatalf("VN (%v) should be slower than SN (%v) for latency-bound collectives", vn, sn)
	}
}

// Property: Allreduce(Sum) equals the sequential sum for random
// contributions, for any communicator size.
func TestAllreduceEqualsSequentialProperty(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%12) + 1
		contrib := make([]float64, n)
		rng := newDeterministicFloats(seed)
		want := 0.0
		for i := range contrib {
			contrib[i] = rng()
			want += contrib[i]
		}
		ok := true
		sys := newSys(n, machine.SN)
		Run(sys, Algorithmic, func(p *P) {
			res := p.Allreduce(Sum, 8, []float64{contrib[p.Rank()]})
			if math.Abs(res[0]-want) > 1e-9*math.Abs(want)+1e-12 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func newDeterministicFloats(seed int64) func() float64 {
	state := uint64(seed)*2654435761 + 1
	return func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000) / 100
	}
}

func TestStatsAccumulate(t *testing.T) {
	sys := newSys(2, machine.SN)
	w := NewWorld(sys)
	comm := w.newComm(identity(2))
	sys.Run(func(r *core.Rank) {
		p := comm.view(r)
		if p.Rank() == 0 {
			p.Send(1, 0, 1000)
		} else {
			p.Recv(0, 0)
		}
	})
	if f := sys.Fabric; f.MsgsDelivered != 1 || f.BytesDelivered != 1000 {
		t.Fatalf("stats = %d msgs / %d bytes", f.MsgsDelivered, f.BytesDelivered)
	}
}

// Property: a random all-pairs traffic pattern delivers every payload
// intact — a fuzz of the matching engine (tags, ordering, eager copies).
func TestRandomTrafficMatchingProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		rng := newDeterministicFloats(seed)
		// Schedule: msgs[src][dst] = payload value (one message per pair).
		payload := make([][]float64, n)
		for s := range payload {
			payload[s] = make([]float64, n)
			for d := range payload[s] {
				payload[s][d] = rng()
			}
		}
		ok := true
		sys := newSys(n, machine.SN)
		Run(sys, Algorithmic, func(p *P) {
			me := p.Rank()
			var reqs []*Request
			for d := 0; d < n; d++ {
				if d == me {
					continue
				}
				reqs = append(reqs, p.isendData(d, 9, 8, []float64{payload[me][d]}))
			}
			for s := 0; s < n; s++ {
				if s == me {
					continue
				}
				env := p.Recv(s, 9)
				if len(env.Data) != 1 || env.Data[0] != payload[s][me] {
					ok = false
				}
			}
			p.Wait(reqs...)
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceRingCorrectness(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		sys := newSys(n, machine.SN)
		Run(sys, Algorithmic, func(p *P) {
			res := p.AllreduceRing(Sum, 1<<20, []float64{float64(p.Rank() + 1)})
			want := float64(n*(n+1)) / 2
			if res == nil || res[0] != want {
				t.Errorf("n=%d rank %d ring allreduce = %v, want %v", n, p.Rank(), res, want)
			}
		})
	}
}

func TestRingBeatsDoublingForLargePayloads(t *testing.T) {
	// The textbook crossover: ring wins on bandwidth-dominated payloads,
	// recursive doubling wins on latency-dominated ones.
	const n = 16
	run := func(bytes int64, ring bool) float64 {
		sys := newSys(n, machine.SN)
		return Run(sys, Algorithmic, func(p *P) {
			if ring {
				p.AllreduceRing(Sum, bytes, nil)
			} else {
				p.Allreduce(Sum, bytes, nil)
			}
		})
	}
	const big = 8 << 20
	if ringT, rdT := run(big, true), run(big, false); ringT >= rdT {
		t.Errorf("8 MiB: ring (%.3g) should beat recursive doubling (%.3g)", ringT, rdT)
	}
	const small = 16
	if ringT, rdT := run(small, true), run(small, false); ringT <= rdT {
		t.Errorf("16 B: recursive doubling (%.3g) should beat ring (%.3g)", rdT, ringT)
	}
}
