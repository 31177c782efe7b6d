package core

import (
	"math"
	"testing"

	"xtsim/internal/machine"
)

func TestPlacementSNMode(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 8)
	if s.TasksPerNode != 1 {
		t.Fatalf("SN tasks/node = %d, want 1", s.TasksPerNode)
	}
	for task := 0; task < 8; task++ {
		node, coreIdx := s.Place(task)
		if node != task || coreIdx != 0 {
			t.Fatalf("SN place(%d) = (%d,%d)", task, node, coreIdx)
		}
	}
}

func TestPlacementVNMode(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.VN, 8)
	if s.TasksPerNode != 2 {
		t.Fatalf("VN tasks/node = %d, want 2", s.TasksPerNode)
	}
	node, coreIdx := s.Place(5)
	if node != 2 || coreIdx != 1 {
		t.Fatalf("VN place(5) = (%d,%d), want (2,1)", node, coreIdx)
	}
}

func TestSingleCoreMachineModesIdentical(t *testing.T) {
	sn := NewSystem(machine.XT3(), machine.SN, 4)
	vn := NewSystem(machine.XT3(), machine.VN, 4)
	if sn.TasksPerNode != 1 || vn.TasksPerNode != 1 {
		t.Fatal("single-core XT3 should place one task per node in both modes")
	}
}

func TestSingleCoreVNDeclinesFastPaths(t *testing.T) {
	// One task per node, but VN messages still pass the XT3's proxy core,
	// whose arrival-ordered queue only the serial route walk can book.
	for _, mode := range []machine.Mode{machine.SN, machine.VN} {
		par := NewSystem(machine.XT3(), mode, 64)
		exact := NewSystem(machine.XT3(), mode, 64)
		gotPar, gotExact := par.EnableParallel(2), exact.EnableHybrid(HybridExact)
		if want := mode == machine.SN; gotPar != want || gotExact != want {
			t.Fatalf("XT3 %v: parallel %v (%q), exact hybrid %v (%q); want both %v",
				mode, gotPar, par.ParallelReason(), gotExact, exact.HybridReason(), want)
		}
	}
	if !NewSystem(machine.XT3(), machine.VN, 64).EnableHybrid(HybridAnalytic) {
		t.Fatal("analytic hybrid prices VN stages in closed form and should admit XT3 VN")
	}
}

func TestVNModeSplitsMemory(t *testing.T) {
	// §2: in VN mode the node's memory is divided evenly between cores.
	sn := NewSystem(machine.XT4(), machine.SN, 2)
	vn := NewSystem(machine.XT4(), machine.VN, 2)
	if sn.TaskMemBytes() != 2*vn.TaskMemBytes() {
		t.Fatalf("SN task memory %d should be twice VN %d", sn.TaskMemBytes(), vn.TaskMemBytes())
	}
	if sn.TaskMemBytes() != 4<<30 {
		t.Fatalf("SN task memory = %d, want 4 GiB (2 GB/core x 2 cores)", sn.TaskMemBytes())
	}
}

func TestOversubscriptionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("exceeding machine size did not panic")
		}
	}()
	NewSystem(machine.XT4(), machine.SN, machine.XT4().TotalNodes+1)
}

func TestComputeFlopBound(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 1)
	var elapsed float64
	s.Run(func(r *Rank) {
		r.Compute(Work{Flops: 2e9, FlopEff: 1.0})
		elapsed = r.Now()
	})
	want := 2e9 / (5.2e9) // 2 GFlop at 5.2 GF peak
	if math.Abs(elapsed-want) > 1e-9 {
		t.Fatalf("flop-bound time = %v, want %v", elapsed, want)
	}
}

func TestComputeDefaultsToDGEMMEff(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 1)
	var elapsed float64
	s.Run(func(r *Rank) {
		r.Compute(Work{Flops: 1e9})
		elapsed = r.Now()
	})
	want := 1e9 / (5.2e9 * 0.88)
	if math.Abs(elapsed-want) > 1e-9 {
		t.Fatalf("time = %v, want %v", elapsed, want)
	}
}

func TestStreamSharingHalvesPerCoreBandwidth(t *testing.T) {
	// The EP-mode STREAM result (Figure 7): two cores streaming
	// concurrently each get half the socket bandwidth.
	m := machine.XT4()
	bytesEach := m.Mem.StreamBW() // one second of solo streaming

	solo := NewSystem(m, machine.SN, 1)
	var tSolo float64
	solo.Run(func(r *Rank) {
		r.Compute(Work{StreamBytes: bytesEach})
		tSolo = r.Now()
	})

	dual := NewSystem(m, machine.VN, 2)
	var tDual float64
	dual.Run(func(r *Rank) {
		r.Compute(Work{StreamBytes: bytesEach})
		if r.ID == 0 {
			tDual = r.Now()
		}
	})
	if math.Abs(tSolo-1.0) > 1e-6 {
		t.Fatalf("solo stream time = %v, want 1.0", tSolo)
	}
	if math.Abs(tDual-2.0) > 1e-6 {
		t.Fatalf("dual stream time = %v, want 2.0 (half bandwidth each)", tDual)
	}
}

func TestRandomAccessSharing(t *testing.T) {
	// Figure 6: per-core EP RandomAccess is half the SP value — same
	// per-socket rate regardless of active cores.
	m := machine.XT4()
	updates := m.Mem.RandomRate() * 0.5

	solo := NewSystem(m, machine.SN, 1)
	var tSolo float64
	solo.Run(func(r *Rank) { r.Compute(Work{RandomAccesses: updates}); tSolo = r.Now() })

	dual := NewSystem(m, machine.VN, 2)
	var tDual float64
	dual.Run(func(r *Rank) {
		r.Compute(Work{RandomAccesses: updates})
		if r.ID == 0 {
			tDual = r.Now()
		}
	})
	if math.Abs(tDual/tSolo-2.0) > 1e-6 {
		t.Fatalf("dual/solo random-access ratio = %v, want 2.0", tDual/tSolo)
	}
}

func TestTwoNodesDoNotContend(t *testing.T) {
	// SN-mode tasks on different nodes have private memory systems.
	m := machine.XT4()
	bytesEach := m.Mem.StreamBW()
	s := NewSystem(m, machine.SN, 2)
	var finish [2]float64
	s.Run(func(r *Rank) {
		r.Compute(Work{StreamBytes: bytesEach})
		finish[r.ID] = r.Now()
	})
	for i, f := range finish {
		if math.Abs(f-1.0) > 1e-6 {
			t.Fatalf("rank %d finished at %v, want 1.0 (no cross-node contention)", i, f)
		}
	}
}

func TestVectorLoopLengthDerating(t *testing.T) {
	// Short loops on a vector machine lose efficiency (Hockney n½).
	m := machine.X1E()
	s := NewSystem(m, machine.SN, 1)
	long := Work{Flops: 1e9, FlopEff: 0.9, LoopLen: 10000}
	short := Work{Flops: 1e9, FlopEff: 0.9, LoopLen: 64}
	var tLong, tShort float64
	s.Run(func(r *Rank) {
		start := r.Now()
		r.Compute(long)
		tLong = r.Now() - start
		start = r.Now()
		r.Compute(short)
		tShort = r.Now() - start
	})
	if tShort <= tLong {
		t.Fatalf("short-vector compute (%v) should be slower than long-vector (%v)", tShort, tLong)
	}
	// n½ = 128: 64-length loops run at 64/192 = 1/3 efficiency relative.
	ratio := tShort / tLong
	wantRatio := (64.0 + 128.0) / 64.0 * (10000.0 / (10000.0 + 128.0))
	if math.Abs(ratio-wantRatio) > 0.05*wantRatio {
		t.Fatalf("derating ratio = %v, want ≈ %v", ratio, wantRatio)
	}
}

func TestScalarMachineIgnoresLoopLen(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 1)
	var t1, t2 float64
	s.Run(func(r *Rank) {
		start := r.Now()
		r.Compute(Work{Flops: 1e9, FlopEff: 0.5, LoopLen: 8})
		t1 = r.Now() - start
		start = r.Now()
		r.Compute(Work{Flops: 1e9, FlopEff: 0.5})
		t2 = r.Now() - start
	})
	if t1 != t2 {
		t.Fatalf("LoopLen should not affect scalar machines: %v vs %v", t1, t2)
	}
}

func TestEstimateMatchesUncontendedCompute(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 1)
	w := Work{Flops: 1e9, FlopEff: 0.5, StreamBytes: 1e9, RandomAccesses: 1e6}
	var got, want float64
	s.Run(func(r *Rank) {
		want = r.EstimateSeconds(w)
		start := r.Now()
		r.Compute(w)
		got = r.Now() - start
	})
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("estimate %v != simulated %v", want, got)
	}
}

func TestComputeSeconds(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 1)
	var now float64
	s.Run(func(r *Rank) {
		r.ComputeSeconds(1.5)
		r.ComputeSeconds(0)
		now = r.Now()
	})
	if math.Abs(now-1.5) > 1e-12 {
		t.Fatalf("elapsed = %v, want 1.5", now)
	}
}

func TestNoiseAddsVariation(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 1)
	s.NoiseAmp = 0.5
	var total float64
	s.Run(func(r *Rank) {
		for i := 0; i < 100; i++ {
			r.Compute(Work{Flops: 1e6, FlopEff: 1})
		}
		total = r.Now()
	})
	base := 100 * 1e6 / 5.2e9
	if total <= base {
		t.Fatalf("noisy run %v should exceed noiseless %v", total, base)
	}
	if total > base*1.5+1e-9 {
		t.Fatalf("noise exceeded its amplitude: %v > %v", total, base*1.5)
	}
}

func TestRunReturnsMakespan(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 3)
	end := s.Run(func(r *Rank) {
		r.ComputeSeconds(float64(r.ID) * 0.25)
	})
	if math.Abs(end-0.5) > 1e-12 {
		t.Fatalf("makespan = %v, want 0.5", end)
	}
}

func TestSetPlacementRemapsTasks(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.VN, 4)
	// Reverse placement: task 0 -> slot 3 (node 1, core 1).
	s.SetPlacement([]int{3, 2, 1, 0})
	node, coreIdx := s.Place(0)
	if node != 1 || coreIdx != 1 {
		t.Fatalf("place(0) = (%d,%d), want (1,1)", node, coreIdx)
	}
	node, coreIdx = s.Place(3)
	if node != 0 || coreIdx != 0 {
		t.Fatalf("place(3) = (%d,%d), want (0,0)", node, coreIdx)
	}
}

func TestSetPlacementValidates(t *testing.T) {
	s := NewSystem(machine.XT4(), machine.SN, 3)
	for _, perm := range [][]int{
		{0, 1},    // wrong length
		{0, 0, 1}, // duplicate
		{0, 1, 5}, // out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad placement %v accepted", perm)
				}
			}()
			s.SetPlacement(perm)
		}()
	}
}
