package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// MPI-layer micro-benchmarks: the per-operation cost of the simulated
// runtime itself, one layer above the fabric benchmarks in
// internal/network. BenchmarkMPIPingPong is the canary for the
// allocation-free message path — it must report 0 allocs/op.
//
// The b.N loop runs inside the simulated ranks: only one simulated process
// executes at a time (the engine resumes one coroutine at a time), so
// calling ResetTimer from rank 0 between warmup and the measured loop is
// safe.

// BenchmarkMPIPingPong measures one blocking Send/Recv round trip between
// two ranks in steady state (warm routes, warm pending lists, warm pools).
func BenchmarkMPIPingPong(b *testing.B) {
	sys := newSys(2, machine.SN)
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

// pingPongAllocs runs the ping-pong benchmark once through
// testing.Benchmark and reports its allocs/op. With no observer on, the
// fabric's one reservation probe is nil and the MPI layer's telemetry,
// critical-path and timeline pointers are nil, so the telemetry, timeline
// and critpath off paths are one path, measured once and shared by the
// three zero-alloc guards.
var pingPongAllocs = sync.OnceValue(func() int64 {
	return testing.Benchmark(BenchmarkMPIPingPong).AllocsPerOp()
})

// requireZeroAllocPingPong is the zero-alloc guard for the observer-off
// message path: each site pays a nil check and the Send/Recv round trip
// must stay allocation-free. off names the observer the calling guard is
// about.
func requireZeroAllocPingPong(t *testing.T, off string) {
	t.Helper()
	if testing.Short() {
		t.Skip("benchmark-backed guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	if a := pingPongAllocs(); a != 0 {
		t.Fatalf("Send/Recv round trip allocates %d allocs/op with %s off, want 0", a, off)
	}
}

// benchCollective runs body b.N times on every rank of an algorithmic
// communicator after a short warmup. Collectives synchronise all ranks, so
// rank 0's timer window covers the whole communicator's work.
func benchCollective(b *testing.B, ranks int, body func(p *P)) {
	sys := newSys(ranks, machine.SN)
	b.ReportAllocs()
	Run(sys, Algorithmic, func(p *P) {
		const warm = 10
		for i := 0; i < warm; i++ {
			body(p)
		}
		if p.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			body(p)
		}
	})
}

// BenchmarkMPIAllreduce measures the 8-byte recursive-doubling Allreduce —
// the latency-bound pattern of POP's barotropic solver (§6.2).
func BenchmarkMPIAllreduce(b *testing.B) {
	for _, ranks := range []int{16, 64} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			benchCollective(b, ranks, func(p *P) { p.Allreduce(Sum, 8, nil) })
		})
	}
}

// BenchmarkMPIHalo measures a full 64-rank S3D-class ghost-exchange run
// (build system, run) on the serial engine versus the sharded
// scheduler at 2 and 4 domains. The workload is the byte-identical
// equivalence class of DESIGN.md §4h, so the domain variants measure pure
// scheduling overhead/speedup, not behavioural change.
func BenchmarkMPIHalo(b *testing.B) {
	for _, domains := range []int{0, 2, 4} {
		name := "serial"
		if domains > 0 {
			name = fmt.Sprintf("domains=%d", domains)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := core.NewSystem(machine.XT4(), machine.SN, 64)
				if domains > 0 && !sys.EnableParallel(domains) {
					b.Fatalf("EnableParallel(%d) declined: %s", domains, sys.ParallelReason())
				}
				w := NewWorld(sys)
				w.CollMode = Algorithmic
				comm := w.newComm(identity(sys.NumTasks))
				sys.Run(func(r *core.Rank) {
					haloBody(4, 4, 4, 3, 8192)(comm.view(r))
				})
			}
		})
	}
}

// BenchmarkMPIPaperScaleHeap builds and runs a full-machine VN world
// (23,016 ranks, the paper's combined system) through one nearest-neighbour
// ring round and reports the steady-state live heap per rank — the same
// accounting as TestPaperScaleHeapBudget, so its heap-B/rank metric sits
// beside the wall clock of standing up a paper-scale world (the test pins
// the budget, 1536 B/rank).
func BenchmarkMPIPaperScaleHeap(b *testing.B) {
	m := machine.XT4Full()
	tasks := m.MaxCores() // 23,016
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var perRank float64
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(m, machine.VN, tasks)
		base := heap()
		w := NewWorld(sys)
		w.CollMode = Algorithmic
		comm := w.newComm(identity(tasks))
		sys.Run(func(r *core.Rank) { ringBody(comm.view(r)) })
		if pr := float64(heap()-base) / float64(tasks); pr > perRank {
			perRank = pr
		}
		runtime.KeepAlive(comm)
	}
	b.ReportMetric(perRank, "heap-B/rank")
}

// BenchmarkMPIAlltoall measures the pairwise-exchange Alltoall that
// dominates the MPI-FFT and PTRANS transposes.
func BenchmarkMPIAlltoall(b *testing.B) {
	for _, ranks := range []int{16, 64} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			benchCollective(b, ranks, func(p *P) { p.Alltoall(4096) })
		})
	}
}
