package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// ringBody is a one-round nearest-neighbour exchange: every rank hears
// from exactly one sender (its left neighbour).
func ringBody(p *P) {
	n := p.Size()
	right := (p.me + 1) % n
	left := (p.me - 1 + n) % n
	sreq := p.Isend(right, 7, 1024)
	p.Recv(left, 7)
	p.wait1(sreq)
}

// TestFinishedMeetsReleased checks that a communicator drops each
// shared-state collective once its last rank has arrived. A finished meet
// still holds its condition's waiter array at the full rank count, so
// keeping them would grow the heap with every analytic Barrier of a run.
func TestFinishedMeetsReleased(t *testing.T) {
	const n = 8
	comms := make([]*Comm, 0, 2*n)
	Run(newSys(n, machine.SN), Analytic, func(p *P) {
		for i := 0; i < 3; i++ {
			p.Barrier()
		}
		p.Allreduce(Sum, 8, []float64{1})
		sub := p.Split(p.Rank()%2, p.Rank())
		sub.Barrier()
		comms = append(comms, p.c, sub.c)
	})
	for _, c := range comms {
		if len(c.meets) == 0 {
			t.Fatalf("communicator %d recorded no meets", c.id)
		}
		for seq, m := range c.meets {
			if m != nil {
				t.Fatalf("communicator %d still holds meet %d after every rank left it", c.id, seq)
			}
		}
	}
}

// TestPaperScaleHeapBudget is the 23k-rank heap-budget guard: a
// full-machine VN world (23,016 ranks on the paper's combined system) in
// steady state must stay under 1,344 B of live heap per rank. It measures
// the live-heap delta from before world construction to post-run (world,
// procs, pending lists and route cache included; the fabric and node
// resources are charged to the baseline system). Skipped under -short.
func TestPaperScaleHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale heap guard skipped in -short mode")
	}
	m := machine.XT4Full()
	tasks := m.MaxCores() // 23,016
	sys := core.NewSystem(m, machine.VN, tasks)

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()

	w := NewWorld(sys)
	w.CollMode = Algorithmic
	comm := w.newComm(identity(tasks))
	sys.Run(func(r *core.Rank) { ringBody(comm.view(r)) })

	steady := heap()
	perRank := float64(steady-base) / float64(tasks)
	t.Logf("steady-state heap: %.1f B/rank (%d ranks, %.1f MiB total)",
		perRank, tasks, float64(steady-base)/(1<<20))
	const budget = 1344
	if perRank > budget {
		t.Fatalf("steady-state heap %.1f B/rank exceeds the %d B/rank budget", perRank, budget)
	}

	// Nothing else references the communicator: without this its members'
	// slab would be collected before the measurement above.
	runtime.KeepAlive(comm)
}

// TestAnalyticAllreduceAllocsPerRank is the allocation guard for analytic
// collectives: a rank brings its closed-form cost to the meet as a value,
// so a size-only Allreduce allocates nothing per rank; what is left is the
// meet itself and its condition's waiter array, shared by all ranks. It
// runs 1,024 SN ranks with 100 Allreduces and with none and charges the
// difference.
func TestAnalyticAllreduceAllocsPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, calls = 1024, 100
	measure := func(k int) (mallocs, bytes uint64) {
		sys := newSys(n, machine.SN)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(sys, Analytic, func(p *P) {
			for i := 0; i < k; i++ {
				p.Allreduce(Sum, 8, nil)
			}
		})
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	baseAllocs, baseBytes := measure(0)
	allocs, bytes := measure(calls)
	per := float64(n * calls)
	perRank := (float64(allocs) - float64(baseAllocs)) / per
	t.Logf("%.3f allocations, %.1f B per rank per Allreduce", perRank, (float64(bytes)-float64(baseBytes))/per)
	if perRank >= 0.05 {
		t.Fatalf("%.3f allocations per rank per analytic Allreduce, want < 0.05", perRank)
	}
}
