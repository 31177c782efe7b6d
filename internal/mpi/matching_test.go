package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// TestMatchingFIFOAcrossBursts drives one (source, tag) flow through many
// bursts of one to five queued messages, so the pending list fills and
// drains at every depth, and checks strict FIFO delivery throughout.
func TestMatchingFIFOAcrossBursts(t *testing.T) {
	sys := newSys(2, machine.SN)
	const rounds = 60
	Run(sys, Algorithmic, func(p *P) {
		seq := 0
		if p.Rank() == 0 {
			for r := 0; r < rounds; r++ {
				burst := 1 + r%5
				for i := 0; i < burst; i++ {
					p.SendData(1, 3, []float64{float64(seq)})
					seq++
				}
				// The ack drains the queue each round so occupancy cycles
				// through every burst depth.
				p.Recv(1, 4)
			}
		} else {
			for r := 0; r < rounds; r++ {
				burst := 1 + r%5
				for i := 0; i < burst; i++ {
					env := p.Recv(0, 3)
					if env.Data[0] != float64(seq) {
						t.Errorf("round %d: message %d carried %v", r, seq, env.Data[0])
					}
					seq++
				}
				p.Send(0, 4, 8)
			}
		}
	})
}

// TestManyTagsPerPairMatchIndependently queues six concurrent tags between
// one sender/receiver pair (S3D's ghost exchange uses seven per neighbour)
// and receives them in reverse tag order, so every receive but the last
// skips past other tags' pending messages.
func TestManyTagsPerPairMatchIndependently(t *testing.T) {
	sys := newSys(2, machine.SN)
	const tags = 6
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			for tg := 0; tg < tags; tg++ {
				p.SendData(1, tg, []float64{float64(100 + tg)})
			}
		} else {
			for tg := tags - 1; tg >= 0; tg-- {
				env := p.Recv(0, tg)
				if len(env.Data) != 1 || env.Data[0] != float64(100+tg) {
					t.Errorf("tag %d carried %v", tg, env.Data)
				}
			}
		}
	})
}

// TestSplitCommsIsolatedMatching checks that a communicator created by
// Split has matching state fully isolated from its parent: the same
// (source rank, tag) pair in both communicators must not cross-match.
func TestSplitCommsIsolatedMatching(t *testing.T) {
	sys := newSys(4, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		sub := p.Split(p.Rank()%2, p.Rank())
		// World ranks {0,2} form sub comm 0 as sub ranks {0,1}. Task 0 is
		// rank 0 in both communicators; task 2 receives from "rank 0, tag
		// 9" in both. The world message is sent first, so shared matching
		// state would hand it to the sub-communicator receive.
		if p.Rank() == 0 {
			p.SendData(2, 9, []float64{1}) // world comm
			sub.SendData(1, 9, []float64{2})
		} else if p.Rank() == 2 {
			subEnv := sub.Recv(0, 9)
			worldEnv := p.Recv(0, 9)
			if subEnv.Data[0] != 2 || worldEnv.Data[0] != 1 {
				t.Errorf("cross-communicator match: sub=%v world=%v", subEnv.Data, worldEnv.Data)
			}
		}
	})
}

// TestSteadySendRecvAllocationFree is the allocation guard for the message
// path (DESIGN.md §4d): once pending lists, pools, and scratch have reached
// their high-water marks, a blocking Send/Recv pair allocates nothing — no
// envelope boxing, no map inserts, no request or closure allocation.
func TestSteadySendRecvAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sys := newSys(2, machine.SN)
	const warm, measure = 300, 1000
	var delta uint64
	Run(sys, Algorithmic, func(p *P) {
		var ms runtime.MemStats
		if p.Rank() == 0 {
			for i := 0; i < warm; i++ {
				p.Send(1, 0, 4096)
			}
			p.Barrier()
			p.Barrier() // second barrier warms its own matching state fully
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			for i := 0; i < measure; i++ {
				p.Send(1, 0, 4096)
			}
			p.Barrier() // receiver has drained everything once this returns
			runtime.ReadMemStats(&ms)
			delta = ms.Mallocs - before
		} else {
			for i := 0; i < warm; i++ {
				p.Recv(0, 0)
			}
			p.Barrier()
			p.Barrier()
			for i := 0; i < measure; i++ {
				p.Recv(0, 0)
			}
			p.Barrier()
		}
	})
	if delta != 0 {
		t.Fatalf("steady-state Send/Recv allocated %d heap objects over %d pairs", delta, measure)
	}
}

// TestSteadyHaloExchangeAllocationFree is the allocation guard for the
// nonblocking path: once warm, a pairwise Isend + Irecv + Wait exchange
// through a reused request slice allocates nothing, because Wait recycles
// receive requests as it does sends. It runs on the DES and on the
// analytic hybrid tier; the exact tier would fall back to the DES on this
// body, whose barrier routes share links with the pairs'.
func TestSteadyHaloExchangeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tier := range []core.HybridTier{core.HybridOff, core.HybridAnalytic} {
		t.Run(tier.String(), func(t *testing.T) {
			sys := newSys(8, machine.SN)
			if tier != core.HybridOff && !sys.EnableHybrid(tier) {
				t.Fatalf("EnableHybrid declined: %s", sys.HybridReason())
			}
			const warm, measure = 100, 500
			var before, after uint64
			Run(sys, Algorithmic, func(p *P) {
				partner := p.Rank() ^ 1
				reqs := make([]*Request, 0, 2)
				exchange := func(n int) {
					for i := 0; i < n; i++ {
						reqs = append(reqs[:0], p.Isend(partner, 0, 4096), p.Irecv(partner, 0))
						p.Wait(reqs...)
					}
				}
				var ms runtime.MemStats
				exchange(warm)
				p.Barrier()
				p.Barrier() // second barrier warms its own matching state fully
				if p.Rank() == 0 {
					runtime.ReadMemStats(&ms)
					before = ms.Mallocs
				}
				exchange(measure)
				p.Barrier() // every rank has finished exchanging once this returns
				if p.Rank() == 0 {
					runtime.ReadMemStats(&ms)
					after = ms.Mallocs
				}
			})
			if tier != core.HybridOff && !sys.HybridEnabled() {
				t.Fatalf("hybrid fell back: %s", sys.HybridReason())
			}
			if delta := after - before; delta != 0 {
				t.Fatalf("steady-state Isend/Irecv/Wait allocated %d heap objects over %d exchanges on 8 ranks", delta, measure)
			}
		})
	}
}

// TestAnalyticAllreduceResultsNotAliased is the regression test for the
// shared-accumulator aliasing bug: every rank must own its result slice,
// so scribbling on one rank's result cannot corrupt another's.
func TestAnalyticAllreduceResultsNotAliased(t *testing.T) {
	const n = 4
	sys := newSys(n, machine.SN)
	results := make([][]float64, n)
	Run(sys, Analytic, func(p *P) {
		res := p.Allreduce(Sum, 16, []float64{1, 2})
		res[0] += float64(100 * (p.Rank() + 1)) // mutate own result only
		results[p.Rank()] = res
	})
	for r, res := range results {
		want0 := float64(n) + float64(100*(r+1))
		if len(res) != 2 || res[0] != want0 || res[1] != 2*n {
			t.Errorf("rank %d result %v, want [%v %v] (aliased shared buffer?)",
				r, res, want0, 2*n)
		}
	}
}

// TestAnalyticBcastResultsNotAliased covers the shareFromRoot side of the
// same bug: non-root ranks must receive copies, not the root's slice.
func TestAnalyticBcastResultsNotAliased(t *testing.T) {
	const n, root = 4, 2
	sys := newSys(n, machine.SN)
	results := make([][]float64, n)
	Run(sys, Analytic, func(p *P) {
		var data []float64
		if p.Rank() == root {
			data = []float64{7}
		}
		res := p.Bcast(root, 8, data)
		res[0] += float64(p.Rank())
		results[p.Rank()] = res
	})
	for r, res := range results {
		if len(res) != 1 || res[0] != 7+float64(r) {
			t.Errorf("rank %d bcast result %v, want [%v] (aliased shared buffer?)",
				r, res, 7+float64(r))
		}
	}
}
