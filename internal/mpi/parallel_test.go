package mpi

import (
	"fmt"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// haloBody is an S3D-class workload: six-direction nearest-neighbour ghost
// exchanges interleaved with compute, on a rank grid whose ordering matches
// the torus node numbering (so every exchange is a single-hop route owned
// by the sender's slab — the byte-identical class of DESIGN.md §4h).
func haloBody(px, py, pz int, steps int, bytes int64) func(p *P) {
	return func(p *P) {
		me := p.Rank()
		mx := me % px
		my := (me / px) % py
		mz := me / (px * py)
		neighbour := func(dx, dy, dz int) int {
			x := (mx + dx + px) % px
			y := (my + dy + py) % py
			z := (mz + dz + pz) % pz
			return (z*py+y)*px + x
		}
		dirs := [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
		for s := 0; s < steps; s++ {
			var reqs []*Request
			for d, dir := range dirs {
				nb := neighbour(dir[0], dir[1], dir[2])
				if nb == me {
					continue
				}
				reqs = append(reqs, p.Isend(nb, 10*s+d, bytes))
				reqs = append(reqs, p.Irecv(nb, 10*s+(d^1)))
			}
			p.Wait(reqs...)
			p.Compute(core.Work{Flops: 1e6, FlopEff: 0.5, StreamBytes: 1e5, LoopLen: 64})
		}
	}
}

type haloRun struct {
	makespan float64
	msgs     uint64
	bytes    uint64
	foreign  uint64
	parallel bool
	domains  int
}

func runHalo(t *testing.T, shards int) haloRun {
	t.Helper()
	sys := core.NewSystem(machine.XT4(), machine.SN, 64)
	if shards > 0 {
		if !sys.EnableParallel(shards) {
			t.Fatalf("EnableParallel(%d) declined: %s", shards, sys.ParallelReason())
		}
	}
	w := NewWorld(sys)
	w.CollMode = Algorithmic
	comm := w.newComm(identity(sys.NumTasks))
	end := sys.Run(func(r *core.Rank) {
		haloBody(4, 4, 4, 3, 8192)(comm.view(r))
	})
	sys.Fabric.FoldParallel()
	return haloRun{
		makespan: float64(end),
		msgs:     sys.Fabric.MsgsDelivered,
		bytes:    sys.Fabric.BytesDelivered,
		foreign:  sys.ParallelForeignHops(),
		parallel: sys.ParallelEnabled(),
		domains:  sys.NumDomains(),
	}
}

// TestParallelHaloMatchesSerial pins the tentpole equivalence claim: a
// nearest-neighbour workload produces identical makespan and identical
// traffic counters under the sharded scheduler at 2 and 4 domains, with
// zero foreign hops (every reservation made exactly as the serial fabric
// would).
func TestParallelHaloMatchesSerial(t *testing.T) {
	serial := runHalo(t, 0)
	if serial.makespan <= 0 {
		t.Fatalf("serial makespan = %v", serial.makespan)
	}
	for _, shards := range []int{2, 4} {
		par := runHalo(t, shards)
		if !par.parallel || par.domains != shards {
			t.Fatalf("shards=%d: parallel=%v domains=%d", shards, par.parallel, par.domains)
		}
		if par.foreign != 0 {
			t.Errorf("shards=%d: %d foreign hops, want 0 (halo traffic is slab-local)", shards, par.foreign)
		}
		if par.makespan != serial.makespan {
			t.Errorf("shards=%d: makespan %v != serial %v", shards, par.makespan, serial.makespan)
		}
		if par.msgs != serial.msgs || par.bytes != serial.bytes {
			t.Errorf("shards=%d: fabric %d/%d, serial %d/%d", shards, par.msgs, par.bytes, serial.msgs, serial.bytes)
		}
	}
}

// TestParallelRunTwiceDeterministic pins run-to-run determinism of the
// sharded scheduler itself: two identical 4-domain runs agree exactly.
func TestParallelRunTwiceDeterministic(t *testing.T) {
	a := runHalo(t, 4)
	b := runHalo(t, 4)
	if a != b {
		t.Fatalf("two identical parallel runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestParallelAnalyticFallsBack pins the global-collective policy: a run
// that will use analytic collectives reverts to the serial engine rather
// than racing on shared coordination state.
func TestParallelAnalyticFallsBack(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 64)
	if !sys.EnableParallel(4) {
		t.Fatalf("EnableParallel declined: %s", sys.ParallelReason())
	}
	Run(sys, Analytic, func(p *P) {
		p.Allreduce(Sum, 8, nil)
	})
	if sys.ParallelEnabled() {
		t.Fatal("analytic run left the parallel scheduler enabled")
	}
	if sys.ParallelReason() == "" {
		t.Fatal("fallback recorded no reason")
	}
}

// TestParallelCollectivesWork pins that pure-p2p algorithmic collectives
// (recursive doubling, binomial trees) run correctly across domains: the
// sharded scheduler delivers the same reduction result as serial MPI.
func TestParallelCollectivesWork(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 64)
	if !sys.EnableParallel(4) {
		t.Fatalf("EnableParallel declined: %s", sys.ParallelReason())
	}
	end := Run(sys, Algorithmic, func(p *P) {
		res := p.Allreduce(Sum, 8, []float64{float64(p.Rank())})
		if want := float64(63 * 64 / 2); res[0] != want {
			t.Errorf("rank %d: allreduce = %v, want %v", p.Rank(), res[0], want)
		}
		p.Barrier()
	})
	if end <= 0 {
		t.Fatalf("makespan = %v", end)
	}
}

// TestParallelSharedStateGuard pins the defensive panic: shared-state
// collective scaffolding must refuse to run under the sharded scheduler.
func TestParallelSharedStateGuard(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 64)
	if !sys.EnableParallel(4) {
		t.Fatalf("EnableParallel declined: %s", sys.ParallelReason())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("shared-state collective under parallel scheduler did not panic")
		}
		if s := fmt.Sprint(r); !contains(s, "shared-state") {
			t.Fatalf("panic = %q", s)
		}
	}()
	Run(sys, Algorithmic, func(p *P) {
		p.Split(p.Rank()%2, p.Rank())
	})
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMeetRefusedUnderParallelScheduler pins the one guard that keeps
// meets single-threaded now that no lock protects a communicator's meets
// or the world's communicator list: a Split under the sharded scheduler
// panics on Run's caller instead of letting two domain workers arrive at
// one meet.
func TestMeetRefusedUnderParallelScheduler(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 64)
	if !sys.EnableParallel(2) {
		t.Fatalf("EnableParallel(2) declined: %s", sys.ParallelReason())
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(sys, Algorithmic, func(p *P) { p.Split(p.Rank()%2, p.Rank()) })
		return nil
	}()
	const want = "mpi: shared-state collective coordination under the parallel scheduler; run this workload serially"
	if got != want {
		t.Fatalf("Split under EnableParallel(2) panicked with %v, want %q", got, want)
	}
	if !sys.ParallelEnabled() {
		t.Fatalf("the sharded engine must have run: %s", sys.ParallelReason())
	}
}
