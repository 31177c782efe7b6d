package mpi

import (
	"math"
	"slices"
	"strings"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// pairBody exchanges payloads between even/odd neighbour pairs (i <-> i^1).
// In SN placement the pair's two directed links are distinct and no other
// rank touches them, so the exact-tier single-owner condition holds by
// construction.
func pairBody(iters int) func(p *P) {
	return func(p *P) {
		partner := p.me ^ 1
		if partner >= p.Size() {
			return
		}
		for it := 0; it < iters; it++ {
			p.Task().ComputeSeconds(float64(p.me+1) * 1e-6)
			sreq := p.isendData(partner, 7, 16, []float64{float64(p.me), float64(it)})
			env := p.Recv(partner, 7)
			p.Wait(sreq)
			if env.Data[0] != float64(partner) || env.Data[1] != float64(it) {
				panic("pairBody: wrong payload")
			}
		}
	}
}

func TestHybridExactMatchesDES(t *testing.T) {
	body := pairBody(5)
	des := Run(newSys(16, machine.SN), Auto, body)

	sys := newSys(16, machine.SN)
	if !sys.EnableHybrid(core.HybridExact) {
		t.Fatalf("EnableHybrid declined: %s", sys.HybridReason())
	}
	hyb := Run(sys, Auto, body)
	if !sys.HybridEnabled() {
		t.Fatalf("hybrid fell back: %s", sys.HybridReason())
	}
	if hyb != des {
		t.Fatalf("hybrid end %v != DES end %v (must be bit-identical)", hyb, des)
	}
}

// TestHybridExactIrecvMatchesDES reuses recycled receive requests as
// sends: each iteration waits a send and then an Irecv, so the next
// iteration's send pops the request the receive just returned, and
// that send's injection is still pending when Wait takes it. A reused
// request that kept its receive fields would make Wait receive instead:
// the DES deadlocks and the hybrid path skips the send's clock advance.
// The exact tier must end bit-identical to the DES, and each Irecv must
// take its iteration's message: whatever its Wait leaves pending is from
// a later iteration.
func TestHybridExactIrecvMatchesDES(t *testing.T) {
	body := func(p *P) {
		partner := p.me ^ 1
		data := make([]float64, 8192)
		for it := 0; it < 5; it++ {
			data[0], data[1] = float64(p.me), float64(it)
			p.Wait(p.isendData(partner, 7, int64(8*len(data)), data))
			p.Task().ComputeSeconds(float64(p.me+1) * 1e-6)
			p.Wait(p.Irecv(partner, 7))
			for _, m := range p.pend {
				if len(m.env.Data) != len(data) || m.env.Data[0] != float64(partner) || m.env.Data[1] <= float64(it) {
					t.Errorf("rank %d iteration %d: left pending %d floats starting %v", p.me, it, len(m.env.Data), m.env.Data[:min(2, len(m.env.Data))])
				}
			}
		}
	}
	des := Run(newSys(16, machine.SN), Auto, body)

	sys := newSys(16, machine.SN)
	if !sys.EnableHybrid(core.HybridExact) {
		t.Fatalf("EnableHybrid declined: %s", sys.HybridReason())
	}
	hyb := Run(sys, Auto, body)
	if !sys.HybridEnabled() {
		t.Fatalf("hybrid fell back: %s", sys.HybridReason())
	}
	if hyb != des {
		t.Fatalf("hybrid end %v != DES end %v (must be bit-identical)", hyb, des)
	}
}

// TestHybridExactUnconsumedMessage pins the makespan contribution of a
// delivered-but-never-received message (the DES counts its arrival event;
// the hybrid counts the sender's horizon). The payload is above the
// rendezvous threshold, so that branch of the exact pricing is exercised.
func TestHybridExactUnconsumedMessage(t *testing.T) {
	body := func(p *P) {
		if p.me == 0 {
			p.Isend(1, 9, 1<<20)
		}
	}
	des := Run(newSys(2, machine.SN), Auto, body)

	sys := newSys(2, machine.SN)
	sys.EnableHybrid(core.HybridExact)
	hyb := Run(sys, Auto, body)
	if !sys.HybridEnabled() {
		t.Fatalf("hybrid fell back: %s", sys.HybridReason())
	}
	if hyb != des || des == 0 {
		t.Fatalf("hybrid end %v != DES end %v", hyb, des)
	}
}

// TestHybridExactCollectivesMatchDES drives the analytic-collective meet
// (Barrier/Allreduce/Bcast/Split) on the hybrid path and
// requires the exact tier to reproduce the DES ends and payloads bit for
// bit. Distinct per-rank compute times keep every meet's max-entry rank
// unique, which is the case where the meet arithmetic is provably
// identical; the Sum payloads are fractional, so a fold order that
// differed between the runtimes would show in the last bits.
func TestHybridExactCollectivesMatchDES(t *testing.T) {
	n := 24
	results := func() ([][]float64, func(p *P)) {
		got := make([][]float64, n)
		return got, func(p *P) {
			p.Task().ComputeSeconds(float64(p.me+1) * 1e-6)
			p.Barrier()
			res := p.Allreduce(Max, 8, []float64{float64(p.me)})
			p.Task().ComputeSeconds(float64(p.me%3) * 1e-7)
			data := p.Bcast(3, 16, []float64{res[0], -1})
			// Both halves split again at once: concurrent communicator
			// creation.
			half := p.Split(p.me%2, p.me)
			sub := half.Split(0, half.me)
			sub.Barrier()
			p.Task().ComputeSeconds(float64(n-p.me) * 1e-7)
			frac := p.Allreduce(Sum, 16, []float64{0.1 * float64(p.me+1), 1 / float64(p.me+3)})
			p.Task().ComputeSeconds(float64(p.me%5) * 1e-7)
			sevenths := p.Allreduce(Sum, 16, []float64{float64(p.me) / 7, float64(2*p.me+1) / 7})
			got[p.me] = append([]float64{data[0]}, append(frac, sevenths...)...)
		}
	}
	desGot, desBody := results()
	des := Run(newSys(n, machine.SN), Analytic, desBody)

	hybGot, hybBody := results()
	sys := newSys(n, machine.SN)
	sys.EnableHybrid(core.HybridExact)
	hyb := Run(sys, Analytic, hybBody)
	if !sys.HybridEnabled() {
		t.Fatalf("hybrid fell back: %s", sys.HybridReason())
	}
	if hyb != des {
		t.Fatalf("hybrid end %v != DES end %v", hyb, des)
	}
	for r := range desGot {
		if len(desGot[r]) != 5 || !slices.Equal(desGot[r], hybGot[r]) {
			t.Fatalf("rank %d: hybrid Bcast/Allreduce payloads %v != DES %v", r, hybGot[r], desGot[r])
		}
	}
}

// TestHybridRankPanicReachesCaller: a panic on one hybrid rank must unwind
// the ranks parked elsewhere and surface on Run's caller with the DES's
// message — not kill the process from a rank goroutine, and not fall back
// to a DES re-run.
func TestHybridRankPanicReachesCaller(t *testing.T) {
	body := func(p *P) {
		if p.me == 3 {
			p.Send(99, 0, 8)
		}
		p.Barrier()
	}
	run := func(sys *core.System) (msg any) {
		defer func() { msg = recover() }()
		Run(sys, Auto, body)
		return nil
	}
	const want = "mpi: rank 99 out of range [0,8)"
	if got := run(newSys(8, machine.SN)); got != want {
		t.Fatalf("DES panic = %v, want %q", got, want)
	}
	sys := newSys(8, machine.SN)
	sys.EnableHybrid(core.HybridExact)
	if got := run(sys); got != want {
		t.Fatalf("hybrid panic = %v, want %q", got, want)
	}
	if !sys.HybridEnabled() {
		t.Fatalf("a rank panic must not abort to the DES (reason %q)", sys.HybridReason())
	}
}

// TestHybridViolationFallsBackIdentically fans every rank into rank 0 —
// the routes share links near the root, so the exact ledger must trip, the
// run must abort before producing anything, and the DES re-run must give
// exactly the no-hybrid result.
func TestHybridViolationFallsBackIdentically(t *testing.T) {
	body := func(p *P) {
		if p.me == 0 {
			for r := 1; r < p.Size(); r++ {
				p.Recv(r, 3)
			}
		} else {
			p.Send(0, 3, 1024)
		}
	}
	des := Run(newSys(16, machine.SN), Auto, body)

	sys := newSys(16, machine.SN)
	sys.EnableHybrid(core.HybridExact)
	hyb := Run(sys, Auto, body)
	if sys.HybridEnabled() {
		t.Fatalf("expected the exact ledger to trip on a fan-in")
	}
	if !strings.Contains(sys.HybridReason(), "link ownership violation") {
		t.Fatalf("unexpected fallback reason %q", sys.HybridReason())
	}
	if hyb != des {
		t.Fatalf("fallback end %v != DES end %v (must be bit-identical)", hyb, des)
	}
}

// TestHybridAnalyticVNClose checks the approximate tier: VN ring traffic
// with proxy contention the closed form ignores, so the hybrid end must be
// close to — and not wildly off — the DES end.
func TestHybridAnalyticVNClose(t *testing.T) {
	body := func(p *P) {
		n := p.Size()
		right := (p.me + 1) % n
		left := (p.me - 1 + n) % n
		for it := 0; it < 4; it++ {
			p.Task().ComputeSeconds(2e-6)
			sreq := p.Isend(right, 7, 4096)
			p.Recv(left, 7)
			p.Wait(sreq)
		}
	}
	des := Run(newSys(32, machine.VN), Auto, body)

	sys := newSys(32, machine.VN)
	if !sys.EnableHybrid(core.HybridAnalytic) {
		t.Fatalf("EnableHybrid declined: %s", sys.HybridReason())
	}
	hyb := Run(sys, Auto, body)
	if !sys.HybridEnabled() {
		t.Fatalf("hybrid fell back: %s", sys.HybridReason())
	}
	if des <= 0 || hyb <= 0 {
		t.Fatalf("non-positive makespans des=%v hyb=%v", des, hyb)
	}
	if rel := math.Abs(hyb-des) / des; rel > 0.30 {
		t.Fatalf("analytic tier off by %.1f%% (des=%v hyb=%v)", 100*rel, des, hyb)
	}
}

func TestHybridAdmission(t *testing.T) {
	// Telemetry needs per-event records.
	sys := newSys(8, machine.SN).EnableTelemetry()
	if sys.EnableHybrid(core.HybridExact) {
		t.Fatalf("expected decline under telemetry")
	}
	if sys.HybridReason() == "" {
		t.Fatalf("decline must record a reason")
	}

	// Exact tier is SN-only; the analytic tier admits VN.
	vn := newSys(8, machine.VN)
	if vn.EnableHybrid(core.HybridExact) {
		t.Fatalf("expected exact tier to decline VN placement")
	}
	if !strings.Contains(vn.HybridReason(), "VN") {
		t.Fatalf("unexpected reason %q", vn.HybridReason())
	}
	if !vn.EnableHybrid(core.HybridAnalytic) {
		t.Fatalf("analytic tier should admit VN: %s", vn.HybridReason())
	}
	if vn.HybridTier() != core.HybridAnalytic {
		t.Fatalf("tier = %v", vn.HybridTier())
	}

	// Off is a no-op request.
	off := newSys(8, machine.SN)
	if off.EnableHybrid(core.HybridOff) {
		t.Fatalf("HybridOff must not engage")
	}
	if off.HybridEnabled() {
		t.Fatalf("system should stay on the DES")
	}
}

// TestHybridDeadlockPanics: a hybrid program whose receive can never be
// matched ends with the engine's deadlock diagnostic on Run's caller, as
// on the DES, instead of hanging.
func TestHybridDeadlockPanics(t *testing.T) {
	sys := newSys(4, machine.SN)
	sys.EnableHybrid(core.HybridExact)
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(sys, Auto, func(p *P) { p.Recv((p.Rank()+1)%p.Size(), 0) })
		return nil
	}()
	if msg, _ := got.(string); !strings.HasPrefix(msg, "sim: deadlock: 4 process(es) blocked") {
		t.Fatalf("Run panicked with %v, want the engine's deadlock diagnostic", got)
	}
}
