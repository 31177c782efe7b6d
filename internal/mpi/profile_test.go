package mpi

import (
	"testing"

	"xtsim/internal/machine"
)

func TestProfileAttributesBlockedTime(t *testing.T) {
	sys := newSys(4, machine.SN)
	var prof Profile
	Run(sys, Algorithmic, func(p *P) {
		// Rank 3 arrives at the barrier late; the others' wait time must
		// land in the Barrier bucket.
		if p.Rank() == 3 {
			p.Task().ComputeSeconds(0.01)
		}
		p.Barrier()
		p.Allreduce(Sum, 8, nil)
		if p.Rank() == 0 {
			prof = *p.Profile()
		}
	})
	if prof.Seconds[OpBarrier] < 0.009 {
		t.Errorf("barrier wait = %v, want ≈ 0.01 (late arriver)", prof.Seconds[OpBarrier])
	}
	if prof.Seconds[OpAllreduce] <= 0 {
		t.Error("the allreduce's time was not attributed")
	}
	// All time is collective here: the two collectives' internal p2p
	// lands in their own classes.
	for op := OpClass(0); op < numOpClasses; op++ {
		if op != OpBarrier && op != OpAllreduce && prof.Seconds[op] != 0 {
			t.Errorf("%v time = %v, want 0", op, prof.Seconds[op])
		}
	}
}

func TestProfileNoDoubleCountingInsideCollectives(t *testing.T) {
	// The p2p traffic inside an algorithmic Bcast must not inflate the
	// Send/Recv/Wait buckets.
	sys := newSys(8, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		p.Bcast(0, 4096, nil)
		prof := p.Profile()
		if prof.Seconds[OpSend] != 0 || prof.Seconds[OpRecv] != 0 || prof.Seconds[OpWait] != 0 {
			t.Errorf("rank %d: internal p2p leaked into profile: %+v", p.Rank(), prof.Seconds)
		}
		if prof.Seconds[OpBcast] <= 0 {
			t.Errorf("rank %d: bcast time = %v", p.Rank(), prof.Seconds[OpBcast])
		}
	})
}

func TestProfileTopLevelP2PCounted(t *testing.T) {
	sys := newSys(2, machine.SN)
	Run(sys, Algorithmic, func(p *P) {
		if p.Rank() == 0 {
			p.Send(1, 0, 1<<20)
			if got := p.Profile().Seconds[OpSend]; got <= 0 {
				t.Errorf("send time = %v", got)
			}
		} else {
			p.Recv(0, 0)
			if got := p.Profile().Seconds[OpRecv]; got <= 0 {
				t.Errorf("recv time = %v", got)
			}
		}
	})
}

// TestProfileShare pins the percent-of-wall helper the phase-split
// experiments rely on: rounding at the shared 1e-6 export resolution, the
// zero/negative-wall guard, and untouched classes reading 0.
func TestProfileShare(t *testing.T) {
	var p Profile
	p.Seconds[OpAllreduce] = 1.0
	p.Seconds[OpAlltoall] = 0.25

	for _, tc := range []struct {
		name  string
		class OpClass
		wall  float64
		want  float64
	}{
		{"exact-quarter", OpAlltoall, 1.0, 0.25},
		{"rounds-to-1e-6", OpAllreduce, 3.0, 0.333333},
		{"zero-wall", OpAllreduce, 0, 0},
		{"negative-wall", OpAllreduce, -1, 0},
		{"empty-class", OpBarrier, 1.0, 0},
		{"share-above-one-preserved", OpAllreduce, 0.5, 2.0},
	} {
		if got := p.Share(tc.class, tc.wall); got != tc.want {
			t.Errorf("%s: Share(%v, %v) = %v, want %v", tc.name, tc.class, tc.wall, got, tc.want)
		}
	}
}

func TestOpClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for op := OpSend; op < numOpClasses; op++ {
		s := op.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name for op %d: %q", int(op), s)
		}
		seen[s] = true
	}
}
