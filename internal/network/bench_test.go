package network

import (
	"fmt"
	"testing"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
)

// BenchmarkFabricDeliver measures one remote point-to-point delivery on an
// idle engine (pure reservation bookkeeping, no callback): the per-message
// cost every simulated MPI send pays. Sources and destinations cycle over
// all ordered pairs of a 64-node XT4 torus so route lengths vary.
func BenchmarkFabricDeliver(b *testing.B) {
	eng := sim.NewEngine()
	f := New(eng, machine.XT4(), 64)
	n := f.Tor.Nodes()
	msg := Msg{Bytes: 4096, Mode: machine.SN}
	// Warm every (src,dst) route the loop below will use.
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				f.Deliver(0, Msg{SrcNode: s, DstNode: d, Bytes: 8, Mode: machine.SN}, nil)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := i % n
		dst := (src + 1 + i%(n-1)) % n
		msg.SrcNode, msg.DstNode = src, dst
		f.Deliver(0, msg, nil)
	}
}

// BenchmarkHybridPriceExact measures one exact-tier hybrid pricing call:
// the session lock plus the shared route walk against the session's
// private ledger. Every node sends to its +X neighbour on a 4096-node XT4
// torus, the single-owner halo pattern ext-petascale's exact cells run.
func BenchmarkHybridPriceExact(b *testing.B) {
	f := New(sim.NewEngine(), machine.XT4(), 4096)
	sess := f.BeginHybrid(true)
	n := f.Tor.Nodes()
	msg := Msg{Bytes: 4096, Mode: machine.SN}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := f.Tor.Coord(i % n)
		msg.SrcNode = i % n
		c.X++
		msg.DstNode = f.Tor.ID(c)
		if _, ok := sess.Price(sim.Time(i)*1e-6, msg, msg.SrcNode); !ok {
			b.Fatal("single-owner pattern violated the exact ledger")
		}
	}
}

// benchAllToAll soaks the fabric and the event queue together: every node
// sends one message to every other node, and the engine runs the resulting
// event population to completion. This is the communication skeleton of the
// MPI-FFT / PTRANS experiments. The fabric persists across rounds, as it
// does inside an experiment, so after the first round the route cache is
// warm and the numbers reflect steady state.
func benchAllToAll(b *testing.B, nodes int) {
	eng := sim.NewEngine()
	f := New(eng, machine.XT4(), nodes)
	want := nodes * (nodes - 1)
	arrived := 0
	count := sim.ArriveFunc(func(sim.Time) { arrived++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrived = 0
		eng.After(0, func() {
			now := eng.Now()
			for s := 0; s < nodes; s++ {
				for d := 0; d < nodes; d++ {
					if s == d {
						continue
					}
					f.Deliver(now, Msg{SrcNode: s, DstNode: d, Bytes: 4096, Mode: machine.SN}, count)
				}
			}
		})
		eng.Run()
		if arrived != want {
			b.Fatalf("arrived = %d, want %d", arrived, want)
		}
	}
}

func BenchmarkFabricAllToAll(b *testing.B) {
	for _, nodes := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchAllToAll(b, nodes)
		})
	}
}
