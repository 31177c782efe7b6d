package network

import (
	"math"
	"testing"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
)

// deliverAt runs a single delivery at t=0 on a fresh engine and returns the
// timeline.
func deliverAt(t *testing.T, m machine.Machine, nodes int, msg Msg) Timeline {
	t.Helper()
	eng := sim.NewEngine()
	f := New(eng, m, nodes)
	var tl Timeline
	eng.After(0, func() { tl = f.Deliver(0, msg, nil) })
	eng.Run()
	return tl
}

func TestXT4SmallMessageLatencyAnchor(t *testing.T) {
	// Figure 2: XT4 best-case (nearest-neighbour) one-way latency ≈ 4.5 µs
	// in SN mode.
	tl := deliverAt(t, machine.XT4(), 64, Msg{SrcNode: 0, DstNode: 1, Bytes: 8, Mode: machine.SN})
	us := tl.Arrive * 1e6
	if us < 4.0 || us > 5.0 {
		t.Fatalf("XT4 SN nearest-neighbour latency = %.2f µs, want ≈ 4.5", us)
	}
}

func TestXT3SmallMessageLatencyAnchor(t *testing.T) {
	// Figure 2: single-core XT3 latency on the order of 6 µs.
	tl := deliverAt(t, machine.XT3(), 64, Msg{SrcNode: 0, DstNode: 1, Bytes: 8, Mode: machine.SN})
	us := tl.Arrive * 1e6
	if us < 5.3 || us > 6.7 {
		t.Fatalf("XT3 latency = %.2f µs, want ≈ 6", us)
	}
}

func TestXT4LargeMessageBandwidthAnchor(t *testing.T) {
	// §5.1.1: XT4 ping-pong bandwidth just over 2 GB/s.
	const bytes = 2 << 20
	tl := deliverAt(t, machine.XT4(), 64, Msg{SrcNode: 0, DstNode: 1, Bytes: bytes, Mode: machine.SN})
	bw := float64(bytes) / tl.Arrive
	if bw < 1.9e9 || bw > 2.2e9 {
		t.Fatalf("XT4 large-message bandwidth = %.3g B/s, want ≈ 2.05 GB/s", bw)
	}
}

func TestXT3LargeMessageBandwidthAnchor(t *testing.T) {
	// §5.1.1: XT3 ping-pong bandwidth ≈ 1.15 GB/s.
	const bytes = 2 << 20
	tl := deliverAt(t, machine.XT3(), 64, Msg{SrcNode: 0, DstNode: 1, Bytes: bytes, Mode: machine.SN})
	bw := float64(bytes) / tl.Arrive
	if bw < 1.05e9 || bw > 1.25e9 {
		t.Fatalf("XT3 large-message bandwidth = %.3g B/s, want ≈ 1.15 GB/s", bw)
	}
}

func TestVNFarCoreAddsLatency(t *testing.T) {
	m := machine.XT4()
	sn := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 1, Bytes: 8, Mode: machine.SN})
	vn0 := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 1, Bytes: 8, Mode: machine.VN})
	vn1 := deliverAt(t, m, 64, Msg{SrcNode: 0, SrcCore: 1, DstNode: 1, DstCore: 1, Bytes: 8, Mode: machine.VN})
	if vn0.Arrive <= sn.Arrive {
		t.Fatalf("VN core-0 latency %.2g not above SN %.2g", vn0.Arrive, sn.Arrive)
	}
	if vn1.Arrive <= vn0.Arrive {
		t.Fatalf("VN far-core latency %.2g not above VN core-0 %.2g", vn1.Arrive, vn0.Arrive)
	}
	// Far-core to far-core pays mediation on both endpoints: ≈ 6 µs more.
	extra := (vn1.Arrive - vn0.Arrive) * 1e6
	if extra < 5 || extra > 7 {
		t.Fatalf("far-core extra latency = %.2f µs, want ≈ 6", extra)
	}
}

func TestSharedInjectionHalvesConcurrentFlows(t *testing.T) {
	// Two simultaneous large sends from one node serialise at the NIC:
	// combined completion takes twice one transfer's injection time.
	m := machine.XT4()
	eng := sim.NewEngine()
	f := New(eng, m, 64)
	const bytes = 4 << 20
	var t1, t2 Timeline
	eng.After(0, func() {
		t1 = f.Deliver(0, Msg{SrcNode: 0, DstNode: 1, Bytes: bytes, Mode: machine.SN}, nil)
		t2 = f.Deliver(0, Msg{SrcNode: 0, DstNode: 2, Bytes: bytes, Mode: machine.SN}, nil)
	})
	eng.Run()
	single := float64(bytes) / m.NIC.EffBW()
	if math.Abs((t2.Injected-t1.Injected)-single) > 0.05*single {
		t.Fatalf("second flow should queue a full injection time behind the first: gap %.3g, want %.3g",
			t2.Injected-t1.Injected, single)
	}
}

func TestLinkContentionPushesBack(t *testing.T) {
	// Two flows from different sources crossing the same link contend.
	// On an 8x1x1 ring, 0→2 and 1→2 share link 1→2.
	m := machine.XT4()
	m.NIC.InjBW = 100e9 // make links the bottleneck for this test
	m.NIC.Eff = 1
	eng := sim.NewEngine()
	f := New(eng, m, 8)
	if f.Tor.NX < 3 {
		t.Skip("torus too small")
	}
	const bytes = 4 << 20
	var a, b Timeline
	eng.After(0, func() {
		a = f.Deliver(0, Msg{SrcNode: 0, DstNode: 2, Bytes: bytes, Mode: machine.SN}, nil)
		b = f.Deliver(0, Msg{SrcNode: 1, DstNode: 2, Bytes: bytes, Mode: machine.SN}, nil)
	})
	eng.Run()
	linkSer := float64(bytes) / m.Link.BW
	gap := b.Arrive - a.Arrive
	if gap < 0.9*linkSer {
		t.Fatalf("contending flow arrived only %.3g later; want ≥ ~%.3g (one link serialisation)", gap, linkSer)
	}
}

func TestIntraNodeFasterThanNetworkSmall(t *testing.T) {
	m := machine.XT4()
	local := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 0, SrcCore: 0, DstCore: 1, Bytes: 64, Mode: machine.VN})
	remote := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 1, Bytes: 64, Mode: machine.SN})
	if local.Arrive >= remote.Arrive {
		t.Fatalf("intra-node small message (%.3g s) should beat network (%.3g s)", local.Arrive, remote.Arrive)
	}
}

func TestRendezvousThresholdVisible(t *testing.T) {
	m := machine.XT4()
	below := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 1, Bytes: int64(m.NIC.RendezvousThresholdBytes), Mode: machine.SN})
	above := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 1, Bytes: int64(m.NIC.RendezvousThresholdBytes) + 1, Mode: machine.SN})
	// The +1 byte message pays an extra control round-trip.
	if above.Arrive <= below.Arrive {
		t.Fatal("rendezvous switch should add a visible round-trip")
	}
}

func TestArrivalCallbackFires(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, machine.XT4(), 16)
	fired := false
	var at sim.Time
	eng.After(0, func() {
		f.Deliver(0, Msg{SrcNode: 0, DstNode: 1, Bytes: 1024, Mode: machine.SN}, sim.ArriveFunc(func(arr sim.Time) {
			fired = true
			at = arr
		}))
	})
	end := eng.Run()
	if !fired {
		t.Fatal("arrival callback never fired")
	}
	if at != end {
		t.Fatalf("callback at %v but run ended at %v", at, end)
	}
}

func TestHopLatencyScalesWithDistance(t *testing.T) {
	m := machine.XT4()
	eng := sim.NewEngine()
	f := New(eng, m, 512)
	near := f.Tor.Hops(0, 1)
	farNode := f.Tor.Nodes() - 1
	far := f.Tor.Hops(0, farNode)
	if far <= near {
		t.Skip("topology too small to distinguish")
	}
	tNear := deliverAt(t, m, 512, Msg{SrcNode: 0, DstNode: 1, Bytes: 8, Mode: machine.SN})
	tFar := deliverAt(t, m, 512, Msg{SrcNode: 0, DstNode: farNode, Bytes: 8, Mode: machine.SN})
	wantExtra := float64(far-near) * m.Link.HopLatencyUS * usToS
	gotExtra := tFar.Arrive - tNear.Arrive
	if math.Abs(gotExtra-wantExtra) > 1e-9 {
		t.Fatalf("extra latency for %d extra hops = %.3g, want %.3g", far-near, gotExtra, wantExtra)
	}
}

func TestZeroLatencyEstimateMatchesSimulatedIdlePath(t *testing.T) {
	m := machine.XT4()
	eng := sim.NewEngine()
	f := New(eng, m, 64)
	hops := f.Tor.Hops(0, 1)
	est := f.ZeroLatencyEstimate(hops, machine.SN, false)
	tl := deliverAt(t, m, 64, Msg{SrcNode: 0, DstNode: 1, Bytes: 0, Mode: machine.SN})
	if math.Abs(est-tl.Arrive) > 1e-9 {
		t.Fatalf("estimate %.4g != simulated %.4g", est, tl.Arrive)
	}
}

func TestFlatSwitchEjectionContention(t *testing.T) {
	// Many-to-one on a switched fabric serialises at the destination
	// adapter.
	m := machine.P575()
	eng := sim.NewEngine()
	f := New(eng, m, 16)
	const bytes = 1 << 20
	var last Timeline
	eng.After(0, func() {
		for src := 1; src <= 4; src++ {
			last = f.Deliver(0, Msg{SrcNode: src, DstNode: 0, Bytes: bytes, Mode: machine.SN}, nil)
		}
	})
	eng.Run()
	ej := float64(bytes) / m.NIC.EffBW()
	if last.Arrive < 4*ej {
		t.Fatalf("4-to-1 incast arrival %.3g should reflect 4 serialised ejections (%.3g)", last.Arrive, 4*ej)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, machine.XT4(), 8)
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	f.Deliver(0, Msg{SrcNode: 0, DstNode: 1, Bytes: -1}, nil)
}

func TestStatsAccumulate(t *testing.T) {
	eng := sim.NewEngine()
	f := New(eng, machine.XT4(), 8)
	eng.After(0, func() {
		f.Deliver(0, Msg{SrcNode: 0, DstNode: 1, Bytes: 100, Mode: machine.SN}, nil)
		f.Deliver(0, Msg{SrcNode: 1, DstNode: 2, Bytes: 200, Mode: machine.SN}, nil)
	})
	eng.Run()
	if f.MsgsDelivered != 2 || f.BytesDelivered != 300 {
		t.Fatalf("stats = %d msgs / %d bytes, want 2 / 300", f.MsgsDelivered, f.BytesDelivered)
	}
}

func TestVNProxyQueuesInArrivalOrder(t *testing.T) {
	// Regression: the destination-side VN proxy must serve messages in
	// *arrival* order. Reserving it eagerly at send time (with future
	// timestamps) queued messages in send order instead, so a message
	// sent early but arriving late pushed every later-sent, earlier-
	// arriving message behind its own arrival — inflating latencies
	// unboundedly with scale.
	m := machine.XT4()
	eng := sim.NewEngine()
	f := New(eng, m, 64)

	// Message A: sent first, huge (arrives late). Message B: sent just
	// after, tiny (arrives much earlier).
	var arriveA, arriveB sim.Time
	eng.After(0, func() {
		f.Deliver(0, Msg{SrcNode: 1, DstNode: 0, Bytes: 8 << 20, Mode: machine.VN}, sim.ArriveFunc(func(at sim.Time) { arriveA = at }))
	})
	eng.After(1e-6, func() {
		f.Deliver(1e-6, Msg{SrcNode: 2, DstNode: 0, Bytes: 8, Mode: machine.VN}, sim.ArriveFunc(func(at sim.Time) { arriveB = at }))
	})
	eng.Run()
	if arriveB >= arriveA {
		t.Fatalf("small message (%.6g) queued behind large one (%.6g): proxy served in send order", arriveB, arriveA)
	}
	// The small message should arrive in microseconds, not behind the
	// 8 MiB transfer (~4 ms).
	if arriveB > 100e-6 {
		t.Fatalf("small VN message arrival %.3g s — inflated by proxy misordering", arriveB)
	}
}

func TestVNProxyStillSerialisesBursts(t *testing.T) {
	// The fix must keep genuine contention: many messages arriving
	// together still queue on the handling core.
	m := machine.XT4()
	eng := sim.NewEngine()
	f := New(eng, m, 64)
	const burst = 50
	var last sim.Time
	eng.After(0, func() {
		for i := 0; i < burst; i++ {
			src := 1 + i%8
			f.Deliver(0, Msg{SrcNode: src, DstNode: 0, Bytes: 8, Mode: machine.VN}, sim.ArriveFunc(func(at sim.Time) {
				if at > last {
					last = at
				}
			}))
		}
	})
	eng.Run()
	// 50 messages × 0.7 µs handling ≥ 35 µs of serialisation beyond the
	// base latency.
	base := f.ZeroLatencyEstimate(f.Tor.Hops(1, 0), machine.VN, false)
	if last < base+30e-6 {
		t.Fatalf("burst of %d finished at %.3g s — proxy not serialising (base %.3g)", burst, last, base)
	}
}
