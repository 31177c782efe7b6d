package hpcc

import (
	"testing"

	"xtsim/internal/machine"
)

// Node benchmark problem sizes (small enough for fast tests; rates are
// size-independent in the model).
const (
	fftN    = 1 << 20
	dgemmN  = 2000
	streamN = 1 << 24
	raN     = 1 << 20
)

func TestFig4FFTShape(t *testing.T) {
	xt3 := FFTNode(machine.XT3(), fftN)
	xt4 := FFTNode(machine.XT4(), fftN)

	// Figure 4 anchors: XT3 SP ≈ 0.45 GF, XT4 SP ≈ 0.55–0.6 GF — a ~25%
	// memory-driven improvement.
	if xt3.SP < 0.40 || xt3.SP > 0.50 {
		t.Errorf("XT3 FFT SP = %.3f GF, want ≈ 0.45", xt3.SP)
	}
	if xt4.SP < 0.50 || xt4.SP > 0.65 {
		t.Errorf("XT4 FFT SP = %.3f GF, want ≈ 0.57", xt4.SP)
	}
	ratio := xt4.SP / xt3.SP
	if ratio < 1.15 || ratio > 1.45 {
		t.Errorf("XT4/XT3 FFT improvement = %.2f, want ≈ 1.25", ratio)
	}
	// High temporal locality: EP suffers only moderately.
	if xt4.EP < 0.6*xt4.SP {
		t.Errorf("XT4 FFT EP %.3f fell more than 40%% below SP %.3f", xt4.EP, xt4.SP)
	}
}

func TestFig5DGEMMShape(t *testing.T) {
	xt3 := DGEMMNode(machine.XT3(), dgemmN)
	xt4 := DGEMMNode(machine.XT4(), dgemmN)
	// Figure 5: ≈ 4.2 GF on XT3, ≈ 4.6 GF on XT4 (clock-proportional).
	if xt3.SP < 3.9 || xt3.SP > 4.4 {
		t.Errorf("XT3 DGEMM SP = %.2f GF, want ≈ 4.2", xt3.SP)
	}
	if xt4.SP < 4.3 || xt4.SP > 4.8 {
		t.Errorf("XT4 DGEMM SP = %.2f GF, want ≈ 4.6", xt4.SP)
	}
	// Cache-resident: EP within a few percent of SP.
	if xt4.EP < 0.93*xt4.SP {
		t.Errorf("XT4 DGEMM EP %.2f degraded more than 7%% from SP %.2f", xt4.EP, xt4.SP)
	}
}

func TestFig6RandomAccessShape(t *testing.T) {
	xt3 := RandomAccessNode(machine.XT3(), raN)
	xt4 := RandomAccessNode(machine.XT4(), raN)
	// Figure 6: XT3 ≈ 0.013 GUPS, XT4 SP ≈ 0.021 GUPS, and EP per-core
	// exactly half of SP (unscaled memory subsystem).
	if xt3.SP < 0.011 || xt3.SP > 0.016 {
		t.Errorf("XT3 RA SP = %.4f GUPS, want ≈ 0.013", xt3.SP)
	}
	if xt4.SP < 0.018 || xt4.SP > 0.024 {
		t.Errorf("XT4 RA SP = %.4f GUPS, want ≈ 0.021", xt4.SP)
	}
	if ratio := xt4.EP / xt4.SP; ratio < 0.45 || ratio > 0.55 {
		t.Errorf("XT4 RA EP/SP = %.2f, want 0.5", ratio)
	}
}

func TestFig7StreamShape(t *testing.T) {
	xt3 := StreamNode(machine.XT3(), streamN)
	xt4 := StreamNode(machine.XT4(), streamN)
	// Figure 7: triad ≈ 4.2 GB/s XT3, ≈ 7.0 GB/s XT4; EP per-core half.
	if xt3.SP < 4.0 || xt3.SP > 4.5 {
		t.Errorf("XT3 stream SP = %.2f GB/s, want ≈ 4.2", xt3.SP)
	}
	if xt4.SP < 6.6 || xt4.SP > 7.4 {
		t.Errorf("XT4 stream SP = %.2f GB/s, want ≈ 7.0", xt4.SP)
	}
	if ratio := xt4.EP / xt4.SP; ratio < 0.45 || ratio > 0.55 {
		t.Errorf("XT4 stream EP/SP = %.2f, want 0.5", ratio)
	}
	// Dual-core XT3 kept DDR-400: per-socket stream unchanged.
	dc := StreamNode(machine.XT3DualCore(), streamN)
	if ratio := dc.SP / xt3.SP; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("XT3-DC/XT3 stream = %.2f, want ≈ 1.0", ratio)
	}
}

func TestFig2NetworkLatencyShape(t *testing.T) {
	const tasks = 64
	xt3 := NetworkLatency(machine.XT3(), machine.SN, tasks)
	sn := NetworkLatency(machine.XT4(), machine.SN, tasks)
	vn := NetworkLatency(machine.XT4(), machine.VN, tasks)

	// Figure 2 anchors.
	if sn.PPMin < 4.0 || sn.PPMin > 5.0 {
		t.Errorf("XT4-SN PPmin = %.2f µs, want ≈ 4.5", sn.PPMin)
	}
	if xt3.PPMin < 5.3 || xt3.PPMin > 6.8 {
		t.Errorf("XT3 PPmin = %.2f µs, want ≈ 6", xt3.PPMin)
	}
	// Ordering within a machine: min ≤ avg ≤ max.
	if !(sn.PPMin <= sn.PPAvg && sn.PPAvg <= sn.PPMax) {
		t.Errorf("XT4-SN PP ordering broken: %+v", sn)
	}
	// VN mode pays NIC sharing everywhere and is worst on the random
	// ring (up to ≈ 18 µs in the paper).
	if vn.PPMin <= sn.PPMin {
		t.Errorf("VN PPmin %.2f should exceed SN %.2f", vn.PPMin, sn.PPMin)
	}
	if vn.RandRing <= sn.RandRing {
		t.Errorf("VN random ring %.2f should exceed SN %.2f", vn.RandRing, sn.RandRing)
	}
	if vn.RandRing < 8 || vn.RandRing > 25 {
		t.Errorf("XT4-VN random ring = %.1f µs, want O(18)", vn.RandRing)
	}
}

func TestFig3NetworkBandwidthShape(t *testing.T) {
	const tasks = 64
	xt3 := NetworkBandwidth(machine.XT3(), machine.SN, tasks)
	sn := NetworkBandwidth(machine.XT4(), machine.SN, tasks)
	vn := NetworkBandwidth(machine.XT4(), machine.VN, tasks)

	// §5.1.1: ping-pong ≈ 2.05 GB/s XT4 vs 1.15 GB/s XT3.
	if sn.PPMin < 1.85 || sn.PPMin > 2.2 {
		t.Errorf("XT4-SN PP bandwidth = %.2f GB/s, want ≈ 2.05", sn.PPMin)
	}
	if xt3.PPMin < 1.0 || xt3.PPMin > 1.3 {
		t.Errorf("XT3 PP bandwidth = %.2f GB/s, want ≈ 1.15", xt3.PPMin)
	}
	// XT4-SN improves ring bandwidth over XT3.
	if sn.NatRing <= xt3.NatRing {
		t.Errorf("XT4-SN natural ring %.2f should beat XT3 %.2f", sn.NatRing, xt3.NatRing)
	}
	// Per-core VN ring bandwidth is slightly worse than XT3 (§5.1.1).
	if vn.NatRing >= sn.NatRing {
		t.Errorf("VN per-core ring bandwidth %.2f should lag SN %.2f", vn.NatRing, sn.NatRing)
	}
}

func TestFig8HPLShape(t *testing.T) {
	xt3 := HPL(machine.XT3(), machine.SN, 64)
	sn := HPL(machine.XT4(), machine.SN, 64)
	vn := HPL(machine.XT4(), machine.VN, 128) // same socket count

	// Per-socket: XT4-VN (two cores) beats XT4-SN beats XT3.
	if sn.Value <= xt3.Value {
		t.Errorf("XT4-SN HPL %.3f TF should beat XT3 %.3f TF", sn.Value, xt3.Value)
	}
	if vn.Value <= 1.4*sn.Value {
		t.Errorf("XT4-VN (128 cores / 64 sockets) HPL %.3f TF should approach 2x SN %.3f TF", vn.Value, sn.Value)
	}
	// Sanity: 64 XT4 cores at ≈ 4.2 GF sustained ≈ 0.27 TF total, less
	// communication loss.
	if sn.Value < 0.15 || sn.Value > 0.30 {
		t.Errorf("XT4-SN HPL at 64 = %.3f TF, want ≈ 0.2-0.27", sn.Value)
	}
	// Scaling: 4x the cores gives ≳3x the TFLOPS.
	big := HPL(machine.XT4(), machine.VN, 512)
	if big.Value < 3*vn.Value {
		t.Errorf("HPL scaling weak: 512 cores %.3f vs 128 cores %.3f", big.Value, vn.Value)
	}
}

func TestFig9MPIFFTShape(t *testing.T) {
	sn := MPIFFT(machine.XT4(), machine.SN, 64)
	vnPerSocket := MPIFFT(machine.XT4(), machine.VN, 128)
	xt3 := MPIFFT(machine.XT3(), machine.SN, 64)
	// Faster than XT3 per socket in SN mode.
	if sn.Value <= xt3.Value {
		t.Errorf("XT4-SN MPI-FFT %.1f GF should beat XT3 %.1f GF", sn.Value, xt3.Value)
	}
	// VN per-core much worse than SN per-core (NIC bottleneck): per-core
	// value = total/tasks.
	snPerCore := sn.Value / 64
	vnPerCore := vnPerSocket.Value / 128
	if vnPerCore >= 0.9*snPerCore {
		t.Errorf("VN per-core MPI-FFT %.2f should lag SN per-core %.2f", vnPerCore, snPerCore)
	}
}

func TestFig10PTRANSShape(t *testing.T) {
	xt3 := PTRANS(machine.XT3(), machine.SN, 64)
	xt4 := PTRANS(machine.XT4(), machine.SN, 64)
	// §5.1.3: per-socket PTRANS essentially unchanged XT3 → XT4 (link
	// bandwidth did not change).
	ratio := xt4.Value / xt3.Value
	if ratio < 0.8 || ratio > 1.35 {
		t.Errorf("PTRANS XT4/XT3 = %.2f, want ≈ 1 (within variance)", ratio)
	}
}

func TestFig11MPIRAShape(t *testing.T) {
	xt3 := MPIRA(machine.XT3(), machine.SN, 64)
	sn := MPIRA(machine.XT4(), machine.SN, 64)
	vn := MPIRA(machine.XT4(), machine.VN, 128) // same sockets, both cores

	// SN-mode XT4 slightly better than XT3.
	if sn.Value <= xt3.Value {
		t.Errorf("XT4-SN MPI-RA %.4f should beat XT3 %.4f", sn.Value, xt3.Value)
	}
	// VN mode is slower per socket than SN — the paper's multi-core
	// negative: VN latency overwhelms all other factors.
	if vn.Value >= sn.Value {
		t.Errorf("XT4-VN MPI-RA %.4f should fall below SN %.4f per socket", vn.Value, sn.Value)
	}
}

func TestFig1213BidirShape(t *testing.T) {
	sizes := []int64{1024, 128 << 10, 1 << 20, 4 << 20}
	one := BidirBandwidth(machine.XT4(), machine.VN, 1, sizes)
	two := BidirBandwidth(machine.XT4(), machine.VN, 2, sizes)
	oneXT3 := BidirBandwidth(machine.XT3DualCore(), machine.VN, 1, sizes)

	last := len(sizes) - 1
	// §5.2: two-pair experiments achieve exactly half the per-pair
	// bandwidth for large messages (identical node bandwidth).
	ratio := two[last].BWPerPair / one[last].BWPerPair
	if ratio < 0.42 || ratio > 0.58 {
		t.Errorf("two-pair/one-pair large-message ratio = %.2f, want ≈ 0.5", ratio)
	}
	// §5.2: XT4 bidirectional bandwidth at least 1.8x dual-core XT3 for
	// messages over 100 KB.
	for i, s := range sizes {
		if s <= 100000 {
			continue
		}
		r := one[i].BWPerPair / oneXT3[i].BWPerPair
		if r < 1.6 {
			t.Errorf("size %d: XT4/XT3-DC bidir = %.2f, want ≥ ~1.8", s, r)
		}
	}
	// Bandwidth grows with message size.
	if one[0].BWPerPair >= one[last].BWPerPair {
		t.Errorf("bandwidth should rise with size: %v", one)
	}
}

func TestStandardSizes(t *testing.T) {
	sizes := StandardSizes()
	if sizes[0] != 8 || sizes[len(sizes)-1] != 4<<20 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestNearSquare(t *testing.T) {
	for _, tc := range []struct{ t, pr, pc int }{
		{64, 8, 8}, {128, 8, 16}, {12, 3, 4}, {7, 1, 7}, {1, 1, 1},
	} {
		pr, pc := nearSquare(tc.t)
		if pr != tc.pr || pc != tc.pc {
			t.Errorf("nearSquare(%d) = %dx%d, want %dx%d", tc.t, pr, pc, tc.pr, tc.pc)
		}
	}
}

func TestSockets(t *testing.T) {
	// Global results count nodes, not tasks: VN mode packs two tasks per
	// XT4 socket.
	if s := PTRANS(machine.XT4(), machine.VN, 128).Sockets; s != 64 {
		t.Errorf("VN sockets = %d, want 64", s)
	}
	if s := PTRANS(machine.XT4(), machine.SN, 128).Sockets; s != 128 {
		t.Errorf("SN sockets = %d, want 128", s)
	}
}
