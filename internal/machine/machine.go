// Package machine defines the hardware configurations evaluated in the
// paper: the ORNL Cray XT3 (single- and dual-core) and XT4, plus the
// comparison platforms of §6 (Cray X1E, Earth Simulator, IBM p690, p575 and
// SP). Every performance-relevant parameter of the simulator lives here, so
// a Machine value is a complete, self-describing experiment target.
//
// Parameter provenance: Table 1 of the paper (clock, memory technology,
// peak memory bandwidth, injection bandwidth), §2 (SeaStar/SeaStar2 link
// rates, sub-60ns memory latency, virtual-node-mode NIC mediation), §5
// (measured ping-pong latency/bandwidth used as calibration anchors), and
// §6.1 (per-processor peaks for the comparison platforms). Derived
// quantities (software overheads, efficiencies) are calibrated so the
// simulated HPCC micro-benchmarks land on the paper's Figures 2–7; the
// calibration is documented next to each constant.
package machine

import (
	"fmt"
	"math"

	"xtsim/internal/torus"
)

// Mode selects how the cores of a dual-core compute node are used,
// following the paper's terminology.
type Mode int

const (
	// SN ("single/serial node") mode runs one MPI task per node; the task
	// has the whole memory and exclusive NIC access.
	SN Mode = iota
	// VN ("virtual node") mode runs one MPI task per core. Memory is split
	// between cores, the NIC is shared, and — in the XT3/XT4 software of
	// the time — only core 0 drives the NIC, so traffic from core 1 pays a
	// host-mediation penalty.
	VN
)

func (m Mode) String() string {
	if m == SN {
		return "SN"
	}
	return "VN"
}

// Topology identifies the interconnect style.
type Topology int

const (
	// Torus3D is the SeaStar 3-D torus (XT3/XT4).
	Torus3D Topology = iota
	// FlatSwitch models a switched fabric (IBM HPS/SP Switch2, Earth
	// Simulator crossbar, X1E inter-subset network) as a constant-latency,
	// adapter-bandwidth-limited network.
	FlatSwitch
)

// CPUConfig describes one processor core (or MSP/vector processor for the
// comparison platforms).
type CPUConfig struct {
	// ClockGHz is the core clock.
	ClockGHz float64
	// FlopsPerCycle is the peak double-precision flops per cycle
	// (2 for Opteron SSE2; set so ClockGHz*FlopsPerCycle = per-core peak).
	FlopsPerCycle float64
	// DGEMMEff is the achievable fraction of peak for cache-blocked
	// matrix multiply (libsci/ACML ≈ 0.85–0.90 on Opteron).
	DGEMMEff float64
	// VectorLen is the hardware vector length for vector machines (X1E,
	// ES); zero for scalar processors. Vector machines lose efficiency
	// when loop trip counts fall below roughly this length (the paper
	// notes CAM vector lengths < 128 hurting the X1E/ES at 960 tasks).
	VectorLen int
}

// PeakGF returns the per-core peak in GFLOP/s.
func (c CPUConfig) PeakGF() float64 { return c.ClockGHz * c.FlopsPerCycle }

// MemConfig describes one socket's memory subsystem. On the XT machines a
// node is one socket; on the SMP comparison platforms the per-"socket"
// figures are per-processor shares of the node memory system.
type MemConfig struct {
	// Kind names the technology, e.g. "DDR-400".
	Kind string
	// PeakBW is the peak socket memory bandwidth in bytes/s
	// (6.4 GB/s DDR-400, 10.6 GB/s DDR2-667 — Table 1).
	PeakBW float64
	// StreamEff is the fraction of PeakBW achieved by STREAM triad
	// (≈ 0.66 on Opteron: 4.2 of 6.4 GB/s on XT3, 7.0 of 10.6 on XT4).
	StreamEff float64
	// LatencyNS is the effective random-access latency (load-to-use plus
	// TLB effects) in nanoseconds; §2 cites < 60 ns idle latency for the
	// 100-series Opteron.
	LatencyNS float64
	// RandomMLP is the effective memory-level parallelism sustained on
	// dependent-free random updates (GUPS); slightly above 1 on Rev F.
	RandomMLP float64
	// BytesPerCore is the memory capacity per core (2 GiB on all three XT
	// configurations — Table 1).
	BytesPerCore int64
}

// StreamBW returns the achievable socket streaming bandwidth in bytes/s.
func (m MemConfig) StreamBW() float64 { return m.PeakBW * m.StreamEff }

// RandomRate returns the socket-wide random-access update rate in
// updates/s: MLP overlapped accesses each costing the effective latency.
func (m MemConfig) RandomRate() float64 {
	return m.RandomMLP / (m.LatencyNS * 1e-9)
}

// NICConfig describes the network interface (SeaStar, SeaStar2, or an HPS/
// crossbar adapter).
type NICConfig struct {
	// InjBW is the node injection bandwidth in bytes/s (2.2 GB/s SeaStar,
	// 4 GB/s SeaStar2 — Table 1).
	InjBW float64
	// Eff is the payload efficiency of the injection path for large
	// messages: headers, Portals protocol, and HT transaction overhead.
	// Calibrated so XT3 ping-pong ≈ 1.15 GB/s and XT4 ≈ 2.05 GB/s (§5.1.1).
	Eff float64
	// SendOverheadUS / RecvOverheadUS are the per-message MPI software
	// overheads in microseconds. Calibrated so one-way small-message
	// latency is ≈ 6 µs on XT3 and ≈ 4.5 µs on XT4-SN (Figure 2).
	SendOverheadUS float64
	RecvOverheadUS float64
	// VNMediationUS is the extra latency per message endpoint when the
	// non-NIC core of a dual-core node communicates in VN mode (§2: one
	// core handles all message passing, the other interrupts it).
	VNMediationUS float64
	// VNProxyUS is the per-message handling time on the NIC-owning core
	// when the node runs in VN mode; queueing behind it under bursts is
	// what pushes VN latencies toward the paper's ~18 µs worst case.
	VNProxyUS float64
	// RendezvousThresholdBytes is the eager/rendezvous protocol switch;
	// larger messages pay an extra control round-trip.
	RendezvousThresholdBytes int
	// MemcpyBW is the intra-node (core-to-core) MPI copy bandwidth in
	// bytes/s; §2: same-socket messages are handled through a memory copy.
	MemcpyBW float64
}

// EffBW returns the effective large-message injection bandwidth in bytes/s.
func (n NICConfig) EffBW() float64 { return n.InjBW * n.Eff }

// LinkConfig describes one directed torus link (or the per-adapter switch
// path on flat networks).
type LinkConfig struct {
	// BW is the per-direction sustained link bandwidth in bytes/s. The
	// SeaStar-to-SeaStar link rate did not change between XT3 and XT4
	// (§5.1.3, PTRANS discussion).
	BW float64
	// HopLatencyUS is the per-hop router latency in microseconds.
	HopLatencyUS float64
}

// Machine is a complete description of an evaluation platform.
type Machine struct {
	// Name as used in the paper's figures, e.g. "XT4".
	Name string
	// CoresPerNode is the number of cores sharing one node's memory
	// system and NIC (2 for dual-core XT nodes, 32 for the p690, …).
	CoresPerNode int
	// TotalNodes is the size of the installed system, bounding experiment
	// scale (Table 1 and §6.1).
	TotalNodes int
	Topology   Topology
	CPU        CPUConfig
	Mem        MemConfig
	NIC        NICConfig
	Link       LinkConfig
	// SupportsOpenMP records whether the evaluation used OpenMP threads
	// on this platform (true for the IBM and vector machines in §6.1; not
	// available on the XT4 at the time of the paper).
	SupportsOpenMP bool
}

// Validate checks internal consistency; machine constructors call it, and
// user-defined machines (examples/custommachine) should too. Every float
// parameter must be finite. NaN fails every comparison, so each check
// states what a valid value is rather than what an invalid one is.
func (m Machine) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("machine: empty name")
	case m.CoresPerNode < 1:
		return fmt.Errorf("machine %s: CoresPerNode = %d", m.Name, m.CoresPerNode)
	case m.TotalNodes < 1:
		return fmt.Errorf("machine %s: TotalNodes = %d", m.Name, m.TotalNodes)
	case !positive(m.CPU.ClockGHz) || !positive(m.CPU.FlopsPerCycle):
		return fmt.Errorf("machine %s: invalid CPU config %+v", m.Name, m.CPU)
	case !fraction(m.CPU.DGEMMEff):
		return fmt.Errorf("machine %s: DGEMMEff = %v", m.Name, m.CPU.DGEMMEff)
	case !positive(m.Mem.PeakBW) || !fraction(m.Mem.StreamEff):
		return fmt.Errorf("machine %s: invalid memory config %+v", m.Name, m.Mem)
	case !positive(m.Mem.LatencyNS) || !positive(m.Mem.RandomMLP):
		return fmt.Errorf("machine %s: invalid latency/MLP %+v", m.Name, m.Mem)
	case !positive(m.NIC.InjBW) || !fraction(m.NIC.Eff):
		return fmt.Errorf("machine %s: invalid NIC config %+v", m.Name, m.NIC)
	case !nonNegative(m.NIC.SendOverheadUS) || !nonNegative(m.NIC.RecvOverheadUS) ||
		!nonNegative(m.NIC.VNMediationUS) || !nonNegative(m.NIC.VNProxyUS):
		return fmt.Errorf("machine %s: invalid NIC overheads %+v", m.Name, m.NIC)
	case !positive(m.NIC.MemcpyBW):
		return fmt.Errorf("machine %s: MemcpyBW = %v", m.Name, m.NIC.MemcpyBW)
	case !positive(m.Link.BW) || !nonNegative(m.Link.HopLatencyUS):
		return fmt.Errorf("machine %s: invalid link config %+v", m.Name, m.Link)
	}
	return nil
}

// positive reports whether x is finite and above zero, fraction whether x
// lies in (0, 1], and nonNegative whether x is finite and not below zero.
// All three are false for NaN.
func positive(x float64) bool    { return x > 0 && x <= math.MaxFloat64 }
func fraction(x float64) bool    { return x > 0 && x <= 1 }
func nonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// MaxCores reports the full-system core count.
func (m Machine) MaxCores() int { return m.TotalNodes * m.CoresPerNode }

// TorusFor picks torus dimensions housing at least n nodes, with aspect
// ratios similar to the ORNL floor plan (wider X/Y than Z). For flat
// topologies it returns a 1-D "torus" used only for node numbering.
func (m Machine) TorusFor(n int) torus.Torus {
	if n < 1 {
		n = 1
	}
	if m.Topology == FlatSwitch {
		return torus.New(n, 1, 1)
	}
	// Find zx ≤ zy ≤ zz factors of the smallest box ≥ n that is roughly
	// cubic with Z the smallest dimension (cabinet rows are short in Z).
	z := int(math.Cbrt(float64(n)))
	if z < 1 {
		z = 1
	}
	if z > 16 {
		z = 16 // ORNL machines topped out around 16 in the short dimension
	}
	for {
		rest := (n + z - 1) / z
		y := int(math.Sqrt(float64(rest)))
		if y < 1 {
			y = 1
		}
		x := (rest + y - 1) / y
		if x*y*z >= n {
			return torus.New(x, y, z)
		}
		z++
	}
}

func (m Machine) String() string {
	return fmt.Sprintf("%s: %d nodes x %d cores, %.1f GHz (%.1f GF/core), %s %.1f GB/s/socket, inj %.1f GB/s",
		m.Name, m.TotalNodes, m.CoresPerNode, m.CPU.ClockGHz, m.CPU.PeakGF(),
		m.Mem.Kind, m.Mem.PeakBW/1e9, m.NIC.InjBW/1e9)
}

const (
	gb = 1e9
	us = 1.0
)

// XT3 returns the original single-core ORNL XT3: 5,212 sockets of 2.4 GHz
// Opteron with DDR-400 and SeaStar (Table 1).
func XT3() Machine {
	m := Machine{
		Name:         "XT3",
		CoresPerNode: 1,
		TotalNodes:   5212,
		Topology:     Torus3D,
		CPU: CPUConfig{
			ClockGHz:      2.4,
			FlopsPerCycle: 2,
			DGEMMEff:      0.88, // ACML DGEMM ≈ 4.2 of 4.8 GF (Figure 5)
		},
		Mem: MemConfig{
			Kind:         "DDR-400",
			PeakBW:       6.4 * gb,
			StreamEff:    0.66, // triad ≈ 4.2 GB/s (Figure 7)
			LatencyNS:    77,   // effective; idle latency < 60 ns (§2)
			RandomMLP:    1.0,  // GUPS ≈ 0.013 (Figure 6)
			BytesPerCore: 2 << 30,
		},
		NIC: NICConfig{
			InjBW:                    2.2 * gb,
			Eff:                      0.52, // ping-pong ≈ 1.15 GB/s (§5.1.1)
			SendOverheadUS:           2.9 * us,
			RecvOverheadUS:           2.9 * us, // one-way latency ≈ 6 µs (Figure 2)
			VNMediationUS:            3.0 * us,
			VNProxyUS:                0.7 * us,
			RendezvousThresholdBytes: 128 << 10,
			MemcpyBW:                 2.5 * gb,
		},
		Link: LinkConfig{BW: 3.8 * gb, HopLatencyUS: 0.05},
	}
	mustValidate(m)
	return m
}

// XT3DualCore returns the 2006 upgrade: 2.6 GHz dual-core Opterons with the
// original DDR-400 memory and SeaStar network (Table 1). The paper notes
// memory bandwidth did not scale with the second core.
func XT3DualCore() Machine {
	m := XT3()
	m.Name = "XT3-DC"
	m.CoresPerNode = 2
	m.CPU.ClockGHz = 2.6
	// Two years of software maturation between the single- and dual-core
	// measurements (§5.2): lower MPI overheads on the dual-core system.
	m.NIC.SendOverheadUS = 2.4 * us
	m.NIC.RecvOverheadUS = 2.4 * us
	mustValidate(m)
	return m
}

// XT4 returns the Winter 2006/2007 XT4 cabinets: 2.6 GHz Revision F
// dual-core Opterons, DDR2-667, SeaStar2 (Table 1).
func XT4() Machine {
	m := Machine{
		Name:         "XT4",
		CoresPerNode: 2,
		TotalNodes:   6296,
		Topology:     Torus3D,
		CPU: CPUConfig{
			ClockGHz:      2.6,
			FlopsPerCycle: 2,
			DGEMMEff:      0.88, // ≈ 4.6 of 5.2 GF (Figure 5)
		},
		Mem: MemConfig{
			Kind:         "DDR2-667",
			PeakBW:       10.6 * gb,
			StreamEff:    0.66, // triad ≈ 7.0 GB/s (Figure 7)
			LatencyNS:    60,
			RandomMLP:    1.25, // GUPS ≈ 0.021 SP (Figure 6)
			BytesPerCore: 2 << 30,
		},
		NIC: NICConfig{
			InjBW:                    4.0 * gb,
			Eff:                      0.52, // ping-pong ≈ 2.05 GB/s (§5.1.1)
			SendOverheadUS:           2.15 * us,
			RecvOverheadUS:           2.15 * us, // one-way ≈ 4.5 µs SN (Figure 2)
			VNMediationUS:            3.0 * us,  // immature VN stack (§5.1.1)
			VNProxyUS:                0.7 * us,
			RendezvousThresholdBytes: 128 << 10,
			MemcpyBW:                 3.0 * gb,
		},
		// Link-compatible with SeaStar: the SeaStar-to-SeaStar rate did
		// not change (§5.1.3), which is why PTRANS per socket is flat.
		Link: LinkConfig{BW: 3.8 * gb, HopLatencyUS: 0.05},
	}
	mustValidate(m)
	return m
}

// X1E returns the ORNL Cray X1E of §6.1: 1,024 MSPs at 18 GF each,
// fully-connected within 32-MSP subsets, 2-D torus between subsets.
func X1E() Machine {
	m := Machine{
		Name:         "X1E",
		CoresPerNode: 4, // 4 MSPs per node board share memory
		TotalNodes:   256,
		Topology:     FlatSwitch,
		CPU: CPUConfig{
			ClockGHz:      1.13,
			FlopsPerCycle: 16, // MSP: 18 GF/MSP at 1.13 GHz
			DGEMMEff:      0.9,
			VectorLen:     256,
		},
		Mem: MemConfig{
			Kind:         "X1E-mem",
			PeakBW:       34 * gb, // per-MSP share of node memory bandwidth
			StreamEff:    0.6,
			LatencyNS:    110,
			RandomMLP:    8, // vector gather/scatter sustains high MLP
			BytesPerCore: 2 << 30,
		},
		NIC: NICConfig{
			InjBW:                    6.4 * gb,
			Eff:                      0.55,
			SendOverheadUS:           4.5 * us,
			RecvOverheadUS:           4.5 * us,
			RendezvousThresholdBytes: 256 << 10,
			MemcpyBW:                 8 * gb,
		},
		Link:           LinkConfig{BW: 6.4 * gb, HopLatencyUS: 0.3},
		SupportsOpenMP: true,
	}
	mustValidate(m)
	return m
}

// EarthSimulator returns the Japanese Earth Simulator of §6.1: 640 8-way
// vector SMP nodes (8 GF/processor) on a single-stage crossbar.
func EarthSimulator() Machine {
	m := Machine{
		Name:         "EarthSim",
		CoresPerNode: 8,
		TotalNodes:   640,
		Topology:     FlatSwitch,
		CPU: CPUConfig{
			ClockGHz:      1.0,
			FlopsPerCycle: 8, // 8 GF vector processor
			DGEMMEff:      0.93,
			VectorLen:     256,
		},
		Mem: MemConfig{
			Kind:         "ES-mem",
			PeakBW:       32 * gb, // 256 GB/s node ÷ 8 processors
			StreamEff:    0.85,
			LatencyNS:    100,
			RandomMLP:    8,
			BytesPerCore: 2 << 30,
		},
		NIC: NICConfig{
			InjBW:                    12.3 * gb, // crossbar: 12.3 GB/s/node
			Eff:                      0.8,
			SendOverheadUS:           5.5 * us,
			RecvOverheadUS:           5.5 * us,
			RendezvousThresholdBytes: 256 << 10,
			MemcpyBW:                 16 * gb,
		},
		Link:           LinkConfig{BW: 12.3 * gb, HopLatencyUS: 0.5},
		SupportsOpenMP: true,
	}
	mustValidate(m)
	return m
}

// P690 returns the ORNL IBM p690 cluster of §6.1: 27 32-way POWER4 nodes
// (1.3 GHz, 5.2 GF) with two dual-port HPS adapters per node.
func P690() Machine {
	m := Machine{
		Name:         "p690",
		CoresPerNode: 32,
		TotalNodes:   27,
		Topology:     FlatSwitch,
		CPU: CPUConfig{
			ClockGHz:      1.3,
			FlopsPerCycle: 4, // POWER4: 2 FMA units
			DGEMMEff:      0.82,
		},
		Mem: MemConfig{
			Kind:         "p690-mem",
			PeakBW:       6.4 * gb, // per-core share under full load
			StreamEff:    0.35,     // heavily shared GX bus
			LatencyNS:    190,
			RandomMLP:    1.3,
			BytesPerCore: 1 << 30,
		},
		NIC: NICConfig{
			InjBW:                    4 * gb, // 2 adapters x 2 ports x ~1 GB/s
			Eff:                      0.45,
			SendOverheadUS:           7 * us,
			RecvOverheadUS:           7 * us,
			RendezvousThresholdBytes: 64 << 10,
			MemcpyBW:                 2 * gb,
		},
		Link:           LinkConfig{BW: 4 * gb, HopLatencyUS: 1.0},
		SupportsOpenMP: true,
	}
	mustValidate(m)
	return m
}

// P575 returns the NERSC IBM p575 cluster of §6.1: 122 8-way POWER5 nodes
// (1.9 GHz, 7.6 GF) with one two-link HPS adapter per node.
func P575() Machine {
	m := Machine{
		Name:         "p575",
		CoresPerNode: 8,
		TotalNodes:   122,
		Topology:     FlatSwitch,
		CPU: CPUConfig{
			ClockGHz:      1.9,
			FlopsPerCycle: 4, // POWER5: 2 FMA units
			DGEMMEff:      0.85,
		},
		Mem: MemConfig{
			Kind:         "p575-mem",
			PeakBW:       12 * gb, // strong per-core memory on 8-way p575
			StreamEff:    0.55,
			LatencyNS:    90,
			RandomMLP:    1.6,
			BytesPerCore: 2 << 30,
		},
		NIC: NICConfig{
			InjBW:                    4 * gb,
			Eff:                      0.5,
			SendOverheadUS:           5 * us,
			RecvOverheadUS:           5 * us,
			RendezvousThresholdBytes: 64 << 10,
			MemcpyBW:                 3 * gb,
		},
		Link:           LinkConfig{BW: 4 * gb, HopLatencyUS: 1.0},
		SupportsOpenMP: true,
	}
	mustValidate(m)
	return m
}

// SP returns the NERSC IBM SP of §6.1: 184 Nighthawk II 16-way POWER3-II
// nodes (375 MHz, 1.5 GF) on an SP Switch2.
func SP() Machine {
	m := Machine{
		Name:         "SP",
		CoresPerNode: 16,
		TotalNodes:   184,
		Topology:     FlatSwitch,
		CPU: CPUConfig{
			ClockGHz:      0.375,
			FlopsPerCycle: 4, // POWER3-II: 2 FMA units
			DGEMMEff:      0.85,
		},
		Mem: MemConfig{
			Kind:         "SP-mem",
			PeakBW:       1.0 * gb, // per-core share of Nighthawk II bus
			StreamEff:    0.45,
			LatencyNS:    250,
			RandomMLP:    1.0,
			BytesPerCore: 1 << 30,
		},
		NIC: NICConfig{
			InjBW:                    1.0 * gb, // 2 SP Switch2 interfaces
			Eff:                      0.45,
			SendOverheadUS:           9 * us,
			RecvOverheadUS:           9 * us,
			RendezvousThresholdBytes: 64 << 10,
			MemcpyBW:                 1 * gb,
		},
		Link:           LinkConfig{BW: 1.0 * gb, HopLatencyUS: 1.5},
		SupportsOpenMP: true,
	}
	mustValidate(m)
	return m
}

// CombinedXT3XT4 returns the merged ORNL system of §3: at the time of
// writing, the 5,212 (dual-core-upgraded) XT3 cabinets and 6,296 XT4
// cabinets had been combined into one machine, and the largest runs (POP
// beyond 12k tasks in Figure 18, the 16k/22.5k AORSA bars of Figure 23)
// "used a mix of XT3 and XT4 compute nodes". The model homogenises the
// mix: per-node memory and injection bandwidth are the node-count-weighted
// averages of the two populations (the SeaStar/SeaStar2 parts are
// link-compatible and share one torus — §2).
func CombinedXT3XT4() Machine {
	xt3 := XT3DualCore()
	xt4 := XT4()
	n3 := float64(xt3.TotalNodes)
	n4 := float64(xt4.TotalNodes)
	w3 := n3 / (n3 + n4)
	w4 := n4 / (n3 + n4)

	m := xt4
	m.Name = "XT3/4"
	m.TotalNodes = xt3.TotalNodes + xt4.TotalNodes
	m.Mem.Kind = "mixed DDR-400/DDR2-667"
	m.Mem.PeakBW = w3*xt3.Mem.PeakBW + w4*xt4.Mem.PeakBW
	m.Mem.LatencyNS = w3*xt3.Mem.LatencyNS + w4*xt4.Mem.LatencyNS
	m.Mem.RandomMLP = w3*xt3.Mem.RandomMLP + w4*xt4.Mem.RandomMLP
	m.NIC.InjBW = w3*xt3.NIC.InjBW + w4*xt4.NIC.InjBW
	m.NIC.SendOverheadUS = w3*xt3.NIC.SendOverheadUS + w4*xt4.NIC.SendOverheadUS
	m.NIC.RecvOverheadUS = w3*xt3.NIC.RecvOverheadUS + w4*xt4.NIC.RecvOverheadUS
	mustValidate(m)
	return m
}

// XT4Full returns the paper-headline full machine by name: §2 and Table 1
// describe the combined system as 11,706 nodes and up to 23,016 processor
// cores; the gap between the two figures is the service/login/I-O
// partition, so the simulated compute partition is the 11,508 dual-core
// compute nodes of CombinedXT3XT4 (11,508 × 2 = 23,016 cores — the
// MaxCores value the machine tests pin). Experiments and the serve schema
// reference the paper configuration through this preset instead of
// ad-hoc node-count literals.
func XT4Full() Machine {
	m := CombinedXT3XT4()
	m.Name = "XT4-full"
	return m
}

// All returns every predefined machine, XT family first.
func All() []Machine {
	return []Machine{XT3(), XT3DualCore(), XT4(), CombinedXT3XT4(), XT4Full(), X1E(), EarthSimulator(), P690(), P575(), SP()}
}

// ByName looks up a predefined machine by its figure label.
func ByName(name string) (Machine, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("machine: unknown machine %q", name)
}

func mustValidate(m Machine) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
}
