package hpcc

import (
	"math/rand"

	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// RingResult holds the five network measurements of Figures 2 and 3 for
// one machine/mode: ping-pong min/avg/max plus naturally- and
// randomly-ordered ring values.
type RingResult struct {
	PPMin, PPAvg, PPMax float64
	NatRing, RandRing   float64
}

// latency message and bandwidth message sizes used by HPCC.
const (
	latencyBytes   = 8
	bandwidthBytes = 2 << 20
	pingpongIters  = 8
)

// NetworkLatency measures one-way MPI latencies in microseconds — Figure 2.
// nTasks sets the system size for hop distances and ring contention; in VN
// mode both cores of every node participate, exposing the NIC-sharing
// penalty.
func NetworkLatency(m machine.Machine, mode machine.Mode, nTasks int) RingResult {
	return networkProbe(m, mode, nTasks, latencyBytes, true)
}

// NetworkBandwidth measures per-task bandwidths in GB/s with 2 MiB
// messages — Figure 3.
func NetworkBandwidth(m machine.Machine, mode machine.Mode, nTasks int) RingResult {
	return networkProbe(m, mode, nTasks, bandwidthBytes, false)
}

// networkProbe runs the three experiments. For latency results the value
// is one-way time in µs; for bandwidth it is GB/s per task.
func networkProbe(m machine.Machine, mode machine.Mode, nTasks int, msgBytes int64, latency bool) RingResult {
	var out RingResult

	pingpong := func(taskA, taskB, total int) float64 {
		sys := core.NewSystem(m, mode, total)
		elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
			switch p.Rank() {
			case taskA:
				for i := 0; i < pingpongIters; i++ {
					p.Send(taskB, 0, msgBytes)
					p.Recv(taskB, 1)
				}
			case taskB:
				for i := 0; i < pingpongIters; i++ {
					p.Recv(taskA, 0)
					p.Send(taskA, 1, msgBytes)
				}
			}
		})
		return elapsed / (2 * pingpongIters) // one-way time
	}

	// Ping-pong pairs: nearest nodes, average-distance nodes, antipodal
	// nodes. In VN mode the probing tasks are the nodes' second cores,
	// whose traffic is host-mediated (§2).
	sys := core.NewSystem(m, mode, nTasks)
	tor := sys.Fabric.Tor
	tpn := sys.TasksPerNode
	probeCore := 0
	if tpn > 1 {
		probeCore = 1
	}
	taskOf := func(node int) int { return node*tpn + probeCore }

	// Nearest node pair.
	nearT := pingpong(taskOf(0), taskOf(1), nTasks)
	// Farthest pair under dimension-ordered routing.
	farNode, farHops := 1, 0
	avgNode := 1
	bestAvgGap := 1 << 30
	avgTarget := int(tor.AvgHops())
	for nd := 1; nd < minInt(tor.Nodes(), nTasks/tpn); nd++ {
		h := tor.Hops(0, nd)
		if h > farHops {
			farHops, farNode = h, nd
		}
		if gap := absInt(h - avgTarget); gap < bestAvgGap {
			bestAvgGap, avgNode = gap, nd
		}
	}
	avgT := pingpong(taskOf(0), taskOf(avgNode), nTasks)
	farT := pingpong(taskOf(0), taskOf(farNode), nTasks)

	// Ring tests: every task exchanges with its ring neighbours
	// simultaneously, so contention and (in VN mode) NIC sharing load the
	// result. The natural ring follows rank order; the random ring is a
	// seeded permutation.
	ring := func(perm []int) float64 {
		pos := make([]int, len(perm)) // task -> position in ring
		for i, t := range perm {
			pos[t] = i
		}
		ringSys := core.NewSystem(m, mode, nTasks)
		elapsed := mpi.Run(ringSys, mpi.Algorithmic, func(p *mpi.P) {
			n := len(perm)
			i := pos[p.Rank()]
			right := perm[(i+1)%n]
			left := perm[(i-1+n)%n]
			for it := 0; it < pingpongIters; it++ {
				p.SendRecv(right, 2, msgBytes, left, 2)
			}
		})
		// Per-exchange time (each iteration sends and receives once).
		return elapsed / pingpongIters
	}
	natural := identityPerm(nTasks)
	natT := ring(natural)
	rng := rand.New(rand.NewSource(42))
	random := rng.Perm(nTasks)
	randT := ring(random)

	if latency {
		out.PPMin = nearT * 1e6
		out.PPAvg = avgT * 1e6
		out.PPMax = farT * 1e6
		out.NatRing = natT * 1e6
		out.RandRing = randT * 1e6
	} else {
		b := float64(msgBytes)
		out.PPMin = b / nearT / 1e9
		out.PPAvg = b / avgT / 1e9
		out.PPMax = b / farT / 1e9
		out.NatRing = b / natT / 1e9
		out.RandRing = b / randT / 1e9
	}
	return out
}

// BidirPoint is one point of the Figures 12–13 bandwidth-vs-message-size
// curves.
type BidirPoint struct {
	Bytes int64
	// BWPerPair is the bidirectional bandwidth per task pair in bytes/s.
	BWPerPair float64
}

// BidirBandwidth measures bidirectional MPI bandwidth between compute
// nodes for the two §5.2 experiments: pairs=1 reproduces "0-1 internode";
// pairs=2 reproduces "i-(i+2), i=0,1 (VN)" where both cores of one node
// exchange with both cores of another simultaneously.
func BidirBandwidth(m machine.Machine, mode machine.Mode, pairs int, sizes []int64) []BidirPoint {
	if pairs != 1 && pairs != 2 {
		panic("hpcc: BidirBandwidth supports 1 or 2 pairs")
	}
	const iters = 4
	out := make([]BidirPoint, 0, len(sizes))
	for _, size := range sizes {
		nTasks := 4
		if m.TasksPerNode(mode) == 1 {
			nTasks = 2
			if pairs == 2 {
				// Two pairs need two tasks per node: only meaningful in
				// VN mode on multi-core nodes.
				panic("hpcc: two-pair experiment requires VN mode on a multi-core machine")
			}
		}
		sys := core.NewSystem(m, mode, nTasks)
		half := nTasks / 2
		elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
			me := p.Rank()
			var partner int
			if me < half {
				partner = me + half
			} else {
				partner = me - half
			}
			if pairs == 1 && me%half != 0 {
				return // only the first core pair participates
			}
			for i := 0; i < iters; i++ {
				sreq := p.Isend(partner, 3, size)
				p.Recv(partner, 3)
				p.Wait(sreq)
			}
		})
		perExchange := elapsed / iters
		out = append(out, BidirPoint{
			Bytes: size,
			// Each pair moves 2×size per exchange (both directions).
			BWPerPair: 2 * float64(size) / perExchange,
		})
	}
	return out
}

// StandardSizes returns the log-spaced message-size sweep of Figures 12–13.
func StandardSizes() []int64 {
	var sizes []int64
	for s := int64(8); s <= 4<<20; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
