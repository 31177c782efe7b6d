package hpcc

import (
	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
)

// Intel MPI Benchmarks (IMB) style micro-benchmarks: PingPong, PingPing,
// Exchange and Allreduce as functions of message size. These complement
// the HPCC ring tests with the per-size curves systems people actually
// read when a new interconnect arrives (and they feed the Figures 12–13
// style sweeps).

// IMBPoint is one (size, time) measurement.
type IMBPoint struct {
	Bytes int64
	// Seconds is the per-operation time (one-way for PingPong, per
	// iteration for the others).
	Seconds float64
	// BW is the corresponding payload bandwidth in bytes/s where
	// meaningful (0 for Allreduce).
	BW float64
}

const imbIters = 4

// IMBPingPong measures one-way latency/bandwidth between two tasks on
// neighbouring nodes.
func IMBPingPong(m machine.Machine, mode machine.Mode, sizes []int64) []IMBPoint {
	out := make([]IMBPoint, 0, len(sizes))
	for _, size := range sizes {
		size := size
		nTasks := 2 * m.TasksPerNode(mode) // fill both nodes' cores; probe core 0s
		sys := core.NewSystem(m, mode, nTasks)
		taskB := sys.TasksPerNode // core 0 of node 1
		elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
			switch p.Rank() {
			case 0:
				for i := 0; i < imbIters; i++ {
					p.Send(taskB, 0, size)
					p.Recv(taskB, 1)
				}
			case taskB:
				for i := 0; i < imbIters; i++ {
					p.Recv(0, 0)
					p.Send(0, 1, size)
				}
			}
		})
		oneWay := elapsed / (2 * imbIters)
		out = append(out, IMBPoint{Bytes: size, Seconds: oneWay, BW: float64(size) / oneWay})
	}
	return out
}

// IMBPingPing measures simultaneous sends in both directions (each task
// sends and receives concurrently), exposing bidirectional link capacity.
func IMBPingPing(m machine.Machine, mode machine.Mode, sizes []int64) []IMBPoint {
	out := make([]IMBPoint, 0, len(sizes))
	for _, size := range sizes {
		size := size
		sys := core.NewSystem(m, mode, 2)
		elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
			other := 1 - p.Rank()
			for i := 0; i < imbIters; i++ {
				sreq := p.Isend(other, 0, size)
				p.Recv(other, 0)
				p.Wait(sreq)
			}
		})
		per := elapsed / imbIters
		out = append(out, IMBPoint{Bytes: size, Seconds: per, BW: float64(size) / per})
	}
	return out
}

// IMBExchange measures the bidirectional ring exchange (each task sends to
// both neighbours and receives from both, per iteration) across nTasks —
// the closest IMB analogue of a stencil code's halo step.
func IMBExchange(m machine.Machine, mode machine.Mode, nTasks int, sizes []int64) []IMBPoint {
	out := make([]IMBPoint, 0, len(sizes))
	for _, size := range sizes {
		size := size
		sys := core.NewSystem(m, mode, nTasks)
		elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
			n := p.Size()
			right := (p.Rank() + 1) % n
			left := (p.Rank() - 1 + n) % n
			for i := 0; i < imbIters; i++ {
				reqs := []*mpi.Request{
					p.Isend(right, 0, size), p.Isend(left, 1, size),
					p.Irecv(left, 0), p.Irecv(right, 1),
				}
				p.Wait(reqs...)
			}
		})
		per := elapsed / imbIters
		// Each iteration moves 2 sends + 2 recvs of size per task.
		out = append(out, IMBPoint{Bytes: size, Seconds: per, BW: 4 * float64(size) / per})
	}
	return out
}

// IMBAllreduce measures Allreduce time as a function of payload size
// across nTasks.
func IMBAllreduce(m machine.Machine, mode machine.Mode, nTasks int, sizes []int64) []IMBPoint {
	out := make([]IMBPoint, 0, len(sizes))
	for _, size := range sizes {
		size := size
		sys := core.NewSystem(m, mode, nTasks)
		elapsed := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) {
			for i := 0; i < imbIters; i++ {
				p.Allreduce(mpi.Sum, size, nil)
			}
		})
		out = append(out, IMBPoint{Bytes: size, Seconds: elapsed / imbIters})
	}
	return out
}
