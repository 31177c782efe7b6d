package main

import (
	"sync"
	"time"
)

// The shared 2-vCPU host this benchmark was built on changes speed by up to
// a third within seconds (neighbours contend for cores and caches; steal
// time stays near zero), which would swamp any useful regression bound:
// halo's run medians spread 26-55% across ten seeds. A calibration kernel
// is therefore timed between repetitions, and each repetition's time is
// rescaled to a reference speed: time × calibReference / mean of the
// calibrations on either side. That brought halo's spread to 5-9%. The
// kernel is the benchmark's own code, so no change to xtsim can move it,
// and it allocates nothing, so xtsim's heap cannot either.

// calibReference is the nominal duration of one calibrate call, the speed
// the rescaled times are expressed at.
const calibReference = 250 * time.Millisecond

const (
	calibRounds = 11      // kernel runs per calibration, about calibReference on the reference host
	chaseLen    = 1 << 20 // 4 MiB of uint32: beyond L2, like the simulator's working set
	chaseSteps  = 1 << 20
	heapLen     = 1 << 12
	heapOps     = 1 << 16
)

var (
	chaseOnce  sync.Once
	chaseTable []uint32
)

// calibrate runs the kernel on as many goroutines as a workload child has
// Ps, as the workloads load every P, and returns the mean duration.
func calibrate() time.Duration {
	chaseOnce.Do(func() {
		// One cycle through all slots (Sattolo's shuffle), so the chase
		// visits the whole table in a fixed pseudo-random order.
		chaseTable = make([]uint32, chaseLen)
		for i := range chaseTable {
			chaseTable[i] = uint32(i)
		}
		x := uint64(1)
		for i := chaseLen - 1; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			j := int((x >> 33) % uint64(i))
			chaseTable[i], chaseTable[j] = chaseTable[j], chaseTable[i]
		}
	})
	n := childProcs()
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			for k := 0; k < calibRounds; k++ {
				calibSink[i] += calibKernel(chaseTable)
			}
			durs[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	return sum / time.Duration(n)
}

// calibSink keeps the kernel's result live, one slot per goroutine.
var calibSink [2]uint64

// calibKernel mixes the simulator's two kinds of work: dependent loads
// through a table larger than L2 (pointer chasing) and a binary heap's
// branchy sift operations on pseudo-random keys (event scheduling).
func calibKernel(table []uint32) uint64 {
	var p uint32
	for i := 0; i < chaseSteps; i++ {
		p = table[p]
	}
	var heap [heapLen]uint64
	n := 0
	x := uint64(p) + 1
	for i := 0; i < heapOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		if n < heapLen && (n == 0 || x&1 == 0) {
			j := n
			heap[j] = x >> 1
			n++
			for j > 0 && heap[(j-1)/2] > heap[j] {
				heap[j], heap[(j-1)/2] = heap[(j-1)/2], heap[j]
				j = (j - 1) / 2
			}
			continue
		}
		n--
		heap[0] = heap[n]
		for j := 0; ; {
			c := 2*j + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1] < heap[c] {
				c++
			}
			if heap[j] <= heap[c] {
				break
			}
			heap[j], heap[c] = heap[c], heap[j]
			j = c
		}
	}
	return x + uint64(n)
}

// speedOf is the host's speed relative to the reference over an interval
// bracketed by two calibrations: rescaled time = host time × speed.
func speedOf(before, after time.Duration) float64 {
	return 2 * calibReference.Seconds() / (before + after).Seconds()
}
