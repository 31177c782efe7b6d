package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xtsim/internal/core"
	"xtsim/internal/sim"
)

// childReport is what a workload child prints when it exits.
type childReport struct {
	Walls     []float64 `json:"walls"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Layer holds the per-layer samples, traced children only.
	Layer map[string][]float64 `json:"layer,omitempty"`
}

// coverageTolerance bounds how far the profiled CPU may stray from the CPU
// time getrusage reports before the cost card is called incomplete.
const coverageTolerance = 0.10

// measure runs repetitions until seconds have passed, at least one, and
// reports their walls rescaled to the reference host speed. With
// traceDir set it also profiles the CPU, keeps the per-layer samples and
// writes the profile and the spans into traceDir.
func measure(name string, run func(*rep), seed int64, seconds float64, traceDir string) (childReport, error) {
	var out childReport
	var rng *rand.Rand
	if seed > 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	tr := newTracer()
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
	var prof *os.File
	var cpu0 time.Duration
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return out, err
		}
		f, err := os.Create(stem + ".pprof")
		if err != nil {
			return out, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return out, err
		}
		prof, cpu0 = f, hostCPU()
	}

	// Each repetition's wall is rescaled by the calibrations on either side
	// of it (calib.go). Their CPU time is kept out of the cost card.
	var calibCPU time.Duration
	calibrated := func() time.Duration {
		c0 := hostCPU()
		d := calibrate()
		calibCPU += hostCPU() - c0
		return d
	}
	layers := map[string][]float64{}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	calib := calibrated()
	for len(out.Walls) == 0 || time.Since(start) < budget {
		r := &rep{rng: rng, tr: tr, layer: map[string]float64{}}
		// Start every repetition from a collected heap, as a fresh
		// process would, rather than with the previous one's garbage.
		runtime.GC()
		before := readCounters()
		r.span = tr.begin(fmt.Sprintf("rep %d", len(out.Walls)), -1)
		run(r)
		wall := tr.end(r.span)
		readCounters().since(before, r.layer)
		next := calibrated()
		speed := speedOf(calib, next)
		calib = next
		r.layer["host.wall_s"] = wall.Seconds()
		r.layer["host.speed"] = speed
		out.Walls = append(out.Walls, wall.Seconds()*speed)
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, d := range perLayer {
			layers[d.name] = append(layers[d.name], r.layer[d.name])
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	out.PeakRSSMB = rss
	if prof == nil {
		return out, nil
	}

	cpu := hostCPU() - cpu0
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return out, err
	}
	p, err := readProfile(stem + ".pprof")
	if err != nil {
		return out, err
	}
	buckets, profiled := p.attribute()
	reps := float64(len(out.Walls))
	var simCPU float64
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "cpu.") {
			layers[d.name] = []float64{buckets[d.name] / reps}
		}
		if strings.HasPrefix(d.name, "cpu.sim.") {
			simCPU += buckets[d.name] / reps
		}
	}
	layers["sim.ns_per_event"] = []float64{0}
	if ev := median(layers["sim.events"]); ev > 0 {
		layers["sim.ns_per_event"] = []float64{simCPU / ev * 1e9}
	}
	coverage := profiled / (cpu - calibCPU).Seconds()
	layers["trace.coverage"] = []float64{coverage}
	if math.Abs(coverage-1) > coverageTolerance {
		fmt.Fprintf(os.Stderr, "xtbench: %s: the profile covers %.1f%% of host CPU time, outside ±%.0f%%\n",
			name, 100*coverage, 100*coverageTolerance)
	}
	out.Layer = layers
	if err := tr.writeChrome(stem + ".trace.json"); err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "xtbench: wrote %s.pprof and %s.trace.json\n", stem, stem)
	return out, nil
}

// runtimeMetrics are the runtime/metrics samples read around each
// repetition, in the order counters.since indexes them.
var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

// counters are the process-wide tallies the layers already export, read
// before and after each repetition.
type counters struct {
	events, windows            uint64
	parFallbacks, hybFallbacks uint64
	cpu                        time.Duration
	rt                         []metrics.Sample
}

func readCounters() counters {
	c := counters{events: sim.TotalEventsExecuted(), windows: sim.TotalWindowBarriers(), cpu: hostCPU()}
	for _, f := range core.FallbackCounts() {
		switch f.Kind {
		case "parallel":
			c.parFallbacks += f.Count
		case "hybrid":
			c.hybFallbacks += f.Count
		}
	}
	c.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		c.rt[i].Name = n
	}
	metrics.Read(c.rt)
	return c
}

// since stores the repetition's share of every counter, c minus b, in layer.
func (c counters) since(b counters, layer map[string]float64) {
	layer["sim.events"] = float64(c.events - b.events)
	layer["sim.window_barriers"] = float64(c.windows - b.windows)
	layer["core.parallel_fallbacks"] = float64(c.parFallbacks - b.parFallbacks)
	layer["core.hybrid_fallbacks"] = float64(c.hybFallbacks - b.hybFallbacks)
	layer["host.cpu_s"] = (c.cpu - b.cpu).Seconds()
	layer["runtime.alloc_mb"] = (rtValue(c.rt[0]) - rtValue(b.rt[0])) / (1 << 20)
	layer["runtime.allocs"] = rtValue(c.rt[1]) - rtValue(b.rt[1])
	layer["runtime.gc_cycles"] = rtValue(c.rt[2]) - rtValue(b.rt[2])
	layer["runtime.gc_cpu_s"] = rtValue(c.rt[3]) - rtValue(b.rt[3])
	if c.rt[4].Value.Kind() == metrics.KindFloat64Histogram {
		h, hb := c.rt[4].Value.Float64Histogram(), b.rt[4].Value.Float64Histogram()
		layer["runtime.sched_p50_us"] = histQuantile(h, hb, 0.50) * 1e6
		layer["runtime.sched_p99_us"] = histQuantile(h, hb, 0.99) * 1e6
	}
}

// rtValue reads a scalar runtime metric, 0 when this runtime lacks it.
func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// histQuantile returns quantile q of the observations added between two
// readings of one runtime histogram, as the upper edge of the bucket that
// holds it (the lower edge for the open top bucket).
func histQuantile(after, before *metrics.Float64Histogram, q float64) float64 {
	diff := make([]uint64, len(after.Counts))
	var total uint64
	for i, n := range after.Counts {
		diff[i] = n
		if i < len(before.Counts) {
			diff[i] -= before.Counts[i]
		}
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, n := range diff {
		cum += n
		if cum >= target {
			if hi := after.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return after.Buckets[i]
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// hostCPU is the process's user plus system CPU time so far.
func hostCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
