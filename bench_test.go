// Package xtsim_test hosts the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper, each driving the
// corresponding experiment from the registry, plus the ablation benches
// for the design choices listed in DESIGN.md.
//
// Benchmarks run the experiments at reduced ("short") scale so that
// `go test -bench=. -benchmem` regenerates every artifact's machinery in
// minutes; `cmd/xtsim -run all` produces the full-scale tables.
package xtsim_test

import (
	"runtime"
	"testing"

	"xtsim/internal/expt"
)

// benchExperiment runs one registered experiment per iteration, discarding
// its structured result (correctness of the numbers is covered by the unit
// tests; the bench measures the cost of regenerating the artifact).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(expt.Options{Short: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Systems(b *testing.B)        { benchExperiment(b, "table1") }
func BenchmarkFig1Lustre(b *testing.B)           { benchExperiment(b, "fig1") }
func BenchmarkFig2NetworkLatency(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3NetworkBandwidth(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4FFT(b *testing.B)              { benchExperiment(b, "fig4") }
func BenchmarkFig5DGEMM(b *testing.B)            { benchExperiment(b, "fig5") }
func BenchmarkFig6RandomAccess(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7Stream(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8HPL(b *testing.B)              { benchExperiment(b, "fig8") }
func BenchmarkFig9MPIFFT(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10PTRANS(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkFig11MPIRA(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12BidirSmall(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkFig13BidirLarge(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14CAMXT(b *testing.B)           { benchExperiment(b, "fig14") }
func BenchmarkFig15CAMPlatforms(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16CAMPhases(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17POPXT(b *testing.B)           { benchExperiment(b, "fig17") }
func BenchmarkFig18POPPlatforms(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkFig19POPPhases(b *testing.B)       { benchExperiment(b, "fig19") }
func BenchmarkFig20NAMDXT(b *testing.B)          { benchExperiment(b, "fig20") }
func BenchmarkFig21NAMDModes(b *testing.B)       { benchExperiment(b, "fig21") }
func BenchmarkFig22S3D(b *testing.B)             { benchExperiment(b, "fig22") }
func BenchmarkFig23AORSA(b *testing.B)           { benchExperiment(b, "fig23") }

// BenchmarkExtParallelS3D regenerates the ext-parallel artifact: serial,
// 2-domain and 4-domain S3D runs, one after another as Execute runs them.
func BenchmarkExtParallelS3D(b *testing.B) {
	benchExperiment(b, "ext-parallel")
}

// The I/O-subsystem artifacts (DESIGN.md §4j): the IOR striping sweep and
// the checkpoint-interference study, each one full short-scale experiment
// per iteration.
func BenchmarkIORSweep(b *testing.B)      { benchExperiment(b, "ext-io") }
func BenchmarkS3DCheckpoint(b *testing.B) { benchExperiment(b, "ext-ckpt") }

// BenchmarkExtTimeline regenerates the ext-timeline artifact (checkpointed
// S3D flight recording plus the serial-vs-sharded identity arm).
func BenchmarkExtTimeline(b *testing.B) { benchExperiment(b, "ext-timeline") }

// BenchmarkExtPetascale regenerates the ext-petascale artifact (full-machine
// S3D strong scaling, DES reference vs hybrid fast path per cell, reduced to
// the short cells here) and reports the process's memory footprint after the
// run alongside the wall clock: heap-B is the live+uncollected heap
// (runtime.MemStats.HeapAlloc), sys-B the peak memory obtained from the OS
// (MemStats.Sys, monotonic). The per-rank heap bound itself is pinned by
// mpi.TestPaperScaleHeapBudget; these metrics watch the whole experiment.
// The HybridOff pair is the same artifact with the fast-path runs skipped
// (DES references only) — the delta between the two is what the hybrid
// runs cost on top of the references; at full scale that extra is ≈ 4×
// cheaper than a second DES pass over the same cells.
func BenchmarkExtPetascale(b *testing.B) {
	benchPetascale(b, expt.Options{Short: true})
}

func BenchmarkExtPetascaleHybridOff(b *testing.B) {
	benchPetascale(b, expt.Options{Short: true, Hybrid: "off"})
}

func benchPetascale(b *testing.B, opts expt.Options) {
	b.Helper()
	e, err := expt.ByID("ext-petascale")
	if err != nil {
		b.Fatal(err)
	}
	var peakHeap, peakSys uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(opts); err != nil {
			b.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peakHeap {
			peakHeap = ms.HeapAlloc
		}
		if ms.Sys > peakSys {
			peakSys = ms.Sys
		}
	}
	b.ReportMetric(float64(peakHeap), "heap-B")
	b.ReportMetric(float64(peakSys), "sys-B")
}

func BenchmarkAblationVNMediation(b *testing.B)   { benchExperiment(b, "ablation-vn") }
func BenchmarkAblationCollectives(b *testing.B)   { benchExperiment(b, "ablation-coll") }
func BenchmarkAblationMemoryModel(b *testing.B)   { benchExperiment(b, "ablation-mem") }
func BenchmarkAblationDDR2Isolation(b *testing.B) { benchExperiment(b, "ablation-ddr2") }
