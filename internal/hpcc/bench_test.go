package hpcc

import (
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// The timeline pair prices the phase-resolved flight recorder (DESIGN.md
// §4k) on fig9's 64-socket XT4-VN cell (128 tasks of MPI-FFT): the same
// simulation with the recorder on and off, so the wall-clock delta is the
// sampling overhead (`-bench MPIFFTTimeline` runs both).
func benchMPIFFTTimeline(b *testing.B, on bool) {
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(machine.XT4(), machine.VN, 128)
		if on {
			sys.EnableTimeline()
		}
		MPIFFTOn(sys)
	}
}

func BenchmarkMPIFFTTimeline(b *testing.B)    { benchMPIFFTTimeline(b, true) }
func BenchmarkMPIFFTTimelineOff(b *testing.B) { benchMPIFFTTimeline(b, false) }
