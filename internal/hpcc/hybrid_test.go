package hpcc

import (
	"strings"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// TestGlobalKernelsAbortExactTier is the live check of the exact tier's
// whole-run abort (DESIGN.md §4i): the exact tier admits fig9's MPI-FFT and
// fig11's MPI-RA on an SN system, their all-to-all traffic shares links,
// so the session ledger must trip, and the DES re-run must reproduce the
// plain DES result bit for bit.
func TestGlobalKernelsAbortExactTier(t *testing.T) {
	for _, k := range []struct {
		name string
		run  func(*core.System) GlobalResult
	}{{"MPI-FFT", MPIFFTOn}, {"MPI-RA", MPIRAOn}} {
		des := k.run(core.NewSystem(machine.XT4(), machine.SN, 16))
		sys := core.NewSystem(machine.XT4(), machine.SN, 16)
		if !sys.EnableHybrid(core.HybridExact) {
			t.Fatalf("%s: exact tier declined: %s", k.name, sys.HybridReason())
		}
		got := k.run(sys)
		if sys.HybridEnabled() || !strings.Contains(sys.HybridReason(), "link ownership violation") {
			t.Fatalf("%s: want an exact-ledger abort, hybrid %v reason %q", k.name, sys.HybridEnabled(), sys.HybridReason())
		}
		if got != des {
			t.Fatalf("%s: after the abort %+v, DES %+v", k.name, got, des)
		}
	}
}
