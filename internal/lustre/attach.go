package lustre

import (
	"xtsim/internal/core"
	"xtsim/internal/timeline"
)

// Attach builds a filesystem on the system's engine and fabric and
// registers it with the system (core.AttachIO). This is the only way
// experiments attach I/O: OSS servers land on the fabric's reserved SIO
// nodes when the system was built with core.NewSystemSIO (legacy
// top-of-range placement otherwise), the I/O counters come up whenever the
// system's telemetry is enabled, and the system's admission table keeps
// the run on the serial DES because the MDS/OSS/OST resources are
// engine-global shared state. Call before mpi.NewWorld/Run.
func Attach(sys *core.System, cfg Config) (*FS, error) {
	fs, err := New(sys.Eng, sys.Fabric, cfg)
	if err != nil {
		return nil, err
	}
	if sys.Tel != nil {
		fs.EnableTelemetry(sys.Tel)
	}
	sys.AttachIO(fs.TelemetryReport)
	if sys.Tl != nil {
		// An I/O system plans serial, so domain 0's collector is the
		// only one: OST samples land beside the fabric's.
		fs.EnableTimeline(sys.Tl.Dom(0))
		sys.Tl.SetResources(timeline.OST, cfg.TotalOSTs())
	}
	return fs, nil
}
