package lustre

import "xtsim/internal/core"

// Attach builds a filesystem on the system's engine and fabric and
// registers it with the system (core.AttachIO). This is the only way
// experiments attach I/O: OSS servers land on the fabric's reserved SIO
// nodes when the system was built with core.NewSystemSIO (legacy
// top-of-range placement otherwise), the system's engine plan installs the
// observer probe whether the observers were enabled before or after the
// attach, and the admission table keeps the run on the serial DES because
// the MDS/OSS/OST resources are engine-global shared state. Call before
// mpi.NewWorld/Run.
func Attach(sys *core.System, cfg Config) (*FS, error) {
	fs, err := New(sys.Eng, sys.Fabric, cfg)
	if err != nil {
		return nil, err
	}
	sys.AttachIO(fs)
	return fs, nil
}
