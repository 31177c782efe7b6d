//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip under it because instrumentation perturbs the counts.
const raceEnabled = false
