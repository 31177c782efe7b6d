package mpi

// Application-facing phase markers for the timeline flight recorder
// (internal/timeline, DESIGN.md §4k). The apps bracket their compute and
// halo-exchange regions with PhaseBegin/PhaseEnd and label iterations with
// SetIter; collectives and I/O regions are spanned automatically by opEnd.
// Everything here follows the nil-gate discipline: with the recorder off,
// PhaseBegin returns the -1 sentinel without reading the clock and
// PhaseEnd returns immediately, so instrumented app loops cost two
// predictable branches per phase and allocate nothing.

import "xtsim/internal/sim"

// SetIter declares the application's current iteration (timestep) number;
// phase spans recorded from here on carry it, which is what lets the
// export join "iteration 7's halo phase" against the binned utilization
// series. Cheap enough to call unconditionally at the top of a step loop.
func (p *P) SetIter(iter int) { p.curIter = int32(iter) }

// PhaseBegin opens an application phase span and returns its start token,
// or -1 when the flight recorder is off. Pair with PhaseEnd.
func (p *P) PhaseBegin() sim.Time {
	if p.pool.probe == nil {
		return -1
	}
	return p.task.Now()
}

// PhaseEnd closes the phase opened by PhaseBegin, recording a span named
// name ("compute", "halo", …) for the current iteration. A -1 token is a
// no-op, so callers need no recorder check of their own.
func (p *P) PhaseEnd(name string, start sim.Time) {
	if start < 0 {
		return
	}
	p.pool.probe.Span(p.task.ID, name, int(p.curIter), start, p.task.Now())
}
