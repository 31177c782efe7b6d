package core_test

import (
	"bytes"
	"testing"

	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	ckpt "xtsim/internal/io"
	"xtsim/internal/machine"
	"xtsim/internal/trace"
)

// orderRun is what one 64-rank S3D run exposes about its engine choice and
// its observers.
type orderRun struct {
	parallel, hybrid     bool
	parReason, hybReason string
	step                 float64
	telemetry, critpath  []byte
	timeline, trace      []byte
}

// runOrdered builds a 64-rank SN XT4 system, applies the configuration
// calls in order, runs one S3D step and collects every export.
func runOrdered(t *testing.T, calls ...func(*core.System)) orderRun {
	t.Helper()
	m := machine.XT4()
	sys := core.NewSystem(m, machine.SN, 64)
	for _, call := range calls {
		call(sys)
	}
	b := s3d.Weak50()
	// Pinned to the torus, the halo exchange is single-owner, so the exact
	// hybrid tier completes instead of aborting.
	tor := m.TorusFor(64)
	b.Grid = [3]int{tor.NX, tor.NY, tor.NZ}
	res := s3d.RunOn(sys, b)

	out := orderRun{
		parallel:  sys.ParallelEnabled(),
		hybrid:    sys.HybridEnabled(),
		parReason: sys.ParallelReason(),
		hybReason: sys.HybridReason(),
		step:      res.SecondsPerStep,
	}
	var buf bytes.Buffer
	export := func(dst *[]byte, write func() error) {
		buf.Reset()
		if err := write(); err != nil {
			t.Fatal(err)
		}
		*dst = append([]byte(nil), buf.Bytes()...)
	}
	if rep := sys.TelemetryReport(); rep != nil {
		export(&out.telemetry, func() error { return rep.WriteJSON(&buf) })
	}
	if rep := sys.CritPathReport(); rep != nil {
		export(&out.critpath, func() error { return rep.WriteJSON(&buf) })
	}
	if rep := sys.TimelineReport(res.SecondsPerStep); rep != nil {
		export(&out.timeline, func() error { return rep.WriteJSON(&buf) })
	}
	if rec, ok := sys.Tracer.(*trace.Recorder); ok {
		export(&out.trace, func() error { return rec.WriteChromeTrace(&buf) })
	}
	return out
}

// TestAdmissionOrderIndependent pins that the engine is chosen once, from
// the whole configuration: each fast-path request combined with each
// feature that constrains it gives the same engine, reason, makespan and
// byte-identical exports whichever call comes first, and the exports equal
// those of the same feature on a run with no request at all.
func TestAdmissionOrderIndependent(t *testing.T) {
	requests := []struct {
		name  string
		apply func(*core.System)
	}{
		{"EnableParallel(2)", func(s *core.System) { s.EnableParallel(2) }},
		{"EnableHybrid(exact)", func(s *core.System) { s.EnableHybrid(core.HybridExact) }},
		{"EnableHybrid(analytic)", func(s *core.System) { s.EnableHybrid(core.HybridAnalytic) }},
	}
	features := []struct {
		name  string
		apply func(*core.System)
	}{
		{"EnableTelemetry", func(s *core.System) { s.EnableTelemetry() }},
		{"EnableCritPath", func(s *core.System) { s.EnableCritPath() }},
		{"EnableTimeline", func(s *core.System) { s.EnableTimeline() }},
		{"ckpt.Attach", func(s *core.System) {
			if _, err := ckpt.Attach(s, ckpt.Config{}); err != nil {
				panic(err)
			}
		}},
		{"NoiseAmp", func(s *core.System) { s.NoiseAmp = 0.05 }},
		{"Tracer", func(s *core.System) { s.Tracer = &trace.Recorder{} }},
	}
	for _, ft := range features {
		base := runOrdered(t, ft.apply)
		for _, rq := range requests {
			t.Run(rq.name+"+"+ft.name, func(t *testing.T) {
				featureFirst := runOrdered(t, ft.apply, rq.apply)
				requestFirst := runOrdered(t, rq.apply, ft.apply)
				if featureFirst.parallel != requestFirst.parallel || featureFirst.hybrid != requestFirst.hybrid ||
					featureFirst.parReason != requestFirst.parReason || featureFirst.hybReason != requestFirst.hybReason {
					t.Errorf("engine depends on call order:\n feature first: parallel=%v (%q) hybrid=%v (%q)\n request first: parallel=%v (%q) hybrid=%v (%q)",
						featureFirst.parallel, featureFirst.parReason, featureFirst.hybrid, featureFirst.hybReason,
						requestFirst.parallel, requestFirst.parReason, requestFirst.hybrid, requestFirst.hybReason)
				}
				for _, got := range []struct {
					order string
					run   orderRun
				}{{"feature first", featureFirst}, {"request first", requestFirst}} {
					r := got.run
					if r.step != base.step {
						t.Errorf("%s: s/step %v, %s alone %v", got.order, r.step, ft.name, base.step)
					}
					for _, e := range []struct {
						name      string
						got, want []byte
					}{
						{"telemetry", r.telemetry, base.telemetry},
						{"critpath", r.critpath, base.critpath},
						{"timeline", r.timeline, base.timeline},
						{"trace", r.trace, base.trace},
					} {
						if !bytes.Equal(e.got, e.want) {
							t.Errorf("%s: %s export differs from %s alone (%d vs %d bytes)",
								got.order, e.name, ft.name, len(e.got), len(e.want))
						}
					}
				}
			})
		}
	}
}
