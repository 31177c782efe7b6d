package core_test

import (
	"bytes"
	"testing"

	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	ckpt "xtsim/internal/io"
	"xtsim/internal/machine"
	"xtsim/internal/mpi"
	"xtsim/internal/timeline"
)

// orderRun is what one 64-rank S3D run exposes about its engine choice and
// its observers.
type orderRun struct {
	parallel, hybrid     bool
	parReason, hybReason string
	step                 float64
	telemetry, critpath  []byte
	timeline             []byte
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

// TestObserverIOOrderIndependent pins that the observers see an attached
// filesystem whichever is configured first: an 8-rank system checkpoints
// 7 MiB, and telemetry's io section and the timeline's OST bins must be
// present and byte-identical whether the observer is enabled before or
// after ckpt.Attach.
func TestObserverIOOrderIndependent(t *testing.T) {
	// report writes the observer's export and says whether it shows I/O.
	type report func(*core.System, float64, *bytes.Buffer) (bool, error)
	type export struct {
		json  []byte
		sawIO bool
	}
	run := func(t *testing.T, enable func(*core.System), observerFirst bool, report report) export {
		t.Helper()
		sys := core.NewSystem(machine.XT4(), machine.SN, 8)
		if observerFirst {
			enable(sys)
		}
		w, err := ckpt.Attach(sys, ckpt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !observerFirst {
			enable(sys)
		}
		end := mpi.Run(sys, mpi.Algorithmic, func(p *mpi.P) { w.Checkpoint(p, 7<<20/8) })
		var buf bytes.Buffer
		saw, err := report(sys, end, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return export{json: buf.Bytes(), sawIO: saw}
	}
	for _, ob := range []struct {
		name   string
		enable func(*core.System)
		report report
	}{
		{"EnableTelemetry", func(s *core.System) { s.EnableTelemetry() },
			func(s *core.System, _ float64, b *bytes.Buffer) (bool, error) {
				rep := s.TelemetryReport()
				return rep.IO != nil, rep.WriteJSON(b)
			}},
		{"EnableTimeline", func(s *core.System) { s.EnableTimeline() },
			func(s *core.System, end float64, b *bytes.Buffer) (bool, error) {
				rep := s.TimelineReport(end)
				ost := false
				for _, c := range rep.Classes {
					ost = ost || c.Class == timeline.ClassName(timeline.OST)
				}
				return ost, rep.WriteJSON(b)
			}},
	} {
		t.Run(ob.name+"+ckpt.Attach", func(t *testing.T) {
			first := run(t, ob.enable, true, ob.report)
			after := run(t, ob.enable, false, ob.report)
			if !first.sawIO || !after.sawIO {
				t.Errorf("I/O missing from the export: observer first %v, attach first %v", first.sawIO, after.sawIO)
			}
			if !bytes.Equal(first.json, after.json) {
				t.Errorf("export depends on call order: observer first %d bytes, attach first %d bytes",
					len(first.json), len(after.json))
			}
		})
	}
}
