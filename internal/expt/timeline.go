package expt

// ext-timeline (DESIGN.md §4k): the phase-resolved flight recorder's
// showcase and standing regression. Arm one runs the checkpointed S3D proxy
// from ext-ckpt with the timeline recorder on and renders the
// checkpoint-epoch interference window as a binned utilization series with
// dominant-phase annotations, plus the per-iteration per-phase resource
// breakdown. Arm two re-runs the pure ghost-exchange proxy on the sharded
// scheduler at fixed domain counts and asserts the folded timeline export
// is byte-identical to the serial run — the property that lets sharded
// runs keep observability on instead of declining it.

import (
	"bytes"
	"sort"

	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	ckpt "xtsim/internal/io"
	"xtsim/internal/lustre"
	"xtsim/internal/machine"
	"xtsim/internal/timeline"
)

func init() {
	register(Experiment{
		ID: "ext-timeline", Artifact: "Extension",
		Title: "Phase-resolved timeline of S3D checkpoint interference (binned utilization, shard-identical export)",
		Run:   runExtTimeline,
	})
}

func runExtTimeline(res *Result, o Options) error {
	// Arm one: the ext-ckpt interference configuration — a narrow SIO
	// partition funnels flush traffic through few torus ingress links, so
	// checkpoint stripes and halo exchanges visibly contend — with the
	// flight recorder joining what happened to when it happened.
	tasks := 64
	if o.Short {
		tasks = 8
	}
	const globalEdge = 96
	const steps = 5
	every := 1
	if o.CkptEvery > 0 {
		every = o.CkptEvery
	}
	fsCfg := lustre.DefaultConfig()
	fsCfg.OSSCount = 4

	sys := core.NewSystemSIO(machine.XT4(), machine.SN, tasks, fsCfg.OSSCount)
	sys.EnableTimeline()
	edge := globalEdge / icbrt(tasks)
	b := s3d.Benchmark{
		PointsPerEdge: edge,
		Variables:     12,
		RKStages:      6,
		Steps:         steps,
		// Full solver register set, as in ext-ckpt.
		CheckpointBytes: 4 * 8 * 12 * int64(edge) * int64(edge) * int64(edge),
	}
	w, err := ckpt.Attach(sys, ckpt.Config{FS: fsCfg, StripeCount: 4})
	if err != nil {
		return err
	}
	b.Checkpoint = w
	b.CheckpointEvery = every
	r := s3d.RunOn(sys, b)
	res.AddSimSeconds(float64(sys.Eng.Now()))
	rep := sys.TimelineReport(float64(sys.Eng.Now()))

	res.Textf("S3D %d tasks (%d³ points/task), %d steps, checkpoint every %d steps (N-to-N, stripe 4, OSSes on %d SIO nodes): %.3f s/step.\n",
		tasks, edge, steps, every, fsCfg.OSSCount, r.SecondsPerStep)
	res.Textf("Timeline: %d phase spans (%d dropped at the per-rank cap), bin width %s s over a %s s horizon:\n",
		rep.Spans, rep.DroppedSpans, f4(rep.BinSeconds), f3(rep.HorizonSeconds))

	// Binned utilization series with dominant-phase annotations: the join of
	// the resource samples and the app-emitted phase spans.
	classBins := make(map[string]map[float64]timeline.BinPoint)
	tset := make(map[float64]bool)
	for _, cs := range rep.Classes {
		m := make(map[float64]timeline.BinPoint, len(cs.Bins))
		for _, bp := range cs.Bins {
			m[bp.T] = bp
			tset[bp.T] = true
		}
		classBins[cs.Class] = m
	}
	phases := make(map[float64]timeline.BinPhase, len(rep.Phases))
	for _, bp := range rep.Phases {
		phases[bp.T] = bp
		tset[bp.T] = true
	}
	ts := make([]float64, 0, len(tset))
	for t := range tset {
		ts = append(ts, t)
	}
	sort.Float64s(ts)

	util := func(class string, t float64) string {
		bp, ok := classBins[class][t]
		if !ok {
			return "-"
		}
		return f3(bp.Utilization)
	}
	t1 := res.Table()
	t1.Row("t (s)", "link util", "NIC util", "OST util", "phase")
	for _, t := range ts {
		ph := "-"
		if bp, ok := phases[t]; ok {
			ph = bp.Phase
		}
		t1.Row(f3(t),
			util(timeline.ClassName(timeline.Link), t),
			util(timeline.ClassName(timeline.NIC), t),
			util(timeline.ClassName(timeline.OST), t),
			ph)
	}

	res.Textln("Per-iteration, per-phase resource breakdown (busy seconds share-weighted into each phase's span window):")
	t2 := res.Table()
	t2.Row("iter", "phase", "spans", "rank-time (s)", "window (s)", "link busy (s)", "OST busy (s)")
	for _, ip := range rep.Iterations {
		t2.Row(itoa(ip.Iter), ip.Phase, itoa(ip.Spans),
			f3(ip.SpanSeconds), f3(ip.WindowSeconds),
			f3(ip.LinkBusySeconds), f3(ip.OSTBusySeconds))
	}
	res.Textln("(The OST column lights up exactly in the bins the ckpt phase dominates, and the link-busy share of the halo phases after each epoch exceeds the pre-epoch steps — the write-behind flush contending with ghost exchanges on shared torus links, now visible per iteration instead of only in the end-of-run compute-phase delta.)")
	if o.Timeline {
		if err := res.Attach("timeline", "checkpointed S3D run", rep.WriteJSON); err != nil {
			return err
		}
	}

	// Arm two: shard identity. Pure nearest-neighbour SN traffic lands in
	// the sharded scheduler's byte-identical equivalence class (zero foreign
	// hops), so the folded per-domain collectors must reproduce the serial
	// timeline export byte for byte. Domain counts are fixed per cell —
	// the worker budget only decides how many cells run at once — so the
	// rendered table is byte-identical for any -jobs value.
	btasks := 512
	if o.Short {
		btasks = 64
	}
	wb := s3d.Weak50()
	type cell struct {
		shards  int
		seconds float64
		spans   int
		json    []byte
		reason  string
	}
	cells := []cell{{shards: 0}, {shards: 2}, {shards: 4}}
	runCells(res, len(cells), func(i int) {
		c := &cells[i]
		sys := core.NewSystem(machine.XT4(), machine.SN, btasks)
		sys.EnableTimeline()
		if c.shards > 0 {
			if !sys.EnableParallel(c.shards) {
				c.reason = sys.ParallelReason()
				return
			}
		}
		r := s3d.RunOn(sys, wb)
		if c.shards > 0 && !sys.ParallelEnabled() {
			c.reason = "fell back: " + sys.ParallelReason()
			return
		}
		c.seconds = r.SecondsPerStep
		// The serial engine clock stays at zero under the sharded scheduler,
		// so the horizon comes from the run's own makespan (one RK step).
		rep := sys.TimelineReport(r.SecondsPerStep)
		c.spans = rep.Spans
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			c.reason = err.Error()
			return
		}
		c.json = buf.Bytes()
	})

	serial := cells[0]
	res.Textf("Shard identity: S3D ghost exchange (%d³ points/task), %d tasks SN, recorder on under the sharded scheduler:\n",
		wb.PointsPerEdge, btasks)
	t3 := res.Table()
	t3.Row("domains", "makespan (s)", "spans", "timeline vs serial")
	for _, c := range cells {
		if c.reason != "" {
			t3.Row(itoa(c.shards), "-", "-", "declined: "+c.reason)
			continue
		}
		label := "serial"
		match := "-"
		if c.shards > 0 {
			label = itoa(c.shards)
			if c.seconds == serial.seconds && bytes.Equal(c.json, serial.json) {
				match = "identical"
			} else {
				match = "DIVERGED"
			}
		}
		res.AddSimSeconds(c.seconds)
		t3.Row(label, f4(c.seconds), itoa(c.spans), match)
	}
	res.Textln("(Each domain samples its own resources into a private collector; the window-barrier fold is elementwise integer addition on a bin grid whose width is a pure function of the latest sample, so serial and sharded runs converge to the same grid and the same bytes — DESIGN.md §4k.)")
	return nil
}
