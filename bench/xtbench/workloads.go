package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	"xtsim/internal/expt"
	"xtsim/internal/machine"
)

// A workload is one benchmark input set. load is the child's set-up: it
// reads the references and returns the function that runs one repetition.
type workload struct {
	name string
	load func(root string) (func(*rep), error)
}

var workloads = []workload{
	{"campaign", loadCampaign},
	{"petascale", loadPetascale},
	{"halo", loadHalo},
	{"extensions", loadExtensions},
}

// rep is one timed repetition: the seeded order source, the span recorder,
// the tally of checked operations and the repetition's per-layer samples.
type rep struct {
	rng       *rand.Rand // nil for seed 0, which keeps registry and cell order
	tr        *tracer
	span      int
	layer     map[string]float64
	attempted int
	failed    int
}

// op runs one checked operation (an experiment or a cell) and counts it as
// failed on an error, a panic or a reference mismatch.
func (r *rep) op(unit string, f func() error) {
	r.attempted++
	if err := protect(f); err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "xtbench: %s: %v\n", unit, err)
	}
}

func protect(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f()
}

// timed runs f inside a span under parent and returns the span's duration.
func (r *rep) timed(name string, parent int, f func(id int)) time.Duration {
	id := r.tr.begin(name, parent)
	f(id)
	return r.tr.end(id)
}

// order returns 0..n-1, shuffled by the repetition's seeded source.
func (r *rep) order(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if r.rng != nil {
		r.rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return idx
}

// sameText reports where got first departs from want.
func sameText(got, want string) error {
	if got == want {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("output differs from the reference at byte %d (got %d bytes, want %d)", i, len(got), len(want))
}

// matchStatus checks one experiment's rendered section against its reference.
func matchStatus(s *expt.Status, want string) error {
	if s.Err != nil {
		return s.Err
	}
	var b strings.Builder
	if err := s.Render(&b); err != nil {
		return err
	}
	return sameText(b.String(), want)
}

// --- campaign: every registered experiment at Short on two workers -------

// campaignClass groups the Short campaign's experiments by host cost,
// longest first: fig15 alone takes most of a worker's share. A seed above
// 0 shuffles within each class, so the order changes but a shuffle cannot
// leave the long pole for last and turn the makespan into a lottery.
var campaignClass = map[string]int{
	"fig15": 0,
	"fig17": 1, "fig18": 1, "fig19": 1, "fig20": 1, "fig21": 1, "fig23": 1,
	"fig8": 2, "fig9": 2, "fig11": 2, "fig14": 2, "fig16": 2, "ext-petascale": 2, "ext-ckpt": 2,
}

const campaignSmallClass = 3

// campaignTimed are the experiments whose walls are metrics of their own;
// the rest add up to expt.other_s.
var campaignTimed = map[string]bool{
	"fig8": true, "fig9": true, "fig11": true, "fig14": true, "fig15": true, "fig16": true,
	"fig17": true, "fig18": true, "fig19": true, "fig20": true, "fig21": true, "fig23": true,
	"ext-petascale": true,
}

func loadCampaign(root string) (func(*rep), error) {
	all := expt.All()
	ref, err := readSections(filepath.Join(root, "experiments_output.txt"), all)
	if err != nil {
		return nil, err
	}
	return func(r *rep) { runCampaign(r, all, ref) }, nil
}

// campaignOrder is registry order for seed 0, and otherwise a shuffle
// within campaignClass, longest class first.
func campaignOrder(r *rep, all []expt.Experiment) []expt.Experiment {
	exps := make([]expt.Experiment, 0, len(all))
	for _, i := range r.order(len(all)) {
		exps = append(exps, all[i])
	}
	if r.rng == nil {
		return exps
	}
	class := func(id string) int {
		if c, ok := campaignClass[id]; ok {
			return c
		}
		return campaignSmallClass
	}
	sort.SliceStable(exps, func(i, j int) bool { return class(exps[i].ID) < class(exps[j].ID) })
	return exps
}

func runCampaign(r *rep, all []expt.Experiment, ref map[string]string) {
	runner := &expt.Runner{
		Jobs: 2,
		Opts: expt.Options{Short: true},
		// Calls are serialized by the Runner and end before Run returns.
		OnComplete: func(_ int, s expt.Status) {
			end := time.Now()
			r.tr.add(s.Experiment.ID, r.span, end.Add(-s.Wall), end)
			name := "expt.other_s"
			if campaignTimed[s.Experiment.ID] {
				name = "expt." + s.Experiment.ID + "_s"
			}
			r.layer[name] += s.Wall.Seconds()
		},
	}
	for _, s := range runner.Run(campaignOrder(r, all)) {
		r.op(s.Experiment.ID, func() error { return matchStatus(&s, ref[s.Experiment.ID]) })
	}
}

// --- S3D cells: petascale and halo -----------------------------------------

// s3dCell is one S3D run the benchmark times: the system it builds, the
// fast path it requests (none for a reference run), and the proxy input.
type s3dCell struct {
	name       string
	m          machine.Machine
	mode       machine.Mode
	tasks      int
	enableName string
	enable     func(*core.System)
	bench      s3d.Benchmark
}

// run builds the cell's system and runs S3D on it, with a span around each
// call into xtsim, and returns the simulated seconds per step.
func (c s3dCell) run(r *rep) float64 {
	var got float64
	d := r.timed(c.name, r.span, func(id int) {
		var sys *core.System
		r.layer["core.new_system_s"] += r.timed("NewSystem", id, func(int) {
			sys = core.NewSystem(c.m, c.mode, c.tasks)
		}).Seconds()
		if c.enable != nil {
			r.timed(c.enableName, id, func(int) { c.enable(sys) })
		}
		r.timed("RunOn", id, func(int) { got = s3d.RunOn(sys, c.bench).SecondsPerStep })
		r.layer["network.msgs"] += float64(sys.Fabric.MsgsDelivered)
		r.layer["network.bytes"] += float64(sys.Fabric.BytesDelivered)
		r.layer["network.foreign_hops"] += float64(sys.ParallelForeignHops())
	})
	r.layer[c.name+"_s"] += d.Seconds()
	return got
}

// checkCell runs a cell as one checked operation against its reference.
func (r *rep) checkCell(c s3dCell, want float64) {
	r.op(c.name, func() error {
		if got := c.run(r); got != want {
			return fmt.Errorf("s/step %.17g, reference %.17g", got, want)
		}
		return nil
	})
}

// petaCell is one of ext-petascale's full-scale cells
// (internal/expt/petascale.go): strong scaling of a fixed global grid on
// the full XT4.
type petaCell struct {
	tasks int
	mode  machine.Mode
	tier  core.HybridTier
	edge  int
}

var petaCells = []petaCell{
	{1728, machine.SN, core.HybridExact, 120},
	{4096, machine.SN, core.HybridExact, 90},
	{11232, machine.SN, core.HybridExact, 64},
	{23016, machine.VN, core.HybridAnalytic, 51},
}

// cell is the petascale cell on the hybrid fast path, or on the DES when
// hybrid is false (the reference -update compares the exact tier with).
func (p petaCell) cell(hybrid bool) s3dCell {
	m := machine.XT4Full()
	b := s3d.Weak50()
	b.PointsPerEdge = p.edge
	if p.mode == machine.SN {
		// Pin the task grid to the torus, as ext-petascale does, so the
		// exact tier admits by construction.
		tor := m.TorusFor(p.tasks)
		b.Grid = [3]int{tor.NX, tor.NY, tor.NZ}
	}
	c := s3dCell{name: "petascale.cell_" + strconv.Itoa(p.tasks), m: m, mode: p.mode, tasks: p.tasks, bench: b}
	if hybrid {
		c.enableName = "EnableHybrid"
		c.enable = func(s *core.System) { s.EnableHybrid(p.tier) }
	}
	return c
}

func loadPetascale(root string) (func(*rep), error) {
	ref, err := readRef(filepath.Join(root, petascaleRef))
	if err != nil {
		return nil, err
	}
	for _, p := range petaCells {
		if _, ok := ref[p.tasks]; !ok {
			return nil, fmt.Errorf("%s has no value for %d tasks", petascaleRef, p.tasks)
		}
	}
	return func(r *rep) {
		for _, i := range r.order(len(petaCells)) {
			p := petaCells[i]
			r.checkCell(p.cell(true), ref[p.tasks])
		}
	}, nil
}

// haloTasks is the halo cell's size: S3D's weak-scaling input, SN, on the
// 4096-node XT4 partition, for two steps.
const haloTasks = 4096

// haloCell is the halo cell on two sharded engine domains, or on the
// serial engine when sharded is false.
func haloCell(sharded bool) s3dCell {
	b := s3d.Weak50()
	b.Steps = 2
	c := s3dCell{name: "halo.cell", m: machine.XT4(), mode: machine.SN, tasks: haloTasks, bench: b}
	if sharded {
		c.enableName = "EnableParallel"
		c.enable = func(s *core.System) { s.EnableParallel(2) }
	}
	return c
}

func loadHalo(root string) (func(*rep), error) {
	ref, err := readRef(filepath.Join(root, haloRef))
	if err != nil {
		return nil, err
	}
	want, ok := ref[haloTasks]
	if !ok {
		return nil, fmt.Errorf("%s has no value for %d tasks", haloRef, haloTasks)
	}
	return func(r *rep) { r.checkCell(haloCell(true), want) }, nil
}

// --- extensions: the observer and I/O experiments at full scale ----------

var extensionIDs = map[string]bool{"ext-ckpt": true, "ext-io": true, "ext-timeline": true, "critpath": true, "congestion": true}

// extensionOpts turns every observer on, so their JSON exports are rendered.
var extensionOpts = expt.Options{Telemetry: true, CritPath: true, Timeline: true}

// extensionExpts returns the extension experiments in registry order.
func extensionExpts() []expt.Experiment {
	var out []expt.Experiment
	for _, e := range expt.All() {
		if extensionIDs[e.ID] {
			out = append(out, e)
		}
	}
	return out
}

func loadExtensions(root string) (func(*rep), error) {
	exps := extensionExpts()
	ref, err := readSections(filepath.Join(root, extensionsGolden), exps)
	if err != nil {
		return nil, err
	}
	return func(r *rep) {
		for _, i := range r.order(len(exps)) {
			e := exps[i]
			r.op(e.ID, func() error {
				s := runExtension(r, e)
				return matchStatus(&s, ref[e.ID])
			})
		}
	}, nil
}

// runExtension executes one extension experiment inside a span.
func runExtension(r *rep, e expt.Experiment) expt.Status {
	s := expt.Status{Experiment: e}
	s.Wall = r.timed(e.ID, r.span, func(id int) {
		r.timed("Execute", id, func(int) { s.Result, s.Err = e.Execute(extensionOpts) })
	})
	r.layer["expt."+e.ID+"_s"] += s.Wall.Seconds()
	if s.Result != nil {
		for _, a := range s.Result.Attachments {
			r.layer["expt.attachment_bytes"] += float64(len(a.JSON))
		}
	}
	return s
}
