package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xtsim/internal/expt"
	"xtsim/internal/machine"
)

func mustExpt(t *testing.T, id string) expt.Experiment {
	t.Helper()
	e, err := expt.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSplitSections(t *testing.T) {
	a, b := mustExpt(t, "fig2"), mustExpt(t, "fig3")
	text := a.Header() + "alpha\n\n" + b.Header() + "beta\n\n"
	got, err := splitSections(text, []expt.Experiment{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got["fig2"] != a.Header()+"alpha\n\n" || got["fig3"] != b.Header()+"beta\n\n" {
		t.Errorf("sections = %q", got)
	}
	for name, bad := range map[string]string{
		"missing section": a.Header() + "alpha\n",
		"out of order":    b.Header() + "beta\n" + a.Header() + "alpha\n",
		"preamble":        "junk\n" + text,
	} {
		if _, err := splitSections(bad, []expt.Experiment{a, b}); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// The campaign reference splits into all registered experiments.
func TestCampaignReferenceSplits(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	all := expt.All()
	ref, err := readSections(filepath.Join(root, "experiments_output.txt"), all)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(all) {
		t.Errorf("%d sections for %d experiments", len(ref), len(all))
	}
}

func TestReadRef(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ref")
	text := formatRef("test cells", []int{8, 64}, []float64{0.1, 1.0 / 3})
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readRef(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[8] != 0.1 || got[64] != 1.0/3 || len(got) != 2 {
		t.Errorf("readRef = %v", got)
	}
	if err := os.WriteFile(path, []byte("8 0.1 extra\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRef(path); err == nil {
		t.Error("malformed line: no error")
	}
}

// A corrupted reference must fail the op, mark the run incorrect and make
// the process exit non-zero.
func TestCorruptedReferenceFails(t *testing.T) {
	fig2 := mustExpt(t, "fig2")
	cell := s3dCell{name: "tiny", m: machine.XT4(), mode: machine.SN, tasks: 8, bench: haloCell(false).bench}
	var good float64
	{
		r := &rep{tr: newTracer(), layer: map[string]float64{}}
		good = cell.run(r)
	}
	var section strings.Builder
	{
		st := expt.Status{Experiment: fig2}
		st.Result, st.Err = fig2.Execute(expt.Options{Short: true})
		if err := st.Render(&section); err != nil {
			t.Fatal(err)
		}
	}
	corrupted := strings.Replace(section.String(), "XT4", "XT9", 1)
	panicking := cell
	panicking.tasks = 0 // core.NewSystem panics
	cases := []struct {
		name     string
		run      func(r *rep)
		wantFail bool
	}{
		{"campaign section intact", func(r *rep) {
			runCampaign(r, []expt.Experiment{fig2}, map[string]string{"fig2": section.String()})
		}, false},
		{"campaign section corrupted", func(r *rep) {
			runCampaign(r, []expt.Experiment{fig2}, map[string]string{"fig2": corrupted})
		}, true},
		{"cell s/step intact", func(r *rep) { r.checkCell(cell, good) }, false},
		{"cell s/step corrupted", func(r *rep) { r.checkCell(cell, good*1.0000001) }, true},
		{"panicking cell", func(r *rep) { r.checkCell(panicking, good) }, true},
	}
	for _, c := range cases {
		r := &rep{tr: newTracer(), layer: map[string]float64{}}
		r.span = r.tr.begin("rep", -1)
		c.run(r)
		res := &result{attempted: r.attempted, failed: r.failed}
		if got := res.failed > 0; got != c.wantFail || res.attempted != 1 {
			t.Errorf("%s: failed %d of %d", c.name, res.failed, res.attempted)
		}
		if got := res.exitCode() != 0; got != c.wantFail {
			t.Errorf("%s: exit code %d", c.name, res.exitCode())
		}
		line, err := res.json()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(line, `"correct":false`); got != c.wantFail {
			t.Errorf("%s: result line %s", c.name, line)
		}
	}
}
