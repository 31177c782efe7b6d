package expt

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"table1"}
	for i := 1; i <= 23; i++ {
		want = append(want, "fig"+itoa(i))
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment for %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig8")
	if err != nil || e.Artifact != "Figure 8" {
		t.Fatalf("ByID(fig8) = %+v, %v", e, err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestByIDErrorText(t *testing.T) {
	_, err := ByID("fig99")
	if err == nil {
		t.Fatal("want error for unknown id")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown experiment "fig99"`) {
		t.Errorf("error should name the unknown id: %q", msg)
	}
	// The error lists the valid ids so a typo is self-diagnosing.
	for _, id := range []string{"table1", "fig8", "ablation-vn"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error should list valid id %q: %q", id, msg)
		}
	}
}

// shortCampaign runs the registry's -short campaign at -jobs 1, once per
// test binary, and returns its rendered output and statuses. The
// per-experiment checks and the -jobs comparison share this run.
var shortCampaign = sync.OnceValues(func() (string, []Status) {
	var out bytes.Buffer
	statuses := (&Runner{Jobs: 1, Opts: Options{Short: true}, Output: &out}).Run(All())
	return out.String(), statuses
})

// TestEveryExperimentRunsShort is the whole-system integration test: every
// registered experiment (every table, figure and ablation) must execute at
// reduced scale and render a non-empty table.
func TestEveryExperimentRunsShort(t *testing.T) {
	if testing.Short() {
		// Even reduced scale is minutes on a 1-CPU box; this is the
		// integration test for the full run.
		t.Skip("integration sweep runs in full mode")
	}
	_, statuses := shortCampaign()
	for _, s := range statuses {
		s := s
		t.Run(s.Experiment.ID, func(t *testing.T) {
			if s.Err != nil {
				t.Fatalf("%s failed: %v", s.Experiment.ID, s.Err)
			}
			res := s.Result
			if len(res.Blocks) == 0 {
				t.Fatalf("%s produced no blocks", s.Experiment.ID)
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", s.Experiment.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", s.Experiment.ID)
			}
			// Every output should have at least a header and one data row.
			if lines := strings.Count(buf.String(), "\n"); lines < 2 {
				t.Fatalf("%s output too short:\n%s", s.Experiment.ID, buf.String())
			}
		})
	}
}

// TestCampaignOutputIdenticalAcrossJobs is the real-registry determinism
// guarantee: `xtsim -run all -short` renders byte-identical output at any
// worker count.
func TestCampaignOutputIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry campaign comparison runs in full mode")
	}
	seq, _ := shortCampaign()
	var par bytes.Buffer
	(&Runner{Jobs: 8, Opts: Options{Short: true}, Output: &par}).Run(All())
	if seq != par.String() {
		t.Fatalf("campaign output differs between -jobs 1 (%d bytes) and -jobs 8 (%d bytes)",
			len(seq), par.Len())
	}
	if len(seq) == 0 {
		t.Fatal("campaign produced no output")
	}
}

func TestTable1Content(t *testing.T) {
	e, _ := ByID("table1")
	res, err := e.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DDR2-667", "SeaStar2", "12592", "5212", "2.20GB/s", "10.60GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestResultTableRender(t *testing.T) {
	var res Result
	tab := res.Table()
	tab.Row("a", "b")
	tab.Row("long-cell", "x")
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "long-cell") || strings.Count(out, "\n") != 2 {
		t.Fatalf("formatter output:\n%q", out)
	}
}

func TestResultTextMergesConsecutiveLines(t *testing.T) {
	var res Result
	res.Textf("one %d\n", 1)
	res.Textln("two")
	if len(res.Blocks) != 1 {
		t.Fatalf("consecutive text should merge into one block, got %d", len(res.Blocks))
	}
	if got := res.Blocks[0].Text; got != "one 1\ntwo\n" {
		t.Fatalf("merged text = %q", got)
	}
	res.Table().Row("x")
	res.Textln("three")
	if len(res.Blocks) != 3 {
		t.Fatalf("table should split text blocks, got %d blocks", len(res.Blocks))
	}
}
