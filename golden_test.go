package xtsim_test

import (
	"bytes"
	"os"
	"testing"

	"xtsim/internal/expt"
)

// TestCampaignOutputMatchesGolden locks the rendered short-scale campaign —
// what `go run ./cmd/xtsim -run all -short` prints on stdout — to the
// committed experiments_output.txt. Any model or engine change that shifts
// a table value fails here first, with the diff location. The Runner gets
// 8 workers whatever the host's core count, so experiments and their sweep
// cells always run concurrently here; TestExperimentsDeterministic renders
// the same file one experiment at a time.
//
// To regenerate after an intentional change:
//
//	go run ./cmd/xtsim -run all -short > experiments_output.txt
func TestCampaignOutputMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full short-scale campaign; skipped in -short")
	}
	var buf bytes.Buffer
	r := &expt.Runner{
		Jobs:   8,
		Opts:   expt.Options{Short: true},
		Output: &buf,
	}
	statuses := r.Run(expt.All())
	if failed := expt.Failed(statuses); len(failed) > 0 {
		for _, s := range failed {
			t.Errorf("%s failed: %v", s.Experiment.ID, s.Err)
		}
		t.Fatal("campaign had failures; golden comparison skipped")
	}
	matchGolden(t, buf.Bytes())
}

// matchGolden fails t unless got equals experiments_output.txt, naming the
// first line that differs and how to regenerate the file.
func matchGolden(t *testing.T, got []byte) {
	t.Helper()
	want, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("campaign output diverges from experiments_output.txt at line %d:\n got: %q\nwant: %q\n(regenerate with: go run ./cmd/xtsim -run all -short > experiments_output.txt)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("campaign output length differs: got %d lines, golden %d lines\n(regenerate with: go run ./cmd/xtsim -run all -short > experiments_output.txt)",
		len(gotLines), len(wantLines))
}
