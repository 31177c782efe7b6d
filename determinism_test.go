package xtsim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xtsim/internal/expt"
	"xtsim/internal/sim"
)

// TestExperimentsDeterministic executes every registered experiment once at
// short scale, outside any Runner, so each runs its sweep cells one at a
// time as at -jobs 1. Each must succeed and render blocks. Rendered the way
// the campaign renders a Status, the experiments must concatenate to
// experiments_output.txt, which TestCampaignOutputMatchesGolden reproduces
// with 8 workers: together the two pin -jobs 1 output to -jobs 8 output,
// and two runs of each experiment (one per test) to the same bytes.
//
// Each experiment's events and window barriers must also equal its row in
// desWork. The event count is the stronger check: a tie-break regression in
// the engine's event queue (or a stray map iteration feeding event order)
// can reorder work while leaving rounded table values untouched, and an
// engine change that claims to leave the model alone cannot add or drop
// work unnoticed. On a mismatch the test prints the observed table; paste
// it over desWork after an intended model change.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	want := make(map[string]desRow, len(desWork))
	for _, w := range desWork {
		want[w.id] = w
	}
	var observed strings.Builder
	var campaign bytes.Buffer
	ran := 0
	stale := len(desWork) != len(expt.All())
	opts := expt.Options{Short: true}
	for _, e := range expt.All() {
		e := e
		// Subtests run sequentially, so the process-wide event and barrier
		// counters attribute their deltas to exactly one experiment
		// execution.
		t.Run(e.ID, func(t *testing.T) {
			ran++
			events, barriers := sim.TotalEventsExecuted(), sim.TotalWindowBarriers()
			res, err := e.Execute(opts)
			work := desRow{e.ID, sim.TotalEventsExecuted() - events, sim.TotalWindowBarriers() - barriers}
			fmt.Fprintf(&observed, "\t{%q, %d, %d},\n", work.id, work.events, work.barriers)
			st := expt.Status{Experiment: e, Result: res, Err: err}
			if rerr := st.Render(&campaign); rerr != nil {
				t.Fatal(rerr)
			}
			if err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if len(res.Blocks) == 0 {
				t.Fatalf("%s produced no blocks", e.ID)
			}
			if w := want[e.ID]; w != work {
				stale = true
				t.Errorf("DES work %+v, want %+v from desWork", work, w)
			}
		})
	}
	if stale {
		t.Errorf("desWork does not match the registry; observed table:\n%s", observed.String())
	}
	if ran == len(expt.All()) { // not narrowed by -run
		matchGolden(t, campaign.Bytes())
	}
}
