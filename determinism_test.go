package xtsim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xtsim/internal/expt"
	"xtsim/internal/sim"
)

// TestExperimentsDeterministic executes every registered experiment twice at
// short scale and requires byte-identical rendered output AND an identical
// number of simulator events executed. The event count is the stronger
// check: a tie-break regression in the engine's event queue (or a stray map
// iteration feeding event order) can reorder work while leaving rounded
// table values untouched, and the free-list/heap rewrite in internal/sim is
// exactly the kind of change this guards against.
//
// Each experiment's events and window barriers must also equal its row in
// desWork, so an engine change that claims to leave the model alone cannot
// add or drop work unnoticed. On a mismatch the test prints the observed
// table; paste it over desWork after an intended model change.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped in -short")
	}
	want := make(map[string]desRow, len(desWork))
	for _, w := range desWork {
		want[w.id] = w
	}
	var observed strings.Builder
	stale := len(desWork) != len(expt.All())
	opts := expt.Options{Short: true}
	for _, e := range expt.All() {
		e := e
		// Subtests run sequentially, so the process-wide event and barrier
		// counters attribute their deltas to exactly one experiment
		// execution.
		t.Run(e.ID, func(t *testing.T) {
			run := func() (string, desRow, error) {
				events, barriers := sim.TotalEventsExecuted(), sim.TotalWindowBarriers()
				res, err := e.Execute(opts)
				work := desRow{e.ID, sim.TotalEventsExecuted() - events, sim.TotalWindowBarriers() - barriers}
				var buf bytes.Buffer
				if res != nil {
					if rerr := res.Render(&buf); rerr != nil {
						t.Fatal(rerr)
					}
				}
				return buf.String(), work, err
			}
			out1, work1, err1 := run()
			out2, work2, err2 := run()
			fmt.Fprintf(&observed, "\t{%q, %d, %d},\n", work1.id, work1.events, work1.barriers)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error nondeterminism: first %v, second %v", err1, err2)
			}
			if out1 != out2 {
				t.Fatalf("rendered output differs between identical runs\n--- first ---\n%s--- second ---\n%s", out1, out2)
			}
			if work1 != work2 {
				t.Fatalf("DES work differs between identical runs: %+v vs %+v", work1, work2)
			}
			if w := want[e.ID]; w != work1 {
				stale = true
				t.Errorf("DES work %+v, want %+v from desWork", work1, w)
			}
		})
	}
	if stale {
		t.Errorf("desWork does not match the registry; observed table:\n%s", observed.String())
	}
}
