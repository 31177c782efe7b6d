package expt

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func renderExpt(t *testing.T, id string, o Options) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// renderBudget renders one experiment the way a lone `xtsim -run id
// -jobs jobs` does: the Runner lends its idle slots to the sweep cells.
func renderBudget(t *testing.T, id string, o Options, jobs int) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	st := (&Runner{Jobs: jobs, Opts: o}).Run([]Experiment{e})[0]
	if st.Err != nil {
		t.Fatalf("%s: %v", id, st.Err)
	}
	var buf bytes.Buffer
	if err := st.Result.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestShardsOutputByteIdentical pins the worker-budget contract on
// experiments spanning every cell path — sweeps of independent systems
// (fig9, fig11), observers whose admission rows keep each cell serial
// (congestion, ext-io, ext-ckpt), and fixed-domain sharded runs
// (ext-parallel): a lone experiment whose cells are sharded over the
// Runner's three idle slots renders byte-identically to Execute, which
// runs its cells one at a time.
func TestShardsOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six experiments twice")
	}
	for _, id := range []string{"fig9", "fig11", "congestion", "ext-parallel", "ext-io", "ext-ckpt"} {
		serial := renderExpt(t, id, Options{Short: true})
		budget := renderBudget(t, id, Options{Short: true}, 4)
		if serial != budget {
			t.Errorf("%s: rendered output differs between Execute and -jobs 4:\n--- Execute ---\n%s--- jobs=4 ---\n%s", id, serial, budget)
		}
	}
}

// TestShardsRunTwiceDeterministic pins run-to-run determinism of the full
// experiment path with its cells sharded over a four-slot budget.
func TestShardsRunTwiceDeterministic(t *testing.T) {
	a := renderBudget(t, "ext-parallel", Options{Short: true}, 4)
	b := renderBudget(t, "ext-parallel", Options{Short: true}, 4)
	if a != b {
		t.Fatalf("two identical -jobs 4 runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// cellProbe tracks how many sweep cells run at once. Each cell waits,
// before it finishes, until the peak reaches want, so cells that are
// allowed to overlap do, and then yields the processor a while so cells
// that are not allowed to overlap would: the test waits on events, never
// on sleeps.
type cellProbe struct {
	t       *testing.T
	want    int
	reached chan struct{}

	mu            sync.Mutex
	running, peak int
}

func newCellProbe(t *testing.T, want int) *cellProbe {
	return &cellProbe{t: t, want: want, reached: make(chan struct{})}
}

func (p *cellProbe) cell() {
	p.mu.Lock()
	p.running++
	if p.running > p.peak {
		p.peak = p.running
		if p.peak == p.want {
			close(p.reached)
		}
	}
	p.mu.Unlock()
	select {
	case <-p.reached:
	case <-time.After(10 * time.Second):
		p.t.Errorf("cells never reached %d at once", p.want)
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	p.mu.Lock()
	p.running--
	p.mu.Unlock()
}

// sweep is a synthetic experiment of n independent cells.
func sweep(id string, n int, cell func(i int)) Experiment {
	return Experiment{ID: id, Artifact: "Fake", Title: id, Run: func(res *Result, _ Options) error {
		runCells(res, n, cell)
		return nil
	}}
}

// TestWorkerBudget pins the one worker budget: experiments and their sweep
// cells together never occupy more than Runner.Jobs workers, a lone
// experiment borrows the idle slots, Execute runs cells one at a time, and
// a panicking cell fails only its own experiment and returns its slot.
func TestWorkerBudget(t *testing.T) {
	probed := func(p *cellProbe) func(int) { return func(int) { p.cell() } }

	t.Run("two experiments share two slots", func(t *testing.T) {
		p := newCellProbe(t, 2)
		(&Runner{Jobs: 2}).Run([]Experiment{sweep("a", 4, probed(p)), sweep("b", 4, probed(p))})
		if p.peak != 2 {
			t.Errorf("peak %d cells at once under -jobs 2, want 2", p.peak)
		}
	})

	t.Run("a lone experiment borrows the idle slot", func(t *testing.T) {
		p := newCellProbe(t, 2)
		(&Runner{Jobs: 2}).Run([]Experiment{sweep("a", 4, probed(p))})
		if p.peak != 2 {
			t.Errorf("peak %d cells at once for a lone experiment under -jobs 2, want 2", p.peak)
		}
	})

	t.Run("Execute runs cells one at a time", func(t *testing.T) {
		p := newCellProbe(t, 1)
		if _, err := sweep("a", 4, probed(p)).Execute(Options{}); err != nil {
			t.Fatal(err)
		}
		if p.peak != 1 {
			t.Errorf("peak %d cells at once under Execute, want 1", p.peak)
		}
	})

	t.Run("a panicking cell returns its slot", func(t *testing.T) {
		// "boom" borrows at least one idle slot, and every one of its
		// cells panics, its helpers' included. "next" waits for boom to
		// finish before it sweeps, so it runs three cells at once only if
		// every slot boom and its helpers held has come back.
		boomDone := make(chan struct{})
		pb, pn := newCellProbe(t, 2), newCellProbe(t, 3)
		boom := sweep("boom", 4, func(i int) {
			pb.cell()
			panic(fmt.Sprintf("cell %d", i))
		})
		next := sweep("next", 4, probed(pn))
		run := next.Run
		next.Run = func(res *Result, o Options) error {
			<-boomDone
			return run(res, o)
		}
		r := &Runner{Jobs: 3, OnComplete: func(i int, _ Status) {
			if i == 0 {
				close(boomDone)
			}
		}}
		st := r.Run([]Experiment{boom, next})
		if err := st[0].Err; err == nil || err.Error() != "panic: cell 0" {
			t.Errorf("boom: err %v, want the lowest cell's panic", err)
		}
		if st[1].Err != nil {
			t.Errorf("next: %v", st[1].Err)
		}
		if pn.peak != 3 {
			t.Errorf("next ran %d cells at once after boom, want 3", pn.peak)
		}
	})
}

// TestExtParallelReportsEquivalence pins the experiment's own equivalence
// assertion: the sharded rows must say "identical" with zero foreign hops.
func TestExtParallelReportsEquivalence(t *testing.T) {
	out := renderExpt(t, "ext-parallel", Options{Short: true})
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("ext-parallel reports divergence:\n%s", out)
	}
	if strings.Contains(out, "declined") {
		t.Fatalf("ext-parallel admission declined:\n%s", out)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("ext-parallel did not confirm equivalence:\n%s", out)
	}
}
