package expt

import (
	"sync"
	"sync/atomic"

	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// Campaign-cell parallelism (DESIGN.md §4h): many experiments are sweeps
// of mutually independent systems — every cell builds its own core.System,
// so cells share no mutable state (the property the concurrent Runner
// already relies on). runCells evaluates them within the campaign's
// worker budget and assembles results by index, which keeps the rendered
// output byte-identical to the serial sweep for any budget.

// runCells invokes run(0..n-1) on the calling goroutine plus one helper
// per idle slot of res's worker budget it can take without blocking (none
// outside a Runner). A helper returns its slot when the cells run out.
// run must write its result into caller-owned, index-disjoint storage. A
// panic in a cell is re-raised on the calling goroutine once every cell
// has finished; of several, the lowest-indexed one wins, as in a serial
// sweep.
func runCells(res *Result, n int, run func(int)) {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		first    = n
		panicked any
		wg       sync.WaitGroup
	)
	cells := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			func() {
				defer func() {
					if p := recover(); p != nil {
						mu.Lock()
						if i < first {
							first, panicked = i, p
						}
						mu.Unlock()
					}
				}()
				run(i)
			}()
		}
	}
	for h := 1; h < n && takeIdle(res.budget); h++ {
		wg.Add(1)
		go func() {
			defer func() { <-res.budget; wg.Done() }()
			cells()
		}()
	}
	cells()
	wg.Wait()
	if first < n {
		panic(panicked)
	}
}

// takeIdle occupies an idle slot of budget without blocking and reports
// whether there was one; a nil budget has none.
func takeIdle(budget chan struct{}) bool {
	select {
	case budget <- struct{}{}:
		return true
	default:
		return false
	}
}

// The ext-parallel experiment is the sharded discrete-event scheduler's
// showcase and its standing regression: the S3D ghost-exchange proxy in SN
// placement is pure nearest-neighbour traffic on a rank grid that matches
// the torus numbering, so every run lands in the byte-identical
// equivalence class (zero foreign hops) and the table can assert exact
// agreement between the serial engine and 2- and 4-domain sharded runs.
// Wall-clock speedup is deliberately absent from the table (it is the one
// nondeterministic output; xtbench's halo workload measures it).

func init() {
	register(Experiment{
		ID: "ext-parallel", Artifact: "Extension",
		Title: "Sharded-scheduler equivalence on S3D ghost exchange (serial vs 2/4 domains)",
		Run:   runExtParallel,
	})
}

func runExtParallel(res *Result, o Options) error {
	tasks := 512
	if o.Short {
		tasks = 64
	}
	b := s3d.Weak50()

	type cell struct {
		shards  int
		usPoint float64
		seconds float64
		foreign uint64
		windows uint64
		events  uint64
		reason  string
	}
	cells := []cell{{shards: 0}, {shards: 2}, {shards: 4}}
	runCells(res, len(cells), func(i int) {
		c := &cells[i]
		sys := core.NewSystem(machine.XT4(), machine.SN, tasks)
		if c.shards > 0 {
			if !sys.EnableParallel(c.shards) {
				c.reason = sys.ParallelReason()
				return
			}
		}
		r := s3d.RunOn(sys, b)
		if c.shards > 0 && !sys.ParallelEnabled() {
			c.reason = "fell back: " + sys.ParallelReason()
			return
		}
		c.usPoint = r.CostPerPointUS
		c.seconds = r.SecondsPerStep
		c.foreign = sys.ParallelForeignHops()
		if stats := sys.ParallelStats(); stats != nil {
			for _, d := range stats {
				c.windows += d.Windows
				c.events += d.Events
			}
		} else {
			c.events = sys.Eng.EventsExecuted
		}
		if rep := sys.ParallelTelemetry(); rep != nil && o.Telemetry && c.shards == 4 {
			res.Attach("parallel", "4-domain S3D run", rep.StripWallClock().WriteJSON)
		}
	})

	serial := cells[0]
	res.Textf("S3D weak scaling (%d³ points/task), %d tasks SN, one RK step (six ghost exchanges + filter):\n",
		b.PointsPerEdge, tasks)
	t := res.Table()
	t.Row("domains", "µs/point", "makespan (s)", "vs serial", "foreign hops", "windows", "events")
	for _, c := range cells {
		if c.reason != "" {
			t.Row(itoa(c.shards), "-", "-", "declined: "+c.reason, "-", "-", "-")
			continue
		}
		label := "serial"
		match := "-"
		windows := "-"
		if c.shards > 0 {
			label = itoa(c.shards)
			windows = itoa(int(c.windows))
			if c.seconds == serial.seconds {
				match = "identical"
			} else {
				match = "DIVERGED"
			}
		}
		res.AddSimSeconds(c.seconds)
		t.Row(label, f2(c.usPoint), f4(c.seconds), match, itoa(int(c.foreign)), windows, itoa(int(c.events)))
	}
	res.Textln("(Identical makespans with zero foreign hops: the sharded scheduler reserved every resource exactly as the serial engine. Conservative time windows, lookahead = send + hop + receive overhead; DESIGN.md §4h.)")
	return nil
}
