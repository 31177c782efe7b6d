// Package expt is the experiment-campaign layer: every table and figure of
// the paper (and each ablation from DESIGN.md) is an Experiment that runs
// the simulator and produces a structured Result. The registry is shared by
// cmd/xtsim, the top-level benchmark suite, and EXPERIMENTS.md.
//
// # Campaign model
//
// An Experiment is a pure function from Options to a Result: a sequence of
// table and text blocks (see Result) plus optional simulated-time metrics.
// Experiments never write to stdout themselves; rendering is a separate,
// deterministic step (Result.Render), which is what lets a campaign run
// concurrently without scrambling its output. A campaign is a slice of
// experiments handed to a Runner, which executes them within one worker
// budget shared with their sweep cells (-jobs N in cmd/xtsim), recovers
// per-experiment panics, enforces an optional per-experiment timeout, and
// streams rendered results in registration order regardless of
// completion order.
//
// # Determinism guarantee
//
// The simulator underneath is deterministic, every experiment that needs
// randomness seeds its own rand.Source, and experiments share no mutable
// state — so a Result depends only on (Experiment, Options). The Runner
// preserves that property end to end: the rendered campaign output is
// byte-for-byte identical for any worker count (verified by
// TestCampaignOutputIdenticalAcrossJobs). Wall-clock metrics are the one
// nondeterministic output; they are confined to Status, the Progress
// stream, and the wall_seconds artifact field, never the rendered tables.
//
// # Registering a new experiment
//
// Add an init-time registration next to its peers (micro.go for HPCC-style
// figures, apps.go for application proxies, ablations.go / extensions.go
// for model studies):
//
//	func init() {
//		register(Experiment{
//			ID: "fig42", Artifact: "Figure 42", Title: "What it shows",
//			Run: runFig42,
//		})
//	}
//
//	func runFig42(res *Result, o Options) error {
//		t := res.Table()
//		t.Row("tasks", "XT4", "[metric]")
//		...
//		return nil
//	}
//
// The Run function appends blocks to res (Result.Table, Result.Textf) and
// must honour Options.Short by shrinking sweeps, not shapes. All sorts the
// registry into paper order (table1, fig1..figN, imb, ablations,
// extensions), which defines campaign output order.
package expt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Options tunes experiment scale. It is embedded verbatim in every JSON
// artifact, so a result file records the scale it was produced at.
type Options struct {
	// Short reduces task counts and sweep sizes for quick runs (used by
	// `go test -short` and `xtsim -short`). The shapes remain, the
	// extreme-scale points are dropped.
	Short bool `json:"short"`
	// Telemetry makes experiments that collect telemetry (the congestion
	// experiment) attach the full JSON export to their output; set by
	// `xtsim -telemetry`. The summary tables and heatmap appear either way.
	Telemetry bool `json:"telemetry"`
	// CritPath makes experiments that record causal event graphs (the
	// critpath experiment) attach the critical-path JSON exports; set by
	// `xtsim -critpath`. It composes with Telemetry — both exports can
	// ride on one run. The attribution tables appear either way.
	CritPath bool `json:"critpath"`
	// Hybrid selects the hybrid rank fast path (DESIGN.md §4i) on
	// ext-petascale's cells, the only experiment it reaches; set by
	// `xtsim -hybrid`. "" keeps each cell's tier (exact on the SN cells,
	// analytic on the VN cell), "off" runs only the DES reference,
	// "exact" requests the bit-identical tier on every cell (admission
	// declines it on the VN cell) and "analytic" the closed-form tier,
	// whose deviation column reports it. Every other experiment runs the
	// DES whatever the value.
	Hybrid string `json:"hybrid"`
	// CkptEvery overrides the checkpoint cadence (steps between checkpoint
	// epochs) of checkpoint-aware experiments (ext-ckpt), set by `xtsim
	// -ckpt-every`. 0 keeps each experiment's default cadence; experiments
	// without checkpoint phases ignore it.
	CkptEvery int `json:"ckpt_every"`
	// Timeline makes timeline-aware experiments (ext-timeline, fig9) record
	// the phase-resolved flight recorder (DESIGN.md §4k) and attach its JSON
	// export; set by `xtsim -timeline`. The summary tables appear either way.
	Timeline bool `json:"timeline"`
}

// Validate rejects option values outside the documented domain, so the CLI
// and the campaign server fail a bad request up front instead of running a
// misconfigured campaign (a mistyped hybrid tier silently meant
// "default").
func (o Options) Validate() error {
	switch o.Hybrid {
	case "", "off", "exact", "analytic":
	default:
		return fmt.Errorf("expt: unknown hybrid mode %q (want \"\", \"off\", \"exact\" or \"analytic\")", o.Hybrid)
	}
	if o.CkptEvery < 0 {
		return fmt.Errorf("expt: ckpt-every must be >= 0 (got %d)", o.CkptEvery)
	}
	return nil
}

// Experiment regenerates one artifact of the paper.
type Experiment struct {
	// ID is the command-line handle, e.g. "fig8".
	ID string
	// Artifact names the paper artifact, e.g. "Figure 8".
	Artifact string
	// Title is the artifact's caption.
	Title string
	// Run executes the experiment, appending its tables and notes to res.
	Run func(res *Result, opts Options) error
}

// Execute runs the experiment and returns its structured result. On error
// the partially-built result is returned alongside the error (its blocks
// are whatever the experiment produced before failing). Outside a Runner
// there is no worker budget to borrow, so sweep cells run one at a time.
func (e Experiment) Execute(opts Options) (*Result, error) {
	return e.execute(opts, nil)
}

// execute runs the experiment with runCells borrowing idle slots from
// budget, a Runner's worker budget (nil: none).
func (e Experiment) execute(opts Options, budget chan struct{}) (*Result, error) {
	res := &Result{ID: e.ID, Artifact: e.Artifact, Title: e.Title, budget: budget}
	err := e.Run(res, opts)
	return res, err
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment in paper order: Table 1, then
// Figures 1-23, then the IMB supplement, the ablations, and the
// extensions (the latter groups in registration order). This is campaign
// order: `xtsim -run all` renders artifacts in this sequence.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		return artifactRank(out[i].ID) < artifactRank(out[j].ID)
	})
	return out
}

// artifactRank orders experiment ids by the paper's artifact sequence.
func artifactRank(id string) int {
	switch {
	case id == "table1":
		return 0
	case strings.HasPrefix(id, "fig"):
		if n, err := strconv.Atoi(id[len("fig"):]); err == nil {
			return n
		}
		return 99
	case id == "imb":
		return 100
	case strings.HasPrefix(id, "ablation-"):
		return 200
	default: // extensions and future supplements
		return 300
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q (have %v)", id, ids)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// Header is the banner line above an experiment's rendered blocks; the
// Runner emits it so single-experiment render paths (the xtsim facade)
// stay banner-free, as before.
func (e Experiment) Header() string {
	return fmt.Sprintf("== %s: %s ==\n", e.Artifact, e.Title)
}
