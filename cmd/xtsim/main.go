// Command xtsim runs the paper-reproduction experiments: every table and
// figure of "Cray XT4: An Early Evaluation for Petascale Scientific
// Simulation" (SC'07), plus the model ablations.
//
// Usage:
//
//	xtsim -list                      list available experiments
//	xtsim -run fig8                  regenerate Figure 8
//	xtsim -run all                   regenerate everything
//	xtsim -run all -jobs 8           campaign on 8 workers (same output)
//	xtsim -run ext-petascale -jobs 1 fully serial: one system at a time
//	xtsim -run all -short -json out/ quick run + one JSON artifact per id
//	xtsim -run fig17 -timeout 5m     bound each experiment's wall time
//	xtsim -run congestion -telemetry include the telemetry JSON export
//	xtsim -run critpath -critpath    include the critical-path JSON exports
//	xtsim -run ext-petascale         full-machine S3D on the hybrid fast path
//	xtsim -run ext-petascale -hybrid analytic  closed-form hybrid tier on
//	                                 every cell (the table reports its error)
//	xtsim -run ext-ckpt -ckpt-every 2  checkpoint-interference study at a
//	                                 different epoch cadence
//	xtsim -run ext-timeline -timeline  phase-resolved flight recorder with
//	                                 the timeline JSON export attached
//	xtsim -serve 127.0.0.1:8973      run as a campaign server (see API.md)
//
// Rendered tables go to stdout in registration (paper) order regardless of
// -jobs; timing/progress lines and the failure summary go to stderr. With
// -run all a failing experiment no longer aborts the campaign: the rest
// still run, failures are summarized at the end, and the exit code is 1.
//
// With -serve the process becomes a long-running HTTP/JSON campaign
// service instead of a one-shot CLI: campaigns are submitted per request,
// results are memoized in an LRU keyed by (experiment, options, code
// version), and a bounded admission queue sheds load with 429 when full.
// -jobs and -timeout keep their meanings (within-campaign worker budget,
// per-experiment wall-clock bound); -cache and -queue size the memo cache
// and the admission queue. API.md is the endpoint reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xtsim/internal/expt"
	"xtsim/internal/serve"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "experiment id to run (or 'all')")
	short := flag.Bool("short", false, "reduced-scale quick run")
	jobs := flag.Int("jobs", runtime.NumCPU(), "worker budget: experiments and their sweep cells running at once (output is unaffected; peak memory grows with it)")
	jsonDir := flag.String("json", "", "write one JSON artifact per experiment into this directory")
	timeout := flag.Duration("timeout", 0, "per-experiment wall-clock timeout (0 = none)")
	tel := flag.Bool("telemetry", false, "attach the telemetry JSON export to experiments that collect it (e.g. congestion)")
	cp := flag.Bool("critpath", false, "attach the critical-path JSON exports to experiments that record causal graphs (e.g. critpath)")
	hybrid := flag.String("hybrid", "", "hybrid rank fast path for ext-petascale's cells, the only experiment it reaches: 'exact' requests the bit-identical tier on every cell, 'analytic' the closed-form tier, 'off' runs only the event-driven reference, empty keeps each cell's tier")
	ckptEvery := flag.Int("ckpt-every", 0, "checkpoint cadence in steps for checkpoint-aware experiments (ext-ckpt); 0 keeps each experiment's default")
	tline := flag.Bool("timeline", false, "attach the phase-resolved timeline JSON export to experiments that record it (e.g. ext-timeline)")
	serveAddr := flag.String("serve", "", "run as a campaign server on this address (e.g. 127.0.0.1:8973); see API.md")
	cacheN := flag.Int("cache", 512, "with -serve: max memoized experiment results held in the LRU cache")
	queueN := flag.Int("queue", 16, "with -serve: max queued campaigns before submissions get 429")
	flag.Parse()

	if *serveAddr != "" {
		srv := serve.New(serve.Config{
			CacheEntries: *cacheN,
			QueueDepth:   *queueN,
			ExptJobs:     *jobs,
			Timeout:      *timeout,
		})
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "xtsim: serving campaigns on http://%s/api/v1 (cache %d entries, queue %d, %d jobs/campaign)\n",
			*serveAddr, *cacheN, *queueN, *jobs)
		if err := http.ListenAndServe(*serveAddr, srv.Handler()); err != nil {
			fmt.Fprintln(os.Stderr, "xtsim:", err)
			os.Exit(1)
		}
		return
	}

	var exps []expt.Experiment
	switch {
	case *list:
		fmt.Println("Available experiments:")
		for _, e := range expt.All() {
			fmt.Printf("  %-18s %s: %s\n", e.ID, e.Artifact, e.Title)
		}
		return
	case *run == "all":
		exps = expt.All()
	case *run != "":
		e, err := expt.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, "xtsim:", err)
			os.Exit(1)
		}
		exps = []expt.Experiment{e}
	default:
		flag.Usage()
		os.Exit(2)
	}

	opts := expt.Options{Short: *short, Telemetry: *tel, CritPath: *cp, Hybrid: *hybrid, CkptEvery: *ckptEvery, Timeline: *tline}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "xtsim:", err)
		flag.Usage()
		os.Exit(2)
	}
	runner := &expt.Runner{
		Jobs:     *jobs,
		Opts:     opts,
		Timeout:  *timeout,
		Output:   os.Stdout,
		Progress: os.Stderr,
	}
	statuses := runner.Run(exps)

	if *jsonDir != "" {
		if err := writeArtifacts(*jsonDir, statuses, opts); err != nil {
			fmt.Fprintln(os.Stderr, "xtsim:", err)
			os.Exit(1)
		}
	}

	if failed := expt.Failed(statuses); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "xtsim: %d of %d experiments failed:\n", len(failed), len(statuses))
		for _, s := range failed {
			fmt.Fprintf(os.Stderr, "  %-18s %v\n", s.Experiment.ID, s.Err)
		}
		os.Exit(1)
	}
}

// writeArtifacts stores one machine-readable result file per experiment as
// <dir>/<id>.json (see EXPERIMENTS.md for the schema).
func writeArtifacts(dir string, statuses []expt.Status, opts expt.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	for _, s := range statuses {
		buf, err := json.MarshalIndent(s.Artifact(opts), "", "  ")
		if err != nil {
			return fmt.Errorf("marshal %s: %w", s.Experiment.ID, err)
		}
		path := filepath.Join(dir, s.Experiment.ID+".json")
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "xtsim: wrote %d artifacts to %s in %v\n",
		len(statuses), dir, time.Since(start).Round(time.Millisecond))
	return nil
}
