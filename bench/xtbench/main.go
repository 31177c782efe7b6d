// Command xtbench is xtsim's benchmark. It runs one workload in a
// fresh child process, checks every output against a stored reference, and
// prints each metric by name with its unit, sample count and quartiles. The
// last line of standard output is one JSON result object.
//
// Usage, from the root of an xtsim checkout:
//
//	xtbench -workload campaign -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	xtbench -workload halo -seed 1 -seconds 20 -trace 1       per-layer metrics and the CPU cost card
//	xtbench -update                                           regenerate bench/testdata
//	xtbench compare parent.txt change.txt                     judge a change against its parent
//
// bench/README.md describes the workloads, the metrics and the layer each
// per-layer metric belongs to.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// setupProbes is how many children start, set up and exit before the
// measured child, so setup_s is a median rather than one exec.
const setupProbes = 9

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("xtbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: campaign, petascale, halo or extensions")
	seed := fs.Int64("seed", 0, "order seed: 0 keeps registry and cell order, above 0 shuffles independent units")
	seconds := fs.Float64("seconds", 25, "measure for this many seconds (at least one repetition)")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced child and prints the per-layer metrics")
	update := fs.Bool("update", false, "regenerate the references in bench/testdata and exit")
	child := fs.String("child", "", "internal: run as a workload child (probe, run or trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		return 2
	}
	if *update {
		if err := updateRefs(root); err != nil {
			fmt.Fprintln(os.Stderr, "xtbench: update:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "xtbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "xtbench: -trace must be 0 or 1 (got %d)\n", *trace)
		return 2
	}
	if *child != "" {
		return childMain(root, w, *child, *seed, *seconds)
	}
	res, err := drive(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		return 1
	}
	fmt.Printf("xtbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d %s\n",
		w.name, *seed, *seconds, *trace, childProcs(), runtime.NumCPU(), runtime.Version())
	printTable(os.Stdout, res)
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		return 1
	}
	fmt.Println(line)
	return res.exitCode()
}

// findRoot walks up from the working directory to the xtsim module root,
// which holds the references the workloads check against.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module xtsim\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside an xtsim checkout (no go.mod declaring module xtsim)")
		}
		dir = parent
	}
}

// childProcs is the GOMAXPROCS of every workload child: the two workers of
// the campaign and the two domains of halo, capped at the host's cores.
func childProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// result is one benchmark run as xtbench reports it.
type result struct {
	attempted, failed int
	metrics           []metricValue
}

// metricValue is one reported metric: its median, and the samples behind it.
type metricValue struct {
	def     metricDef
	samples []float64
}

func (r *result) add(def metricDef, samples ...float64) {
	r.metrics = append(r.metrics, metricValue{def: def, samples: samples})
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) exitCode() int {
	if r.correct() {
		return 0
	}
	return 1
}

// json renders the result line: correctness, the op tally, and each
// metric's median with its unit.
func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.def.name] = value{median(m.samples), m.def.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func printTable(w io.Writer, r *result) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tn\tq1\tq3")
	for _, m := range r.metrics {
		q := quartiles(m.samples)
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t%.6g\t%.6g\n", m.def.name, median(m.samples), m.def.unit, len(m.samples), q[0], q[2])
	}
	fmt.Fprintf(tw, "ops\t%d attempted, %d failed\t\t\t\t\n", r.attempted, r.failed)
	tw.Flush()
}

// drive runs the children of one benchmark run and assembles its metrics:
// the end-to-end set untraced, or the per-layer set from a traced child
// measured against an untraced one of the same length.
func drive(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	res := &result{}
	if !traced {
		// Setup is rescaled like the walls, by calibrations around the probes.
		before := calibrate()
		var setups []float64
		for i := 0; i < setupProbes; i++ {
			_, ready, err := runChild(w, "probe", seed, 0)
			if err != nil {
				return nil, err
			}
			setups = append(setups, ready.Seconds())
		}
		speed := speedOf(before, calibrate())
		for i := range setups {
			setups[i] *= speed
		}
		rep, _, err := runChild(w, "run", seed, seconds)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = rep.Attempted, rep.Failed
		res.add(metricByName(endToEnd, "wall_s"), rep.Walls...)
		res.add(metricByName(endToEnd, "peak_rss_mb"), rep.PeakRSSMB)
		res.add(metricByName(endToEnd, "setup_s"), setups...)
		return res, nil
	}
	base, _, err := runChild(w, "run", seed, seconds/2)
	if err != nil {
		return nil, err
	}
	tr, _, err := runChild(w, "trace", seed, seconds/2)
	if err != nil {
		return nil, err
	}
	res.attempted = base.Attempted + tr.Attempted
	res.failed = base.Failed + tr.Failed
	tr.Layer["trace.overhead"] = []float64{median(tr.Walls)/median(base.Walls) - 1}
	for _, def := range perLayer {
		res.add(def, tr.Layer[def.name]...)
	}
	return res, nil
}

// runChild starts this executable as a workload child, times it from exec
// to its "ready" line, and collects the report it prints on exit.
func runChild(w workload, mode string, seed int64, seconds float64) (childReport, time.Duration, error) {
	var rep childReport
	exe, err := os.Executable()
	if err != nil {
		return rep, 0, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return rep, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var ready time.Duration
	var last string
	for sc.Scan() {
		if ready == 0 && sc.Text() == "ready" {
			ready = time.Since(start)
			continue
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return rep, 0, fmt.Errorf("%s child for %s: %w", mode, w.name, err)
	}
	if ready == 0 {
		return rep, 0, fmt.Errorf("%s child for %s never became ready", mode, w.name)
	}
	if mode == "probe" {
		return rep, ready, nil
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, 0, fmt.Errorf("%s child for %s: bad report: %w", mode, w.name, err)
	}
	return rep, ready, nil
}

// childMain is a workload child: it sets up, says "ready", then measures
// repetitions for the given time and prints its report as one JSON line.
func childMain(root string, w workload, mode string, seed int64, seconds float64) int {
	run, err := w.load(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		return 1
	}
	fmt.Println("ready")
	if mode == "probe" {
		return 0
	}
	var traceDir string
	if mode == "trace" {
		traceDir = filepath.Join(root, ".bench_build", "trace")
	}
	rep, err := measure(w.name, run, seed, seconds, traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}
