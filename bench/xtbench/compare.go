package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runLine is one benchmark run's result line.
type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// compareMain judges a change against its parent. Each file holds the
// output of runs of one workload on one commit, in run order; run i of
// the parent and run i of the change form pair i, so alternate which side
// runs first. It exits 1 when a metric regresses or more ops fail.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("xtbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: xtbench compare [-bench BENCHMARK.json] parent.txt change.txt")
		return 2
	}
	spec, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench compare:", err)
		return 2
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench compare:", err)
		return 2
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtbench compare:", err)
		return 2
	}
	return compareRuns(w, spec, parent, change)
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRuns collects the result lines of a file, skipping everything else.
func readRuns(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r runLine
		if json.Unmarshal([]byte(line), &r) == nil && r.Metrics != nil {
			runs = append(runs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no result lines", path)
	}
	return runs, nil
}

func compareRuns(w io.Writer, spec benchSpec, parent, change []runLine) int {
	code := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbound\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tverdict")
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		p, c := values(parent, m.Name), values(change, m.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		v := judge(p, c, m.Better == "lower", m.Bound)
		if v == verdictRegression {
			code = 1
		}
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		pq, cq := quartiles(p), quartiles(c)
		delta := "-"
		if pm := median(p); pm != 0 {
			delta = fmt.Sprintf("%+.2f%%", 100*(median(c)-pm)/pm)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] n=%d\t%.6g [%.6g, %.6g] n=%d\t%s\t%s\n",
			m.Name, m.Unit, bound, median(p), pq[0], pq[2], len(p), median(c), cq[0], cq[2], len(c), delta, v)
	}
	pf, cf := failures(parent), failures(change)
	fmt.Fprintf(tw, "failed ops\t\t\t%d\t%d\t\t\n", pf, cf)
	tw.Flush()
	if cf > pf {
		code = 1
	}
	return code
}

func values(runs []runLine, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func failures(runs []runLine) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
		if !r.Correct && r.Failed == 0 {
			n++
		}
	}
	return n
}
