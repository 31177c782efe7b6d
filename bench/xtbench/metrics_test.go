package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON reads BENCHMARK.json from the repository root.
func benchmarkJSON(t *testing.T) (benchSpec, []string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	var w struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, x := range w.Workloads {
		names = append(names, x.Name)
	}
	return spec, names
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	spec, workloadsInSpec := benchmarkJSON(t)
	check := func(kind string, defs []metricDef, spec []specMetric) {
		if len(defs) != len(spec) {
			t.Errorf("%s: %d metrics in xtbench, %d in BENCHMARK.json", kind, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			s := spec[i]
			if d.name != s.Name || d.unit != s.Unit || d.better != s.Better {
				t.Errorf("%s[%d]: xtbench %v, BENCHMARK.json %+v", kind, i, d, s)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)

	var setupBound, maxBound float64
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if got, want := len(workloadsInSpec), len(workloads); got != want {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in xtbench", got, want)
	}
	for i, w := range workloads {
		if workloadsInSpec[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, xtbench %q", i, workloadsInSpec[i], w.name)
		}
	}
}
