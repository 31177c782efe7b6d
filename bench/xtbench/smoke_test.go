package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds xtbench and runs petascale, halo and extensions for
// one repetition, untraced and traced, checking that each run is correct
// and prints every metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three workloads end to end")
	}
	spec, _ := benchmarkJSON(t)
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), "xtbench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, w := range []string{"petascale", "halo", "extensions"} {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w, "--seed", "1", "--seconds", "0", "--trace", trace)
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, trace, err, out)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "1" {
				if c := res.Metrics["trace.coverage"].Value; math.Abs(c-1) > coverageTolerance {
					t.Errorf("%s: trace.coverage %.3f, want within %.0f%% of 1", w, c, 100*coverageTolerance)
				}
			}
		}
	}
}
