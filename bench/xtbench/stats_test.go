package main

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
		med  float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}, 2},
		{[]float64{5, 5}, [3]float64{5, 5, 5}, 5},
		{[]float64{10, 12.5, 11, 30, 9.5}, [3]float64{9.75, 11, 21.25}, 11},
		{[]float64{7}, [3]float64{7, 7, 7}, 7},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestJudge(t *testing.T) {
	alternating := []float64{10, 12, 10, 12, 10, 12, 10, 12, 10, 12} // median 11, IQR 2, spread 0.18
	cases := []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           string
	}{
		// Parent median 11, IQR 11.25-10 = 1.25; 10/10 wins by 2.
		{"gain", []float64{10, 11, 10, 12, 11, 10, 11, 12, 10, 11}, repeat(9, 10), true, 0.1, verdictGain},
		{"gain, higher is better", repeat(100, 10), repeat(110, 10), false, 0.1, verdictGain},
		// 8 wins of 10 is below 9/10.
		{"8 of 10 wins", repeat(10, 10), []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}, true, 0.1, verdictWithin},
		// 5 pairs are too few for a gain, however clear.
		{"too few pairs", repeat(10, 5), repeat(9, 5), true, 0.1, verdictWithin},
		// 10/10 wins by 0.1, inside the parent's IQR of 2, whose spread exceeds the bound.
		{"gap within parent IQR", alternating, []float64{9.9, 11.9, 9.9, 11.9, 9.9, 11.9, 9.9, 11.9, 9.9, 11.9}, true, 0.1, verdictUnresolved},
		// Every change run beats every parent run, so the wide spread does not leave it unresolved.
		{"all better despite spread", alternating, repeat(9, 10), true, 0.1, verdictWithin},
		{"regression", repeat(10, 10), repeat(12, 10), true, 0.1, verdictRegression},
		{"regression, higher is better", repeat(10, 10), repeat(8, 10), false, 0.1, verdictRegression},
		{"within bound", repeat(10, 10), repeat(10.5, 10), true, 0.1, verdictWithin},
		{"no bound", repeat(10, 10), repeat(10.5, 10), true, 0, verdictNoBound},
	}
	for _, c := range cases {
		if got := judge(c.parent, c.change, c.lower, c.bound); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRunsExitsOnRegression(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	run := func(v float64) runLine {
		var r runLine
		line := `{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":` + strconv.FormatFloat(v, 'g', -1, 64) + `,"unit":"s"}}}`
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	var parent, same, slower []runLine
	for i := 0; i < 10; i++ {
		parent = append(parent, run(1))
		same = append(same, run(1.01))
		slower = append(slower, run(1.5))
	}
	var out strings.Builder
	if code := compareRuns(&out, spec, parent, same); code != 0 {
		t.Errorf("1%% slower: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, spec, parent, slower); code != 1 || !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("50%% slower: exit %d, want 1\n%s", code, out.String())
	}
}
