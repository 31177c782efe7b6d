package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the default, "exclusive"), so the numbers
// match what the BENCHMARK.json consumers compute.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	var q [3]float64
	switch len(s) {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	ld := len(s)
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q[2] == q[0] {
			return 0
		}
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(med)
}

// Verdicts compare reports for one metric.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within bound"
	verdictNoBound    = "-"
)

// judge compares a change's runs of one metric with its parent's, run i of
// each forming pair i.
//
// A gain needs at least 10 pairs, the change better in at least 9 of every
// 10 (ties count for neither side), and medians further apart than the
// parent's interquartile range. Without a gain, a metric with a bound is a
// regression when the change's median is worse than the parent's by more
// than bound × the parent's median, and unresolved when either side's
// spread exceeds the bound, unless every change run beats every parent run.
// bound <= 0 marks a metric without one, which only a gain can move.
func judge(parent, change []float64, lowerIsBetter bool, bound float64) string {
	better := func(c, p float64) bool {
		if lowerIsBetter {
			return c < p
		}
		return c > p
	}
	pm, cm := median(parent), median(change)
	pairs := min(len(parent), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	q := quartiles(parent)
	if pairs >= 10 && wins*10 >= pairs*9 && better(cm, pm) && math.Abs(cm-pm) > q[2]-q[0] {
		return verdictGain
	}
	if bound <= 0 {
		return verdictNoBound
	}
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	if !allBetter && (spread(parent) > bound || spread(change) > bound) {
		return verdictUnresolved
	}
	worse := cm - pm
	if !lowerIsBetter {
		worse = -worse
	}
	if worse > bound*math.Abs(pm) {
		return verdictRegression
	}
	return verdictWithin
}
