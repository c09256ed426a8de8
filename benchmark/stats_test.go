package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestHighestPercentile(t *testing.T) {
	// The rule: the highest percentile with at least ten samples beyond
	// it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty input: %+v", s)
	}
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	s := summarize(vals)
	if s.N != 200 || !near(s.Median, 100.5) || !near(s.Q1, 50.75) || !near(s.Q3, 150.25) {
		t.Errorf("summary of 1..200: %+v", s)
	}
	if s.HighPct != 95 || !near(s.HighVal, 190.05) {
		t.Errorf("tail of 1..200: p%v = %v, want p95 = 190.05", s.HighPct, s.HighVal)
	}
	if vals[0] != 200 {
		t.Error("summarize reordered its input")
	}
	// Too few samples for any tail: the median stands in.
	s = summarize([]float64{3, 1, 2})
	if s.HighPct != 0 || s.HighVal != 2 || s.Median != 2 {
		t.Errorf("summary of three: %+v", s)
	}
}
