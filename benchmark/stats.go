package main

import (
	"math"
	"sort"
	"time"
)

// tailSamples is how many samples must lie beyond a percentile before
// it is reported: fewer and the number describes single outliers, not
// the distribution.
const tailSamples = 10

// reportablePermille are the tail percentiles considered, highest
// first, in tenths of a percent so the rule is exact integer arithmetic.
var reportablePermille = []int{999, 990, 950, 900, 750}

// summary describes one timing (or any repeated measurement): the
// median with its quartiles, the sample count, and the highest
// percentile that still has tailSamples samples beyond it.
type summary struct {
	N      int
	Q1     float64
	Median float64
	Q3     float64
	// HighPct is the percentile HighVal reports (0 when n is too small
	// for any tail percentile; HighVal then repeats the median).
	HighPct float64
	HighVal float64
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// highestPercentile returns the highest reportable percentile that
// leaves at least tailSamples of n samples beyond it, or 0 when no
// tail percentile qualifies.
func highestPercentile(n int) float64 {
	for _, pm := range reportablePermille {
		if n*(1000-pm) >= tailSamples*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// summarize computes the summary of vals (which it does not modify).
// An empty input yields the zero summary.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := summary{
		N:      len(s),
		Q1:     percentile(s, 25),
		Median: percentile(s, 50),
		Q3:     percentile(s, 75),
	}
	out.HighPct = highestPercentile(len(s))
	out.HighVal = out.Median
	if out.HighPct > 0 {
		out.HighVal = percentile(s, out.HighPct)
	}
	return out
}

// median is summarize(vals).Median.
func median(vals []float64) float64 { return summarize(vals).Median }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
