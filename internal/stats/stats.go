// Package stats implements the per-node metric statistics the paper's
// profile stores: for every call-tree node the sum, minimum, maximum and
// number of samples of a metric (Section IV-A: "together with information
// required for statistical analysis, i.e. the sum, the minimum, the
// maximum and the number of samples").
package stats

import "fmt"

// Dur aggregates int64 nanosecond duration samples.
// The zero value is an empty aggregate ready for use.
type Dur struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// Add records one sample.
func (d *Dur) Add(v int64) {
	if d.Count == 0 {
		d.Min, d.Max = v, v
	} else {
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
	}
	d.Count++
	d.Sum += v
}

// Merge folds other into d. Merging is associative and commutative with
// the empty aggregate as identity; the property test relies on this.
func (d *Dur) Merge(other Dur) {
	if other.Count == 0 {
		return
	}
	if d.Count == 0 {
		*d = other
		return
	}
	if other.Min < d.Min {
		d.Min = other.Min
	}
	if other.Max > d.Max {
		d.Max = other.Max
	}
	d.Count += other.Count
	d.Sum += other.Sum
}

// Mean returns the arithmetic mean of the samples, or 0 if empty.
func (d Dur) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Sum) / float64(d.Count)
}

// Empty reports whether no samples were recorded.
func (d Dur) Empty() bool { return d.Count == 0 }

// String renders the aggregate compactly for reports and debugging.
func (d Dur) String() string {
	if d.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d sum=%s min=%s max=%s mean=%s",
		d.Count, FormatNs(d.Sum), FormatNs(d.Min), FormatNs(d.Max), FormatNs(int64(d.Mean())))
}

// FormatNs renders nanoseconds using the most readable unit, mirroring
// the units the paper's tables use (µs for task times, s for totals).
func FormatNs(ns int64) string {
	abs := ns
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.3gs", float64(ns)/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.3gms", float64(ns)/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.3gµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// Median returns the median of xs, or 0 for an empty slice. xs is not
// modified. Medians are used by the overhead experiments because the
// paper's overhead numbers are sensitive to outlier runs.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	// Insertion sort: experiment repetition counts are tiny.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	// Halve before adding so extreme values cannot overflow to +-Inf.
	return cp[n/2-1]/2 + cp[n/2]/2
}
