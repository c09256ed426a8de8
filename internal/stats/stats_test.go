package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDurBasics(t *testing.T) {
	var d Dur
	if !d.Empty() {
		t.Error("zero value not empty")
	}
	d.Add(5)
	d.Add(1)
	d.Add(9)
	if d.Count != 3 || d.Sum != 15 || d.Min != 1 || d.Max != 9 {
		t.Errorf("got %+v", d)
	}
	if d.Mean() != 5 {
		t.Errorf("mean = %f, want 5", d.Mean())
	}
}

func TestDurMergeEmptyIdentity(t *testing.T) {
	var a Dur
	a.Add(3)
	a.Add(7)
	before := a
	a.Merge(Dur{})
	if a != before {
		t.Error("merging empty changed the aggregate")
	}
	var b Dur
	b.Merge(before)
	if b != before {
		t.Error("merging into empty did not copy")
	}
}

// TestDurMergeEquivalentToAdds: property — merging two aggregates equals
// aggregating the concatenated samples.
func TestDurMergeEquivalentToAdds(t *testing.T) {
	f := func(xs, ys []int16) bool {
		var a, b, all Dur
		for _, x := range xs {
			a.Add(int64(x))
			all.Add(int64(x))
		}
		for _, y := range ys {
			b.Add(int64(y))
			all.Add(int64(y))
		}
		a.Merge(b)
		return a == all
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDurMergeAssociative: property — (a+b)+c == a+(b+c).
func TestDurMergeAssociative(t *testing.T) {
	mk := func(xs []int16) Dur {
		var d Dur
		for _, x := range xs {
			d.Add(int64(x))
		}
		return d
	}
	f := func(xs, ys, zs []int16) bool {
		l := mk(xs)
		l.Merge(mk(ys))
		l.Merge(mk(zs))
		rInner := mk(ys)
		rInner.Merge(mk(zs))
		r := mk(xs)
		r.Merge(rInner)
		return l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDurInvariants: property — min <= mean <= max, sum consistent.
func TestDurInvariants(t *testing.T) {
	f := func(xs []int16) bool {
		if len(xs) == 0 {
			return true
		}
		var d Dur
		var sum int64
		for _, x := range xs {
			d.Add(int64(x))
			sum += int64(x)
		}
		m := d.Mean()
		return d.Sum == sum && float64(d.Min) <= m && m <= float64(d.Max) &&
			d.Count == int64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatNs(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.5µs"},
		{2_000_000, "2ms"},
		{3_500_000_000, "3.5s"},
		{-1500, "-1.5µs"},
	}
	for _, c := range cases {
		if got := FormatNs(c.ns); got != c.want {
			t.Errorf("FormatNs(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestDurString(t *testing.T) {
	var d Dur
	if d.String() != "n=0" {
		t.Errorf("empty: %q", d.String())
	}
	d.Add(1000)
	if !strings.Contains(d.String(), "n=1") {
		t.Errorf("got %q", d.String())
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %f, want %f", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Median mutated its input")
	}
}

// TestMedianBounds: property — median lies within [min, max].
func TestMedianBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return Median(xs) == 0
		}
		for _, x := range xs {
			if math.IsNaN(x) {
				return true // NaN ordering undefined; skip
			}
		}
		m := Median(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
