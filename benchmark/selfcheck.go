package main

import (
	"fmt"
	"math"
	"os"
)

// exactCounts are the counts that must repeat exactly between two runs
// with the same seed: every workload records a fixed number of events,
// and archive-query reads a byte-identical archive with identical
// windows, so even its share of chunks read is fixed.
func exactCounts(workload string) []string {
	if workload == "archive-query" {
		return []string{"trace.events", "otf2.query_chunks_read_frac", "otf2.archive_chunks"}
	}
	return []string{"trace.events"}
}

// moved is the distance between two values of a metric as a share of
// the smaller: whichever of the two runs counts as the parent, the
// other is at least this far from it.
func moved(a, b float64) float64 { return math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b)) }

// setRuns is how many runs make one set of selfcheck. The driver judges
// medians of ten runs; a set of one run would scatter three times as
// much as that and trip the bounds on host noise alone.
const setRuns = 3

// selfcheck answers "do two sets of runs of the same code agree within
// the benchmark's own bounds?": for every workload it takes three sets
// — two with -seed, one with -seed+1 — each the median of setRuns runs,
// the sets' runs interleaved so a slow minute of the host falls on all
// three. The sets are printed side by side, and any end-to-end metric
// that differs between the first set and either of the others by more
// than its bound fails the check, as does any failed output check or
// any exact count that differs between two equal-seed runs.
func selfcheck(o options) error {
	var outs []*outcome
	var problems []string
	seeds := []int64{o.seed, o.seed, o.seed + 1}
	for i := range workloads {
		w := &workloads[i]
		var sets [3][]*outcome
		for rep := 0; rep < setRuns; rep++ {
			for k, seed := range seeds {
				out, err := runOne(w, o, seed, false)
				if err != nil {
					return err
				}
				sets[k] = append(sets[k], out)
				outs = append(outs, out)
				if out.ops.failed > 0 {
					problems = append(problems, fmt.Sprintf("%s seed %d: %d output checks failed", w.name, seed, out.ops.failed))
				}
			}
		}
		// A set's value of a metric is the median over its runs.
		of := func(k int, name string) float64 {
			var vals []float64
			for _, out := range sets[k] {
				vals = append(vals, out.m.get(name))
			}
			return median(vals)
		}
		fmt.Fprintf(os.Stderr, "\n-- %s: medians of %d runs with seed %d, seed %d again, seed %d\n", w.name, setRuns, o.seed, o.seed, o.seed+1)
		for _, d := range endToEnd {
			a, b, c := of(0, d.Name), of(1, d.Name), of(2, d.Name)
			fmt.Fprintf(os.Stderr, "  %-26s %-8s %14.6g %14.6g %14.6g   bound %4.0f%%", d.Name, d.Unit, a, b, c, d.Bound*100)
			for k, other := range []float64{b, c} {
				if moved(a, other) > d.Bound {
					fmt.Fprintf(os.Stderr, "  OUT OF BOUND (set %d: %+.1f%%)", k+2, 100*(other-a)/a)
					problems = append(problems, fmt.Sprintf("%s %s: set 1 %.6g, set %d %.6g, bound %.0f%%", w.name, d.Name, a, k+2, other, d.Bound*100))
				}
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, name := range exactCounts(w.name) {
			a, b := sets[0][0].m.get(name), sets[1][0].m.get(name)
			fmt.Fprintf(os.Stderr, "  %-26s %-8s %14.6g %14.6g %14.6g   exact for equal seeds\n", name, "", a, b, sets[2][0].m.get(name))
			for _, out := range append(sets[0][1:], sets[1]...) {
				if out.m.get(name) != a {
					problems = append(problems, fmt.Sprintf("%s %s: %v and %v with the same seed", w.name, name, a, out.m.get(name)))
				}
			}
		}
	}
	if err := writeOut(o.out, outs); err != nil {
		return err
	}
	if len(problems) > 0 {
		fmt.Fprintln(os.Stderr, "\nselfcheck FAILED:")
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		return fmt.Errorf("selfcheck: %d problems", len(problems))
	}
	fmt.Fprintln(os.Stderr, "\nselfcheck passed: all three sets agree within the bounds")
	return nil
}
