// Package exp reproduces the paper's evaluation: every figure and table
// of Sections V and VI. Each experiment returns typed rows plus a
// formatter that prints the same columns the paper reports. Absolute
// numbers differ from the paper (Juropa/GCC vs. a Go runtime on this
// host); the shapes — who has overhead, how it scales with threads, where
// time goes — are the reproduction target.
package exp

import (
	"fmt"
	"io"
	"time"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/cube"
	"repro/internal/stats"
)

// Config controls experiment scale.
type Config struct {
	// Size is the BOTS input size (default SizeMedium, the paper's
	// "medium input size" scaled down).
	Size bots.Size
	// Threads lists the team sizes (paper: 1, 2, 4, 8).
	Threads []int
	// Reps is the number of timed repetitions; the median is used.
	Reps int
	// Warmup runs per configuration before timing.
	Warmup int
}

// QuickConfig is a fast configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{Size: bots.SizeTiny, Threads: []int{1, 2}, Reps: 1, Warmup: 0}
}

func (c Config) normalized() Config {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	return c
}

// uninstrumentedRuntime returns a baseline runtime (no listener) from a
// profiling-disabled session — the overhead experiments' reference.
func uninstrumentedRuntime() *scorep.Runtime {
	return scorep.NewSession(scorep.WithoutProfiling()).Runtime()
}

// timeKernel runs the kernel reps times and returns the median wall time
// of the parallel region in nanoseconds.
func timeKernel(kernel bots.Kernel, rt *scorep.Runtime, threads, warmup, reps int) int64 {
	for i := 0; i < warmup; i++ {
		kernel(rt, threads)
	}
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		kernel(rt, threads)
		times = append(times, float64(time.Since(start)))
	}
	return int64(stats.Median(times))
}

// runInstrumented executes the kernel once through a profiling session
// and returns the aggregated report (used by the table experiments).
func runInstrumented(kernel bots.Kernel, threads int) *cube.Report {
	s := scorep.NewSession()
	kernel(s.Runtime(), threads)
	res, _ := s.End() // no streaming sink, no experiment dir: End cannot fail
	return res.Report()
}

// OverheadRow is one bar group of Fig. 13/14: the relative runtime
// overhead of the instrumented vs. uninstrumented kernel per thread
// count.
type OverheadRow struct {
	Code    string
	Cutoff  bool
	Threads []int
	// UninstNs and InstNs are the median kernel times.
	UninstNs []int64
	InstNs   []int64
	// OverheadPct[i] = (Inst-Uninst)/Uninst*100 for Threads[i].
	OverheadPct []float64
}

// Fig13Overhead measures the profiling overhead of all nine BOTS codes
// in their optimized form (cut-off variant where provided) — the paper's
// Fig. 13.
func Fig13Overhead(cfg Config) []OverheadRow {
	return overheadRows(cfg, bots.All, true)
}

// Fig14Overhead measures the overhead of the non-cut-off versions of the
// codes that provide a cut-off (the stress test of Fig. 14: many tiny
// tasks).
func Fig14Overhead(cfg Config) []OverheadRow {
	return overheadRows(cfg, bots.CutoffCodes(), false)
}

func overheadRows(cfg Config, specs []*bots.Spec, preferCutoff bool) []OverheadRow {
	cfg = cfg.normalized()
	rows := make([]OverheadRow, 0, len(specs))
	for _, spec := range specs {
		cutoff := preferCutoff && spec.HasCutoff
		kernel := spec.Prepare(cfg.Size, cutoff)
		row := OverheadRow{Code: spec.Name, Cutoff: cutoff, Threads: cfg.Threads}
		for _, th := range cfg.Threads {
			uninst := timeKernel(kernel, uninstrumentedRuntime(), th, cfg.Warmup, cfg.Reps)
			inst := timeKernel(kernel, scorep.NewSession().Runtime(), th, cfg.Warmup, cfg.Reps)
			row.UninstNs = append(row.UninstNs, uninst)
			row.InstNs = append(row.InstNs, inst)
			pct := 0.0
			if uninst > 0 {
				pct = 100 * float64(inst-uninst) / float64(uninst)
			}
			row.OverheadPct = append(row.OverheadPct, pct)
		}
		rows = append(rows, row)
	}
	return rows
}

// ScalingRow is one line of Fig. 15: uninstrumented runtime of a
// non-cut-off code per thread count, in percent of the code's maximum.
type ScalingRow struct {
	Code      string
	Threads   []int
	RuntimeNs []int64
	// PctOfMax[i] = RuntimeNs[i] / max(RuntimeNs) * 100.
	PctOfMax []float64
}

// Fig15RuntimeScaling measures the uninstrumented runtime of the
// non-cut-off versions across thread counts (the paper's Fig. 15,
// showing runtime *increasing* with threads for ill-sized tasks).
func Fig15RuntimeScaling(cfg Config) []ScalingRow {
	cfg = cfg.normalized()
	rows := make([]ScalingRow, 0, 5)
	for _, spec := range bots.CutoffCodes() {
		kernel := spec.Prepare(cfg.Size, false)
		row := ScalingRow{Code: spec.Name, Threads: cfg.Threads}
		var maxNs int64
		for _, th := range cfg.Threads {
			ns := timeKernel(kernel, uninstrumentedRuntime(), th, cfg.Warmup, cfg.Reps)
			row.RuntimeNs = append(row.RuntimeNs, ns)
			if ns > maxNs {
				maxNs = ns
			}
		}
		for _, ns := range row.RuntimeNs {
			row.PctOfMax = append(row.PctOfMax, 100*float64(ns)/float64(maxNs))
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatOverhead prints overhead rows in the paper's Fig. 13/14 style.
func FormatOverhead(w io.Writer, title string, rows []OverheadRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-22s", "code")
	if len(rows) > 0 {
		for _, th := range rows[0].Threads {
			fmt.Fprintf(w, " %9s", fmt.Sprintf("%dthr %%", th))
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		name := r.Code
		if r.Cutoff {
			name += " (cut-off)"
		}
		fmt.Fprintf(w, "%-22s", name)
		for _, p := range r.OverheadPct {
			fmt.Fprintf(w, " %9.1f", p)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// FormatScaling prints Fig. 15 rows.
func FormatScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Fig. 15: runtime of uninstrumented non-cut-off codes (% of max)")
	fmt.Fprintf(w, "%-14s", "code")
	if len(rows) > 0 {
		for _, th := range rows[0].Threads {
			fmt.Fprintf(w, " %11s", fmt.Sprintf("%d threads", th))
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Code)
		for i := range r.PctOfMax {
			fmt.Fprintf(w, " %5.1f%% %s", r.PctOfMax[i], shortNs(r.RuntimeNs[i]))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func shortNs(ns int64) string {
	return fmt.Sprintf("(%s)", stats.FormatNs(ns))
}
