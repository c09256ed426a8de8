// Command scorep-report renders a saved profile report (JSON, written
// by scorep-bots -json or scorep.WriteReportJSON) or the profile of an
// experiment archive (written by scorep-bots -exp or
// Results.SaveExperiment) as a text tree or CSV — the offline
// CUBE-viewer analog — or structurally diffs two reports (the
// run-comparison workflow the paper's stable call-tree design enables,
// Section IV-B3). -in and -diff accept either a report JSON file or an
// experiment directory.
//
// Usage:
//
//	scorep-report -in report.json [-csv] [-per-thread] [-min-sum 1ms]
//	scorep-report -exp scorep-run [-csv]
//	scorep-report -in baseline.json -diff candidate.json [-top 10]
//	scorep-report -in scorep-base -diff scorep-cand [-top 10] [-parallel 2]
//
// With -diff, -parallel > 1 loads the two inputs concurrently (the
// rendered reports and diffs are identical at every setting).
//
// When the input is an experiment that also archived a trace, -window
// t0:t1 and/or -threads a,b,c append the trace-derived metrics of just
// that slice after the profile — on an indexed archive the footer
// index reads only the matching chunks:
//
//	scorep-report -exp scorep-run -window 1000:2000 -threads 0,1
//
// A fleet experiment sealed by scorep-daemon (per-process trace shards,
// no profile) renders per-shard trace metrics, the fleet aggregate and
// the fleet bottleneck summary (fleet-summed wait states with the worst
// shard per kind, and the shard with the longest critical path):
//
//	scorep-report -exp scorep-fleet
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	scorep "repro"
	"repro/internal/cliq"
)

func main() {
	var (
		in        = flag.String("in", "", "input report JSON or experiment directory (the baseline for -diff)")
		expDir    = flag.String("exp", "", "input experiment directory (alias for -in with an experiment)")
		diffPath  = flag.String("diff", "", "second report JSON or experiment directory to diff against -in")
		top       = flag.Int("top", 0, "with -diff: print only the N largest deltas")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of a text tree")
		perThread = flag.Bool("per-thread", false, "render per-thread breakdown")
		minSum    = flag.Duration("min-sum", 0, "hide nodes below this inclusive time")
		parallel  = flag.Int("parallel", 0, "with -diff: load the two inputs concurrently (0 = one per processor, 1 = sequential; output is identical)")
		window    = flag.String("window", "", "with an experiment input: append trace metrics of the inclusive time window t0:t1")
		threads   = flag.String("threads", "", "with an experiment input: append trace metrics of a comma-separated thread-ID subset")
	)
	flag.Parse()
	if *in != "" && *expDir != "" {
		fmt.Fprintln(os.Stderr, "-in conflicts with -exp: pick one input")
		os.Exit(2)
	}
	if *in == "" {
		*in = *expDir
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "missing -in report.json (or -exp dir)")
		os.Exit(2)
	}
	parallelSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			parallelSet = true
		}
	})
	if parallelSet && *diffPath == "" {
		fmt.Fprintln(os.Stderr, "-parallel only applies to -diff (loading the two inputs concurrently)")
		os.Exit(2)
	}
	if (*window != "" || *threads != "") && (*diffPath != "" || *asCSV) {
		fmt.Fprintln(os.Stderr, "-window and -threads append trace metrics to a single text report; they conflict with -diff and -csv")
		os.Exit(2)
	}
	query, err := cliq.Build(*window, *threads, "threads")
	if err != nil {
		fail(err)
	}
	querySet := *window != "" || *threads != ""
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	if *diffPath != "" {
		var rep, cand *scorep.Report
		if *parallel > 1 {
			done := make(chan struct{})
			go func() { cand = load(*diffPath); close(done) }()
			rep = load(*in)
			<-done
		} else {
			rep = load(*in)
			cand = load(*diffPath)
		}
		rd := scorep.DiffReports(rep, cand)
		if *top > 0 {
			fmt.Printf("top %d deltas (baseline=%s candidate=%s):\n", *top, *in, *diffPath)
			for _, d := range rd.TopRegressions(*top) {
				fmt.Printf("  %-40s delta=%s\n", d.Name, formatNs(d.DeltaSum()))
			}
			return
		}
		if err := scorep.RenderReportDiff(os.Stdout, rd); err != nil {
			fail(err)
		}
		return
	}

	if fi, err := os.Stat(*in); err == nil && fi.IsDir() {
		exp, err := scorep.OpenExperiment(*in)
		if err != nil {
			fail(err)
		}
		printFlightRecorder(exp.Meta.FlightRecorder)
		if !exp.Meta.HasProfile && exp.Meta.FlightRecorder != nil && len(exp.TraceShards()) == 0 {
			// A flight-recorder dump directory holds a trace window but
			// no profile: render the window's trace metrics instead of
			// the (absent) call-path report.
			a, err := exp.TraceAnalysis()
			if err != nil {
				fail(err)
			}
			a.Format(os.Stdout)
			for _, w := range exp.Warnings() {
				fmt.Fprintf(os.Stderr, "warning: %s\n", w)
			}
			return
		}
		if !exp.Meta.HasProfile && len(exp.TraceShards()) > 0 {
			// A daemon-sealed fleet experiment holds trace shards but no
			// profile: render the per-shard and fleet trace metrics
			// instead of the (absent) call-path report.
			if *asCSV || querySet {
				fmt.Fprintln(os.Stderr, "-csv, -window and -threads do not apply to a fleet experiment (per-process trace shards, no profile)")
				os.Exit(2)
			}
			renderFleet(*in, exp)
			return
		}
	}

	rep := load(*in)
	if *asCSV {
		err = scorep.WriteReportCSV(os.Stdout, rep)
	} else {
		err = scorep.RenderReport(os.Stdout, rep, scorep.RenderOptions{
			PerThread: *perThread,
			MinSumNs:  int64(*minSum),
		})
	}
	if err != nil {
		fail(err)
	}
	if querySet {
		printTraceMetrics(*in, query)
	}
}

// printFlightRecorder surfaces a flight-recorder experiment's eviction
// accounting: the archived trace is only the retained window, so the
// dropped counts say how much history the report does NOT cover. A
// partial (truncated) dump additionally warns on stderr.
func printFlightRecorder(fr *scorep.FlightRecorderInfo) {
	if fr == nil {
		return
	}
	fmt.Printf("flight recorder: ring=%dx%d retained-events=%d dropped-events=%d dropped-chunks=%d",
		fr.RingChunks, fr.ChunkEvents, fr.RetainedEvents, fr.DroppedEvents, fr.DroppedChunks)
	if fr.Trigger != "" {
		fmt.Printf(" trigger=%s", fr.Trigger)
	}
	fmt.Println()
	if fr.Partial {
		fmt.Fprintf(os.Stderr, "warning: partial flight-recorder dump (%s): trace.otf2 holds only the intact prefix of the window\n", fr.Error)
	}
}

// renderFleet renders a multi-process fleet experiment: one trace
// metrics block per shard (process), then the fleet-wide aggregate
// merged across all of them.
func renderFleet(dir string, exp *scorep.Experiment) {
	shards := exp.TraceShards()
	fmt.Printf("== fleet experiment %s (%d shards) ==\n", dir, len(shards))
	for i, sh := range shards {
		status := "complete"
		if !sh.Complete {
			status = "truncated"
		}
		fmt.Printf("\n-- shard %s (%s, %s, %d bytes", sh.Stream, sh.File, status, sh.Bytes)
		if sh.DroppedEvents > 0 {
			fmt.Printf(", %d events dropped at source", sh.DroppedEvents)
		}
		fmt.Printf(") --\n")
		a, err := exp.ShardTraceAnalysis(i)
		if err != nil {
			fail(err)
		}
		a.Format(os.Stdout)
	}
	fleet, err := exp.FleetTraceAnalysis()
	if err != nil {
		fail(err)
	}
	fmt.Printf("\n== fleet aggregate (%d shards) ==\n", len(shards))
	fleet.Format(os.Stdout)
	// The fleet bottleneck summary: per wait-state kind the fleet-summed
	// time and the worst shard, plus the shard with the longest critical
	// path (see scorep-analyze -bottlenecks for the full per-shard view).
	fb, err := exp.FleetBottlenecks()
	if err != nil {
		fail(err)
	}
	if fb != nil {
		fmt.Println()
		fb.Format(os.Stdout)
	}
	for _, w := range exp.Warnings() {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
}

// printTraceMetrics appends the trace-derived metrics of the query's
// slice of the input experiment's archived trace.
func printTraceMetrics(path string, q scorep.TraceQuery) {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		fail(fmt.Errorf("-window/-threads need an experiment directory input with a trace; %s is not a directory", path))
	}
	exp, err := scorep.OpenExperiment(path)
	if err != nil {
		fail(err)
	}
	if !exp.Meta.HasTrace {
		fail(fmt.Errorf("%s: experiment holds no trace to window", path))
	}
	a, qst, err := exp.TraceAnalysisQuery(q)
	if err != nil {
		fail(err)
	}
	for _, w := range exp.Warnings() {
		fmt.Fprintf(os.Stderr, "warning: %s\n", w)
	}
	fmt.Printf("\n== trace metrics (%s) ==\n", q)
	if qst.Indexed {
		fmt.Fprintf(os.Stderr, "index: read %d of %d chunks\n", qst.ChunksRead, qst.ChunksTotal)
	}
	a.Format(os.Stdout)
}

// load reads a report from either a JSON file or an experiment archive
// directory.
func load(path string) *scorep.Report {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		exp, err := scorep.OpenExperiment(path)
		if err != nil {
			fail(err)
		}
		rep, err := exp.Report()
		if err != nil {
			fail(err)
		}
		if rep == nil {
			fail(fmt.Errorf("%s: experiment holds no profile (run was not profiled)", path))
		}
		return rep
	}
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	rep, err := scorep.ReadReportJSON(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	return rep
}

func formatNs(ns int64) string {
	sign := ""
	if ns >= 0 {
		sign = "+"
	}
	return fmt.Sprintf("%s%.3gms", sign, float64(ns)/1e6)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
