// Command scorep-analyze performs automatic diagnosis of tasking
// inefficiencies — the Scalasca-style analysis the paper motivates.
//
// It analyzes a saved profile report:
//
//	scorep-analyze -in report.json [-json]
//
// a saved event trace (a binary otf2-style archive, analyzed streaming,
// in bounded memory, so it may be far larger than RAM — by default in
// parallel, with one decode/analysis worker per processor; -parallel
// pins the worker count, and -parallel 1 forces the sequential path.
// The analysis is identical at every worker count. A JSONL dump is not
// read: scorep-convert built at commit 72ec01f turns one into an
// archive):
//
//	scorep-analyze -trace trace.otf2 [-parallel 4] [-bottlenecks] [-json]
//
// -bottlenecks additionally runs the automatic bottleneck analysis
// (wait-state classification, task-graph critical path with per-region
// what-if savings — see the "Bottleneck analysis" section of the
// package documentation) and reports its findings alongside the trace
// metrics. It applies to every trace-bearing subject (-trace, -exp,
// -code) and honors -window, -tids and -parallel; the result is
// identical at every worker count.
//
// -json emits everything the invocation analyzed as one JSON object
// in every mode: "findings" (profile findings plus, with -bottlenecks,
// the bottleneck findings), "traceAnalysis", "bottlenecks", and — for
// a fleet experiment — "shards" and "fleet".
//
// Trace analysis (-trace or -exp input) can be clipped to a slice of
// the recording with -window t0:t1 (inclusive bounds, either side
// open) and -tids 0,2,5 (thread subset; the run's own thread count is
// -threads). On an indexed archive the footer index makes this
// O(matching chunks): only chunks whose indexed time bounds and thread
// can match are read. The result is always identical to analyzing the
// full trace filtered to the same window:
//
//	scorep-analyze -trace trace.otf2 -window 1000:2000 -tids 0,1 [-json]
//
// an experiment archive (profile findings plus trace metrics; a trace
// truncated by a crashed run is salvaged to its intact prefix; a fleet
// experiment sealed by scorep-daemon reports each process's shard and
// the fleet-wide aggregate — with -bottlenecks, the per-shard
// bottleneck analyses and the fleet bottleneck summary too):
//
//	scorep-analyze -exp scorep-run [-window :5000] [-bottlenecks]
//	scorep-analyze -exp scorep-fleet [-bottlenecks] [-json]
//
// or runs a BOTS code live through a profiling+tracing session and
// reports both the profile findings and the trace-derived management
// metrics (paper §VII), optionally saving the trace or the whole
// experiment (-compress stores the archive with flate-compressed
// event chunks):
//
//	scorep-analyze -code nqueens -size small -threads 4 [-cutoff]
//	               [-save-trace trace.otf2 [-compress]] [-exp scorep-run]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/bottleneck"
	"repro/internal/cliq"
	"repro/internal/otf2"
	"repro/internal/stats"
	"repro/internal/trace"
)

// analysisJSON is the envelope -json emits: every analysis product of
// the selected subject in one object, with absent sections omitted.
// The same invocation at any -parallel setting produces byte-identical
// output.
type analysisJSON struct {
	Findings       []scorep.Finding           `json:"findings,omitempty"`
	FlightRecorder *scorep.FlightRecorderInfo `json:"flightRecorder,omitempty"`
	TraceAnalysis  *scorep.TraceAnalysis      `json:"traceAnalysis,omitempty"`
	Bottlenecks    *scorep.BottleneckAnalysis `json:"bottlenecks,omitempty"`
	Shards         []shardJSON                `json:"shards,omitempty"`
	Fleet          *fleetJSON                 `json:"fleet,omitempty"`
}

// shardJSON is one per-process trace shard of a fleet experiment.
type shardJSON struct {
	Stream      string                     `json:"stream"`
	File        string                     `json:"file"`
	Complete    bool                       `json:"complete"`
	Analysis    *scorep.TraceAnalysis      `json:"analysis"`
	Bottlenecks *scorep.BottleneckAnalysis `json:"bottlenecks,omitempty"`
}

// fleetJSON is the fleet-wide aggregate of a fleet experiment.
type fleetJSON struct {
	Analysis    *scorep.TraceAnalysis          `json:"analysis"`
	Bottlenecks *scorep.BottleneckFleetSummary `json:"bottlenecks,omitempty"`
}

func main() {
	rf := bots.RegisterRunFlags(flag.CommandLine, "")
	var (
		in          = flag.String("in", "", "saved report JSON to analyze")
		tracePath   = flag.String("trace", "", "saved event trace (a binary archive) to analyze")
		expDir      = flag.String("exp", "", "experiment directory: analyze it (without -code) or write the live run's archive to it (with -code)")
		saveTrace   = flag.String("save-trace", "", "save the live run's trace (.otf2 = binary archive, otherwise a JSONL dump)")
		parallel    = flag.Int("parallel", 0, "trace decode/analysis workers (0 = one per processor; results are identical at every count)")
		asJSON      = flag.Bool("json", false, "emit the analysis as one JSON object instead of text")
		bottlenecks = flag.Bool("bottlenecks", false, "with a trace-bearing input: run the automatic bottleneck analysis (wait states, critical path, what-if savings)")
		window      = flag.String("window", "", "clip trace analysis to the inclusive time window t0:t1 (either bound may be empty)")
		tids        = flag.String("tids", "", "clip trace analysis to a comma-separated thread-ID subset")
		compress    = flag.Bool("compress", false, "with -save-trace to an .otf2 archive: flate-compress event chunks")
	)
	flag.Parse()

	// -in, -trace and -code each select an analysis subject (-exp joins
	// them as input only without -code); reject ambiguous combinations
	// instead of silently picking one.
	subjects := 0
	for _, set := range []bool{*in != "", *tracePath != "", rf.Code != ""} {
		if set {
			subjects++
		}
	}
	if subjects > 1 || (*expDir != "" && (*in != "" || *tracePath != "")) {
		fmt.Fprintln(os.Stderr, "conflicting inputs: pick one of -in, -trace, -exp or -code (only -exp combines with -code, as output)")
		os.Exit(2)
	}
	if *saveTrace != "" && rf.Code == "" {
		fmt.Fprintln(os.Stderr, "-save-trace only applies to live runs (-code)")
		os.Exit(2)
	}
	if *bottlenecks && *in != "" {
		fmt.Fprintln(os.Stderr, "-bottlenecks needs a trace (-trace, -exp or -code); a report (-in) holds no trace")
		os.Exit(2)
	}
	if flagWasSet("parallel") && *in != "" {
		fmt.Fprintln(os.Stderr, "-parallel only applies to trace analysis (-trace, -exp or -code); a report (-in) holds no trace")
		os.Exit(2)
	}
	if (*window != "" || *tids != "") && *tracePath == "" && (rf.Code != "" || *expDir == "") {
		fmt.Fprintln(os.Stderr, "-window and -tids only apply to saved trace analysis (-trace or -exp input)")
		os.Exit(2)
	}
	if *compress && (*saveTrace == "" || !otf2.IsArchivePath(*saveTrace)) {
		fmt.Fprintln(os.Stderr, "-compress only applies when saving a binary archive (-save-trace <file>.otf2)")
		os.Exit(2)
	}
	query, err := cliq.Build(*window, *tids, "tids")
	if err != nil {
		fail(err)
	}

	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		rep, err := scorep.ReadReportJSON(f)
		if err != nil {
			fail(err)
		}
		findings := scorep.AnalyzeReport(rep)
		if *asJSON {
			emitJSON(analysisJSON{Findings: findings})
			return
		}
		scorep.FormatFindings(os.Stdout, findings)

	case *tracePath != "":
		// One scan of the file feeds both analyses.
		ta := trace.NewAnalyzer()
		consumers := []trace.Consumer{ta}
		var bc *bottleneck.Collector
		if *bottlenecks {
			bc = bottleneck.NewCollector()
			consumers = append(consumers, bc)
		}
		qst, warning, err := otf2.ScanFile(*tracePath, query, *parallel, consumers...)
		if err != nil {
			fail(err)
		}
		warn(warning)
		if qst.Indexed && !query.All() {
			fmt.Fprintf(os.Stderr, "index: read %d of %d chunks\n", qst.ChunksRead, qst.ChunksTotal)
		}
		a := ta.Finish()
		var b *scorep.BottleneckAnalysis
		if bc != nil {
			b = bc.Finish()
		}
		if *asJSON {
			out := analysisJSON{TraceAnalysis: a, Bottlenecks: b}
			if b != nil {
				out.Findings = b.Findings
			}
			emitJSON(out)
			return
		}
		a.Format(os.Stdout)
		if b != nil {
			fmt.Println()
			b.Format(os.Stdout)
		}

	case rf.Code == "" && *expDir != "":
		analyzeExperiment(*expDir, *parallel, query, *asJSON, *bottlenecks)

	case rf.Code != "":
		spec, size, err := rf.Resolve()
		if err != nil {
			fail(err)
		}

		// One session records profile and trace simultaneously
		// (Score-P's combined mode) and, with -exp, leaves the
		// experiment archive behind.
		opts := []scorep.Option{scorep.WithTracing(), scorep.WithAnalysisParallelism(*parallel)}
		if *expDir != "" {
			opts = append(opts, scorep.WithExperimentDirectory(*expDir))
		}
		s := scorep.NewSession(opts...)

		kernel := spec.Prepare(size, rf.Cutoff)
		result := kernel(s.Runtime(), rf.Threads)
		if want := spec.Expected(size); result != want {
			fail(fmt.Errorf("verification failed: %d != %d", result, want))
		}
		res, err := s.End()
		if err != nil {
			fail(err)
		}
		var b *scorep.BottleneckAnalysis
		if *bottlenecks {
			b = res.Bottlenecks()
		}

		if *asJSON {
			out := analysisJSON{TraceAnalysis: res.TraceAnalysis(), Bottlenecks: b}
			out.Findings = append(out.Findings, res.Findings()...)
			if b != nil {
				out.Findings = append(out.Findings, b.Findings...)
			}
			emitJSON(out)
		} else {
			fmt.Printf("== profile analysis: %s size=%s threads=%d cutoff=%v ==\n",
				spec.Name, rf.Size, rf.Threads, rf.Cutoff)
			scorep.FormatFindings(os.Stdout, res.Findings())

			fmt.Println()
			res.TraceAnalysis().Format(os.Stdout)
			if b != nil {
				fmt.Println()
				b.Format(os.Stdout)
			}
		}

		if *saveTrace != "" {
			var wopts []otf2.WriterOption
			if *compress {
				wopts = append(wopts, otf2.WithCompression(otf2.CompressionFlate))
			}
			if err := otf2.WriteFile(*saveTrace, res.Trace(), wopts...); err != nil {
				fail(err)
			}
			notef(*asJSON, "\nwrote %s (%d events)\n", *saveTrace, res.Trace().NumEvents())
		}
		if *expDir != "" {
			notef(*asJSON, "\nwrote experiment %s\n", *expDir)
		}

	default:
		fmt.Fprintln(os.Stderr, "need -in report.json, -trace <trace>, -exp <dir> or -code <bots code>")
		os.Exit(2)
	}
}

// analyzeExperiment reports everything an experiment archive holds:
// configuration summary, profile findings, trace metrics (clipped to
// the query when one was given) and — with bottlenecks — the automatic
// bottleneck analysis of every trace the experiment holds.
func analyzeExperiment(dir string, parallel int, query scorep.TraceQuery, asJSON, bottlenecks bool) {
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		fail(err)
	}
	exp.AnalysisParallelism = parallel
	m := exp.Meta
	var out analysisJSON
	if !asJSON {
		fmt.Printf("== experiment %s ==\n", dir)
		fmt.Printf("config: profiling=%v tracing=%v scheduler=%s threads=%d tasks=%d wall=%s gomaxprocs=%d %s\n\n",
			m.Config.Profiling, m.Config.Tracing, m.Config.Scheduler,
			m.Threads, m.TasksCreated, stats.FormatNs(m.WallTimeNs), m.GOMAXPROCS, m.GoVersion)
	}
	if fr := m.FlightRecorder; fr != nil {
		// The trace is only the flight recorder's retained window; say
		// what was evicted before it so the analysis reads correctly.
		if asJSON {
			out.FlightRecorder = fr
		} else {
			fmt.Printf("flight recorder: ring=%dx%d retained-events=%d dropped-events=%d dropped-chunks=%d",
				fr.RingChunks, fr.ChunkEvents, fr.RetainedEvents, fr.DroppedEvents, fr.DroppedChunks)
			if fr.Trigger != "" {
				fmt.Printf(" trigger=%s", fr.Trigger)
			}
			fmt.Printf("\n\n")
		}
		if fr.Partial {
			warn(fmt.Sprintf("partial flight-recorder dump (%s): trace.otf2 holds only the intact prefix of the window", fr.Error))
		}
	}

	if m.HasProfile {
		findings, err := exp.Findings()
		if err != nil {
			fail(err)
		}
		if asJSON {
			out.Findings = append(out.Findings, findings...)
		} else {
			scorep.FormatFindings(os.Stdout, findings)
			fmt.Println()
		}
	}
	if m.HasTrace {
		var a *scorep.TraceAnalysis
		var err error
		if query.All() {
			a, err = exp.TraceAnalysis()
		} else {
			var qst scorep.TraceQueryStats
			a, qst, err = exp.TraceAnalysisQuery(query)
			if err == nil && qst.Indexed {
				fmt.Fprintf(os.Stderr, "index: read %d of %d chunks\n", qst.ChunksRead, qst.ChunksTotal)
			}
		}
		if err != nil {
			fail(err)
		}
		var b *scorep.BottleneckAnalysis
		if bottlenecks {
			if query.All() {
				b, err = exp.Bottlenecks()
			} else {
				b, _, err = exp.BottlenecksQuery(query)
			}
			if err != nil {
				fail(err)
			}
		}
		for _, w := range exp.Warnings() {
			warn(w)
		}
		if asJSON {
			out.TraceAnalysis = a
			out.Bottlenecks = b
			if b != nil {
				out.Findings = append(out.Findings, b.Findings...)
			}
		} else {
			a.Format(os.Stdout)
			if b != nil {
				fmt.Println()
				b.Format(os.Stdout)
			}
		}
	}
	shards := exp.TraceShards()
	if len(shards) > 0 {
		// A fleet experiment (scorep-daemon): per-process shard metrics,
		// then the fleet-wide aggregate merged across all of them.
		for i, sh := range shards {
			a, err := exp.ShardTraceAnalysis(i)
			if err != nil {
				fail(err)
			}
			var b *scorep.BottleneckAnalysis
			if bottlenecks {
				if b, err = exp.ShardBottlenecks(i); err != nil {
					fail(err)
				}
			}
			if asJSON {
				out.Shards = append(out.Shards, shardJSON{
					Stream: sh.Stream, File: sh.File, Complete: sh.Complete,
					Analysis: a, Bottlenecks: b,
				})
				continue
			}
			status := "complete"
			if !sh.Complete {
				status = "truncated"
			}
			fmt.Printf("-- shard %s (%s, %s) --\n", sh.Stream, sh.File, status)
			a.Format(os.Stdout)
			if b != nil {
				b.Format(os.Stdout)
			}
			fmt.Println()
		}
		fleet, err := exp.FleetTraceAnalysis()
		if err != nil {
			fail(err)
		}
		var fb *scorep.BottleneckFleetSummary
		if bottlenecks {
			if fb, err = exp.FleetBottlenecks(); err != nil {
				fail(err)
			}
		}
		if asJSON {
			out.Fleet = &fleetJSON{Analysis: fleet, Bottlenecks: fb}
		} else {
			fmt.Printf("== fleet aggregate (%d shards) ==\n", len(shards))
			fleet.Format(os.Stdout)
			if fb != nil {
				fmt.Println()
				fb.Format(os.Stdout)
			}
		}
		for _, w := range exp.Warnings() {
			warn(w)
		}
	}
	if asJSON {
		emitJSON(out)
		return
	}
	if !m.HasProfile && !m.HasTrace && len(shards) == 0 {
		fmt.Println("experiment holds neither profile nor trace; nothing to analyze")
	}
}

// emitJSON writes the analysis envelope to stdout, indented.
func emitJSON(v analysisJSON) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

// notef prints a side-effect notice: to stdout normally, to stderr in
// JSON mode so stdout stays one machine-readable object.
func notef(toStderr bool, format string, args ...any) {
	w := os.Stdout
	if toStderr {
		w = os.Stderr
	}
	fmt.Fprintf(w, format, args...)
}

// flagWasSet reports whether the named flag was given explicitly on the
// command line (as opposed to resting at its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func warn(msg string) {
	if msg != "" {
		fmt.Fprintf(os.Stderr, "warning: %s\n", msg)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
