// Command scorep-timeline records an event trace of a BOTS run (or
// loads a saved trace or experiment archive) and renders per-thread
// task timelines plus a utilization table — the plain-text counterpart
// of the Vampir task views the paper's related work uses (Schmidl et
// al. [16]). Saved traces are binary otf2-style archives; traces
// truncated by a crashed run render their intact prefix. -save writes
// an archive for an ".otf2" path and a JSONL text dump, which no tool
// reads back, for any other.
//
// Saved traces (-in or -exp) can be rendered clipped to a slice of the
// recording with -window t0:t1 (inclusive, either side open) and -tids
// 0,2,5 (thread subset; -threads is the live run's thread count). On an
// indexed archive the footer index restricts reading to the matching
// chunks. With -save to an .otf2 archive, -compress stores
// flate-compressed event chunks.
//
// Usage:
//
//	scorep-timeline -code sort -size small -threads 4 [-width 120]
//	scorep-timeline -in trace.otf2 [-width 120] [-parallel 4] [-window 1000:2000] [-tids 0,1]
//	scorep-timeline -exp scorep-run [-width 120] [-window :5000]
//	scorep-timeline -code fib -size tiny -threads 4 -save trace.otf2 [-compress] [-exp scorep-run]
package main

import (
	"flag"
	"fmt"
	"os"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/cliq"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

func main() {
	rf := bots.RegisterRunFlags(flag.CommandLine, "")
	var (
		in       = flag.String("in", "", "saved trace (a binary archive) to render")
		expDir   = flag.String("exp", "", "experiment directory: render its trace (without -code) or write the live run's archive to it (with -code)")
		width    = flag.Int("width", 100, "timeline width in characters")
		save     = flag.String("save", "", "also save the recorded trace (.otf2 = binary archive, otherwise a JSONL dump)")
		parallel = flag.Int("parallel", 0, "archive decode workers (0 = one per processor; the loaded trace is identical at every count)")
		window   = flag.String("window", "", "render only the inclusive time window t0:t1 (either bound may be empty)")
		tids     = flag.String("tids", "", "render only a comma-separated thread-ID subset")
		compress = flag.Bool("compress", false, "with -save to an .otf2 archive: flate-compress event chunks")
	)
	flag.Parse()

	// -in, -exp (without -code) and -code each select the trace source;
	// reject ambiguous combinations instead of silently picking one.
	if *in != "" && (*expDir != "" || rf.Code != "") {
		fmt.Fprintln(os.Stderr, "-in conflicts with -exp and -code: pick one trace source")
		os.Exit(2)
	}
	if (*window != "" || *tids != "") && rf.Code != "" {
		fmt.Fprintln(os.Stderr, "-window and -tids only apply to saved traces (-in or -exp input)")
		os.Exit(2)
	}
	if *compress && (*save == "" || !otf2.IsArchivePath(*save)) {
		fmt.Fprintln(os.Stderr, "-compress only applies when saving a binary archive (-save <file>.otf2)")
		os.Exit(2)
	}
	query, err := cliq.Build(*window, *tids, "tids")
	if err != nil {
		fail(err)
	}

	var tr *scorep.Trace
	wroteExp := false
	switch {
	case *in != "":
		var warning string
		var err error
		tr, _, warning, err = otf2.LoadFile(*in, region.NewRegistry(), query, *parallel)
		if err != nil {
			fail(err)
		}
		warn(warning)

	case rf.Code == "" && *expDir != "":
		exp, err := scorep.OpenExperiment(*expDir)
		if err != nil {
			fail(err)
		}
		if !exp.Meta.HasTrace {
			fail(fmt.Errorf("%s: experiment holds no trace", *expDir))
		}
		var warning string
		tr, _, warning, err = otf2.LoadFile(exp.TracePath(), region.NewRegistry(), query, *parallel)
		if err != nil {
			fail(err)
		}
		warn(warning)

	case rf.Code != "":
		spec, size, err := rf.Resolve()
		if err != nil {
			fail(err)
		}
		opts := []scorep.Option{scorep.WithoutProfiling(), scorep.WithTracing()}
		if *expDir != "" {
			opts = append(opts, scorep.WithExperimentDirectory(*expDir))
		}
		s := scorep.NewSession(opts...)
		kernel := spec.Prepare(size, rf.Cutoff)
		if got, want := kernel(s.Runtime(), rf.Threads), spec.Expected(size); got != want {
			fail(fmt.Errorf("verification failed: %d != %d", got, want))
		}
		res, err := s.End()
		if err != nil {
			fail(err)
		}
		tr = res.Trace()
		wroteExp = *expDir != ""

	default:
		fmt.Fprintln(os.Stderr, "need -in <trace>, -exp <dir> or -code <bots code>")
		os.Exit(2)
	}

	if err := trace.RenderTimeline(os.Stdout, tr, trace.TimelineOptions{Width: *width, ShowLegend: true}); err != nil {
		fail(err)
	}
	fmt.Println()
	trace.FormatUtilization(os.Stdout, trace.ComputeUtilization(tr))

	if *save != "" {
		var wopts []otf2.WriterOption
		if *compress {
			wopts = append(wopts, otf2.WithCompression(otf2.CompressionFlate))
		}
		if err := otf2.WriteFile(*save, tr, wopts...); err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %s (%d events)\n", *save, tr.NumEvents())
	}
	if wroteExp {
		fmt.Printf("\nwrote experiment %s\n", *expDir)
	}
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
