// Command scorep-bots runs one BOTS benchmark through a measurement
// session, optionally instrumented with the task profiler, and prints
// the CUBE-style profile and/or timing. With -exp it additionally
// records an event trace and leaves a complete experiment archive
// (profile.json + trace.otf2 + meta.json) for offline analysis by
// scorep-report, scorep-analyze and scorep-timeline.
//
// With -sink (or SCOREP_TRACE_SINK) the event trace is instead streamed
// to a running scorep-daemon, which collects one shard per process into
// its fleet experiment — the multi-process measurement mode.
//
// Usage:
//
//	scorep-bots -code nqueens -size small -threads 4 [-cutoff]
//	            [-uninstrumented] [-json report.json] [-csv report.csv]
//	            [-exp dir] [-per-thread] [-min-sum 1ms]
//	            [-sink unix:///tmp/scorep.sock] [-sink-id name]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	scorep "repro"
	"repro/internal/bots"
)

func main() {
	rf := bots.RegisterRunFlags(flag.CommandLine, "fib")
	var (
		uninst    = flag.Bool("uninstrumented", false, "run without measurement (overhead baseline)")
		jsonPath  = flag.String("json", "", "write the profile report as JSON to this file")
		csvPath   = flag.String("csv", "", "write the profile report as CSV to this file")
		expDir    = flag.String("exp", "", "write an experiment archive (profile + trace + meta) to this directory")
		perThread = flag.Bool("per-thread", false, "render per-thread breakdown")
		minSum    = flag.Duration("min-sum", 0, "hide nodes below this inclusive time")
		depthProf = flag.Bool("depth-param", false, "nqueens only: enable per-depth parameter instrumentation (Table IV)")
		sinkAddr  = flag.String("sink", "", "stream the trace to a scorep-daemon at this address (unix:///path.sock, tcp://host:port)")
		sinkID    = flag.String("sink-id", "", "stream/shard name in the daemon's fleet experiment (default: pid-derived)")
	)
	flag.Parse()

	spec, size, err := rf.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	kernel := spec.Prepare(size, rf.Cutoff)
	if *depthProf {
		if spec.Name != "nqueens" {
			fmt.Fprintln(os.Stderr, "-depth-param is only supported for nqueens")
			os.Exit(2)
		}
		kernel = bots.NQueensDepthKernel(size)
	}

	if *uninst && *expDir != "" {
		// An experiment records measurement (at least the trace), which
		// would silently invalidate the uninstrumented timing baseline.
		fmt.Fprintln(os.Stderr, "-uninstrumented and -exp conflict: an experiment run is instrumented")
		os.Exit(2)
	}
	if *uninst && (*jsonPath != "" || *csvPath != "") {
		fmt.Fprintln(os.Stderr, "-uninstrumented and -json/-csv conflict: an uninstrumented run has no report")
		os.Exit(2)
	}
	var opts []scorep.Option
	if *uninst {
		opts = append(opts, scorep.WithoutProfiling())
	}
	if *expDir != "" {
		// The experiment archive ties profile and trace together, so an
		// -exp run records both.
		opts = append(opts, scorep.WithTracing(), scorep.WithExperimentDirectory(*expDir))
	}
	if *sinkAddr != "" {
		opts = append(opts, scorep.WithRemoteTrace(*sinkAddr))
	}
	if *sinkID != "" {
		opts = append(opts, scorep.WithRemoteTraceStream(*sinkID))
	}
	// The environment layers over the flags (SCOREP_TRACE_SINK wins over
	// -sink), exactly like Score-P's runtime configuration.
	s, err := scorep.NewSessionFromEnv(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	if id := s.RemoteTraceStream(); id != "" {
		fmt.Printf("streaming trace as %q\n", id)
	}

	start := time.Now()
	result := kernel(s.Runtime(), rf.Threads)
	elapsed := time.Since(start)

	res, err := s.End()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}

	ok := "OK"
	if result != spec.Expected(size) && !*depthProf {
		ok = "FAILED"
	}
	fmt.Printf("%s size=%s threads=%d cutoff=%v instrumented=%v\n",
		spec.Name, rf.Size, rf.Threads, rf.Cutoff, s.Profiling())
	fmt.Printf("kernel time: %v   verification: %s (result=%d)\n", elapsed, ok, result)
	st := res.TeamStats()
	fmt.Printf("tasks created: %d   steals: %d   max inline nesting: %d\n",
		st.TasksCreated, st.Steals, st.MaxStackDepth)
	fmt.Printf("scheduler: steal attempts: %d   failed steals: %d   parks: %d   wakes: %d   steals by thread: %v\n\n",
		st.StealAttempts, st.FailedSteals, st.Parks, st.Wakes, st.ThreadSteals)
	if *expDir != "" {
		fmt.Printf("wrote experiment %s\n", *expDir)
	}

	rep := res.Report()
	if rep == nil {
		if ok == "FAILED" {
			os.Exit(1)
		}
		return
	}
	if err := scorep.RenderReport(os.Stdout, rep, scorep.RenderOptions{
		PerThread: *perThread,
		MinSumNs:  int64(*minSum),
	}); err != nil {
		fmt.Fprintf(os.Stderr, "render: %v\n", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		writeTo(*jsonPath, func(f *os.File) error { return scorep.WriteReportJSON(f, rep) })
	}
	if *csvPath != "" {
		writeTo(*csvPath, func(f *os.File) error { return scorep.WriteReportCSV(f, rep) })
	}
	if ok == "FAILED" {
		os.Exit(1)
	}
}

func writeTo(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
