package scorep

import (
	"errors"
	"io"

	"repro/internal/analyze"
	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/omp"
	"repro/internal/otf2"
	"repro/internal/pomp"
	"repro/internal/region"
	"repro/internal/sink"
	"repro/internal/trace"
)

// Runtime is the OpenMP-like tasking runtime executing parallel regions
// and explicit tied tasks.
type Runtime = omp.Runtime

// Thread is one worker of a team; it is the execution context handed to
// parallel-region bodies and task bodies.
type Thread = omp.Thread

// Task is one explicit task instance.
type Task = omp.Task

// TaskFunc is an explicit task body.
type TaskFunc = omp.TaskFunc

// TaskOpt is a task-creation clause (If, Final, Untied).
type TaskOpt = omp.TaskOpt

// Listener receives the runtime's POMP2-style event stream, one call
// per instant. The runtime reads the clock once per call and passes the
// reading as every method's last argument, now, to each listener of the
// session: TaskEnd(t, tk, resume, now) is tk's end and the resumption of
// resume (nil: the implicit task) at now.
type Listener = omp.Listener

// ThreadProfile is one thread's (location's) profile.
type ThreadProfile = core.ThreadProfile

// Report is an aggregated cross-thread profile.
type Report = cube.Report

// ReportNode is a node of the aggregated profile.
type ReportNode = cube.Node

// RenderOptions controls text rendering of reports.
type RenderOptions = cube.RenderOptions

// Region is an interned source-region descriptor.
type Region = region.Region

// RegionType classifies regions.
type RegionType = region.Type

// Clock is the measurement time source interface.
type Clock = clock.Clock

// Region types, re-exported for instrumentation code.
const (
	RegionFunction        = region.UserFunction
	RegionParallel        = region.Parallel
	RegionTask            = region.Task
	RegionTaskCreate      = region.TaskCreate
	RegionTaskwait        = region.Taskwait
	RegionBarrier         = region.Barrier
	RegionImplicitBarrier = region.ImplicitBarrier
	RegionSingle          = region.Single
	RegionMaster          = region.Master
	RegionCritical        = region.Critical
	RegionLoop            = region.Loop
)

// RegisterRegion interns a region descriptor in the default registry.
func RegisterRegion(name, file string, line int, typ RegionType) *Region {
	return region.MustRegister(name, file, line, typ)
}

// AggregateReport merges per-thread profiles into a report.
func AggregateReport(locations []*ThreadProfile) *Report {
	return cube.Aggregate(locations)
}

// RenderReport writes a report as a text tree (the CUBE-view analog).
func RenderReport(w io.Writer, r *Report, opt RenderOptions) error {
	return cube.Render(w, r, opt)
}

// WriteReportJSON serializes a report.
func WriteReportJSON(w io.Writer, r *Report) error { return cube.WriteJSON(w, r) }

// ReadReportJSON deserializes a report written by WriteReportJSON.
func ReadReportJSON(rd io.Reader) (*Report, error) {
	return cube.ReadJSON(rd, region.NewRegistry())
}

// WriteReportCSV emits the report as CSV rows.
func WriteReportCSV(w io.Writer, r *Report) error { return cube.WriteCSV(w, r) }

// InstrumentFunction wraps a user function body with enter/exit events
// (compiler-instrumentation analog).
func InstrumentFunction(t *Thread, r *Region, fn func()) { pomp.Function(t, r, fn) }

// ParameterInt records parameter instrumentation on the current call
// path (the paper's Table IV mechanism).
func ParameterInt(t *Thread, name string, value int64) { pomp.ParameterInt(t, name, value) }

// ParameterString records string-valued parameter instrumentation.
func ParameterString(t *Thread, name, value string) { pomp.ParameterString(t, name, value) }

// SchedulerKind selects the runtime's task scheduler.
type SchedulerKind = omp.SchedulerKind

// Scheduler kinds: the central team queue models the libgomp version the
// paper evaluated (default); work stealing is the modern alternative
// exposed for ablations.
const (
	SchedCentralQueue = omp.SchedCentralQueue
	SchedWorkStealing = omp.SchedWorkStealing
)

// TeamStats reports the scheduler counters of the last parallel region:
// task totals, steal/steal-attempt/park/wake counts and the per-thread
// steal histogram. Obtain it from Runtime.LastTeamStats.
type TeamStats = omp.TeamStats

// Trace is a finished event-trace recording.
type Trace = trace.Trace

// TraceAnalysis holds trace-derived management/execution metrics.
type TraceAnalysis = trace.Analysis

// TraceEvent is one trace record, the unit a TraceEventSink receives.
type TraceEvent = trace.Event

// TraceEventSink receives per-thread event chunks flushed by a
// streaming trace recorder; a TraceArchiveWriter is one.
type TraceEventSink = trace.EventSink

// TraceArchiveWriter streams events into a compact binary archive (the
// OTF2-style format; see internal/otf2 for the layout specification).
type TraceArchiveWriter = otf2.Writer

// TraceCompression selects the archive's per-chunk event compression.
type TraceCompression = otf2.Compression

// Trace archive compression methods.
const (
	// TraceCompressionNone stores event chunks verbatim (the default).
	TraceCompressionNone = otf2.CompressionNone
	// TraceCompressionFlate DEFLATE-compresses each sealed event chunk;
	// chunks stay independently decodable, so seeking and parallel
	// decode are unaffected.
	TraceCompressionFlate = otf2.CompressionFlate
)

// NewTraceArchiveWriter starts an uncompressed binary trace archive on
// w, the sink of a WithStreamingTrace session.
func NewTraceArchiveWriter(w io.Writer) *TraceArchiveWriter { return otf2.NewWriter(w) }

// TraceSinkServer is the daemon side of the measurement service:
// sharded ingest of many concurrent client streams, one archive per
// stream (cmd/scorep-daemon wraps it; embed it for in-process fleets).
type TraceSinkServer = sink.Server

// TraceSinkServerOption configures a TraceSinkServer.
type TraceSinkServerOption = sink.ServerOption

// TraceSinkStreamInfo describes one stream a TraceSinkServer ingested.
type TraceSinkStreamInfo = sink.StreamInfo

// NewTraceSinkServer creates a measurement-service server ingesting
// shards into dir. Drive it with Serve on a listener (or ServeConn for
// in-process streams), Close it, then seal the fleet experiment with
// SaveFleetExperiment over its Streams.
func NewTraceSinkServer(dir string, opts ...TraceSinkServerOption) (*TraceSinkServer, error) {
	return sink.NewServer(dir, opts...)
}

// AnalyzeTraceArchive runs the trace analysis directly over the part of
// a binary archive matching q, in O(workers x chunk) memory and without
// loading the trace. The analysis is reflect.DeepEqual-identical to
// Results.TraceAnalysis of the same recording at every worker count; an
// archive cut off mid-chunk yields its intact prefix's analysis together
// with an error.
func AnalyzeTraceArchive(r io.Reader, q TraceQuery, workers int) (*TraceAnalysis, TraceQueryStats, error) {
	a := trace.NewAnalyzer()
	st, err := otf2.Scan(r, q, workers, a)
	if err != nil && !errors.Is(err, otf2.ErrTruncated) {
		return nil, st, err
	}
	return a.Finish(), st, err
}

// TraceArchiveStats describes an archive file's physical layout —
// format version, footer index, per-thread chunk counts, compression
// effectiveness, and (for flight-recorder dumps) the embedded eviction
// accounting.
type TraceArchiveStats = otf2.ArchiveStats

// StatTraceArchive reads an archive file's layout statistics without
// decoding its events (see scorep-convert -stats).
func StatTraceArchive(path string) (*TraceArchiveStats, error) { return otf2.StatFile(path) }

// TraceQuery selects a slice of a trace: a time window (inclusive, when
// Windowed is set) and/or a thread subset (nil Threads means all). The
// zero TraceQuery matches everything. Every query-taking API —
// AnalyzeTraceArchive, Experiment, the CLI -window/-threads flags — is
// defined against the same reference: filter the fully decoded trace
// with TraceQuery.Filter, then proceed as usual.
type TraceQuery = trace.Query

// TraceQueryStats reports how a query executed: whether the archive's
// footer index drove chunk selection, and how many of the archive's
// event chunks were actually read.
type TraceQueryStats = otf2.QueryStats

// BottleneckAnalysis is the Scalasca-style automatic bottleneck report:
// wait-state classification with root-cause attribution (late task
// spawn, starved thief, barrier imbalance), the task-graph critical
// path, and per-region what-if savings projections. See the "Bottleneck
// analysis" section of the package documentation for the detection
// rules.
type BottleneckAnalysis = bottleneck.Analysis

// BottleneckWaitState is one classified wait aggregate of a bottleneck
// analysis.
type BottleneckWaitState = bottleneck.WaitState

// BottleneckCriticalPath is the reconstructed task-graph critical path.
type BottleneckCriticalPath = bottleneck.CriticalPath

// BottleneckFleetSummary aggregates per-shard bottleneck analyses of a
// fleet experiment.
type BottleneckFleetSummary = bottleneck.FleetSummary

// ReportDiff is a structural diff of two reports of the same program —
// the run-comparison workflow enabled by the paper's runtime-independent
// call-tree structure (Section IV-B3).
type ReportDiff = cube.ReportDiff

// DiffNode is one node of a report diff.
type DiffNode = cube.DiffNode

// DiffReports structurally diffs baseline a against candidate b.
func DiffReports(a, b *Report) *ReportDiff { return cube.Diff(a, b) }

// RenderReportDiff writes a report diff as a text tree.
func RenderReportDiff(w io.Writer, rd *ReportDiff) error { return cube.RenderDiff(w, rd) }

// Finding is one automatically diagnosed tasking inefficiency.
type Finding = analyze.Finding

// FindingKind identifies the diagnosis pattern behind a Finding or a
// classified wait state.
type FindingKind = analyze.Kind

// AnalyzeReport diagnoses tasking inefficiencies in a report using the
// paper's Section III patterns (small tasks, creation overhead, single
// creator, barrier waiting, task shortage) with default thresholds.
func AnalyzeReport(r *Report) []Finding {
	return analyze.Analyze(r, analyze.Thresholds{})
}

// FormatFindings renders findings as text.
func FormatFindings(w io.Writer, fs []Finding) { analyze.Format(w, fs) }

// If models the OpenMP if(expr) task clause.
func If(expr bool) TaskOpt { return omp.If(expr) }

// Final models the OpenMP final(expr) task clause.
func Final(expr bool) TaskOpt { return omp.Final(expr) }

// Untied models the untied clause; tasks are demoted to tied, the
// paper's Section IV-D work-around.
func Untied() TaskOpt { return omp.Untied() }
