package scorep

import (
	"errors"
	"io"
	"time"

	"repro/internal/analyze"
	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/measure"
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

// Listener receives the runtime's POMP2-style event stream.
type Listener = omp.Listener

// Measurement translates runtime events into per-thread task-aware
// profiles (the Score-P measurement core).
type Measurement = measure.Measurement

// ThreadProfile is one thread's (location's) profile.
type ThreadProfile = core.ThreadProfile

// ProfileNode is a call-tree node of a thread profile.
type ProfileNode = core.Node

// TaskInstance is the profiling state of one active task instance.
type TaskInstance = core.TaskInstance

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

// NewRuntime creates a runtime emitting events to l. Pass a
// *Measurement to profile, or nil for an uninstrumented runtime.
func NewRuntime(l Listener) *Runtime {
	if l == nil {
		// An explicitly nil listener must also compare equal to nil
		// through the interface, so plain nil is passed on.
		return omp.NewRuntime(nil)
	}
	return omp.NewRuntime(l)
}

// NewMeasurement creates a measurement using the monotonic system clock.
func NewMeasurement() *Measurement { return measure.New() }

// NewMeasurementWithClock creates a measurement with an explicit clock
// (tests use a manual clock for deterministic profiles).
func NewMeasurementWithClock(clk Clock) *Measurement {
	return measure.NewWithClock(clk, region.Default)
}

// NewManualClock returns a deterministic test clock starting at start.
func NewManualClock(start int64) *clock.Manual { return clock.NewManual(start) }

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

// TraceRecorder records the runtime's event stream as an event trace
// (the OTF2/tracing side of Score-P).
type TraceRecorder = trace.Recorder

// Trace is a finished event-trace recording.
type Trace = trace.Trace

// TraceAnalysis holds trace-derived management/execution metrics.
type TraceAnalysis = trace.Analysis

// NewTee fans the runtime event stream out to several listeners, e.g. a
// Measurement and a TraceRecorder simultaneously. The canonical
// (Measurement, TraceRecorder) pair sharing one clock — what
// NewSession(WithTracing()) wires, filtered or not — takes a fused fast
// path: one clock read per event feeds both listeners with identical
// timestamps and no interface dispatch.
func NewTee(listeners ...Listener) Listener { return trace.NewTee(listeners...) }

// AnalyzeTrace derives the paper's §VII metrics (dispatch latency,
// management/execution ratio) from the part of a recorded trace matching
// q (the zero TraceQuery: all of it) on up to workers goroutines, one per
// trace thread at a time (<= 0: one per processor). The result is
// reflect.DeepEqual-identical at every worker count.
func AnalyzeTrace(tr *Trace, q TraceQuery, workers int) *TraceAnalysis {
	a := trace.NewAnalyzer()
	trace.Scan(tr, q, workers, a)
	return a.Finish()
}

// WriteTraceJSONL serializes a trace as JSON Lines.
func WriteTraceJSONL(w io.Writer, tr *Trace) error { return trace.WriteJSONL(w, tr) }

// ReadTraceJSONL deserializes a trace written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) (*Trace, error) {
	return trace.ReadJSONL(r, region.NewRegistry())
}

// TraceEvent is one trace record, the unit a TraceEventSink receives.
type TraceEvent = trace.Event

// TraceEventSink receives per-thread event chunks flushed by a
// streaming trace recorder; a TraceArchiveWriter is one.
type TraceEventSink = trace.EventSink

// TraceArchiveWriter streams events into a compact binary archive (the
// OTF2-style format; see internal/otf2 for the layout specification).
type TraceArchiveWriter = otf2.Writer

// TraceArchiveOption configures a TraceArchiveWriter (compression, chunk
// size).
type TraceArchiveOption = otf2.WriterOption

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

// ParseTraceCompression maps a compression name ("none", "flate") to
// its method, accepting "" as none.
func ParseTraceCompression(s string) (TraceCompression, error) {
	return otf2.ParseCompression(s)
}

// TraceArchiveCompression returns an option selecting the archive's
// event-chunk compression.
func TraceArchiveCompression(c TraceCompression) TraceArchiveOption {
	return otf2.WithCompression(c)
}

// NewTraceArchiveWriter starts a binary trace archive on w.
func NewTraceArchiveWriter(w io.Writer, opts ...TraceArchiveOption) *TraceArchiveWriter {
	return otf2.NewWriter(w, opts...)
}

// TraceSinkClient streams one process's event trace to a scorep-daemon
// measurement service (see WithRemoteTrace for the session-integrated
// form). It is a TraceEventSink: events encode through the per-thread
// archive-writer path into a bounded frame buffer drained by a
// background sender.
type TraceSinkClient = sink.Client

// TraceSinkServer is the daemon side of the measurement service:
// sharded ingest of many concurrent client streams, one archive per
// stream (cmd/scorep-daemon wraps it; embed it for in-process fleets).
type TraceSinkServer = sink.Server

// TraceSinkClientOption configures a TraceSinkClient.
type TraceSinkClientOption = sink.ClientOption

// TraceSinkServerOption configures a TraceSinkServer.
type TraceSinkServerOption = sink.ServerOption

// TraceSinkStreamInfo describes one stream a TraceSinkServer ingested.
type TraceSinkStreamInfo = sink.StreamInfo

// TraceSinkBackpressure selects a client's full-buffer policy.
type TraceSinkBackpressure = sink.BackpressurePolicy

// Backpressure policies for a TraceSinkClient whose daemon falls
// behind: block the producer (lossless, the default) or drop whole
// event batches before encoding, counting them.
const (
	TraceSinkBlock = sink.BackpressureBlock
	TraceSinkDrop  = sink.BackpressureDrop
)

// DialTraceSink creates a client streaming to the daemon at addr
// ("unix:///path.sock", "tcp://host:port", or a bare host:port). The
// connection is established lazily with retry/backoff. Close the
// client after the recorder's Finish; Close seals the stream and
// surfaces daemon-side failures. Sessions normally use WithRemoteTrace
// instead; Dial is the power-user form for custom recorders or
// non-default backpressure.
func DialTraceSink(addr string, opts ...TraceSinkClientOption) (*TraceSinkClient, error) {
	return sink.Dial(addr, opts...)
}

// NewTraceSinkServer creates a measurement-service server ingesting
// shards into dir. Drive it with Serve on a listener (or ServeConn for
// in-process streams), Close it, then seal the fleet experiment with
// SaveFleetExperiment over its Streams.
func NewTraceSinkServer(dir string, opts ...TraceSinkServerOption) (*TraceSinkServer, error) {
	return sink.NewServer(dir, opts...)
}

// TraceSinkStreamID names the client's stream and thereby its shard
// file (trace-<id>.otf2) in the daemon's fleet experiment.
func TraceSinkStreamID(id string) TraceSinkClientOption { return sink.WithStreamID(id) }

// TraceSinkBufferBytes bounds the client's framed send buffer.
func TraceSinkBufferBytes(n int) TraceSinkClientOption { return sink.WithBufferBytes(n) }

// TraceSinkBackpressurePolicy selects the client's full-buffer policy
// (default TraceSinkBlock).
func TraceSinkBackpressurePolicy(p TraceSinkBackpressure) TraceSinkClientOption {
	return sink.WithBackpressure(p)
}

// TraceSinkDialRetry shapes the client's initial connect loop: up to
// attempts dials with a jittered doubling backoff between them.
func TraceSinkDialRetry(attempts int, backoff time.Duration) TraceSinkClientOption {
	return sink.WithDialRetry(attempts, backoff)
}

// TraceSinkReconnect shapes the client's per-outage reconnect loop — a
// severed connection or restarted daemon is survived by up to attempts
// redials (jittered doubling backoff, bounded by a total elapsed
// budget per outage) and byte-exact replay from the daemon's durable
// offset. attempts <= 0 disables reconnection.
func TraceSinkReconnect(attempts int, backoff, budget time.Duration) TraceSinkClientOption {
	return sink.WithReconnect(attempts, backoff, budget)
}

// TraceSinkReplayWindow sets how many daemon-acked bytes the client
// retains for crash-recovery replay: a restarted daemon whose durable
// offset regressed to a chunk boundary is resumed byte-exactly as long
// as the regression fits the window; a larger regression becomes an
// explicit, counted gap.
func TraceSinkReplayWindow(n int) TraceSinkClientOption {
	return sink.WithReplayWindow(n)
}

// TraceSinkFallbackArchive names a local archive the client spills the
// stream to, losslessly, when the daemon is lost for good (budget
// exhaustion, unresumable gap, ingest failure).
func TraceSinkFallbackArchive(path string) TraceSinkClientOption {
	return sink.WithFallbackArchive(path)
}

// TraceFlightInfo is the eviction accounting embedded in a
// flight-recorder dump archive (the 'F' chunk): how much the dump
// retained and how much the rings had evicted before it.
type TraceFlightInfo = otf2.FlightInfo

// TraceFlightThreadInfo is one thread's share of a TraceFlightInfo.
type TraceFlightThreadInfo = otf2.FlightThreadInfo

// WriteTraceArchive serializes a trace in the binary archive format —
// typically 15-20x smaller than WriteTraceJSONL (more with
// TraceArchiveCompression).
func WriteTraceArchive(w io.Writer, tr *Trace, opts ...TraceArchiveOption) error {
	return otf2.Write(w, tr, opts...)
}

// ReadTraceArchive loads the part of a binary trace archive matching q;
// q and workers as in AnalyzeTrace. The loaded trace equals q.Filter of
// the full decode: threads without matching events are absent. An
// archive cut off mid-chunk yields its intact prefix together with an
// error. See "Reading archives" in the package documentation for how an
// indexed archive is read.
func ReadTraceArchive(r io.Reader, q TraceQuery, workers int) (*Trace, TraceQueryStats, error) {
	return otf2.Load(r, region.NewRegistry(), q, workers)
}

// AnalyzeTraceArchive runs the trace analysis directly over the part of
// a binary archive matching q, in O(workers x chunk) memory and without
// loading the trace. The analysis is reflect.DeepEqual-identical to
// AnalyzeTrace of the same recording at every worker count; an archive
// cut off mid-chunk yields its intact prefix's analysis together with an
// error.
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
// zero TraceQuery matches everything. Every query-taking API — the
// archive readers here, Experiment, the CLI -window/-threads flags — is
// defined against the same reference: filter the fully decoded trace
// with TraceQuery.Filter, then proceed as usual.
type TraceQuery = trace.Query

// TraceQueryStats reports how a query executed: whether the archive's
// footer index drove chunk selection, and how many of the archive's
// event chunks were actually read.
type TraceQueryStats = otf2.QueryStats

// ParseTraceWindow parses a "t0:t1" time-window flag value (either
// bound may be empty for an open end) into inclusive bounds.
func ParseTraceWindow(s string) (minTime, maxTime int64, err error) {
	return trace.ParseWindow(s)
}

// ParseTraceThreads parses a comma-separated thread-ID list flag value
// into a sorted, deduplicated thread set.
func ParseTraceThreads(s string) ([]int, error) { return trace.ParseThreadList(s) }

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

// AnalyzeBottlenecks runs the bottleneck analysis over the part of an
// in-memory trace matching q; q and workers as in AnalyzeTrace. The
// result is identical at every worker count.
func AnalyzeBottlenecks(tr *Trace, q TraceQuery, workers int) *BottleneckAnalysis {
	c := bottleneck.NewCollector(workers)
	trace.Scan(tr, q, workers, c)
	return c.Finish()
}

// AnalyzeTraceArchiveBottlenecks runs the bottleneck analysis over the
// part of an archive matching q, with the same planned access and
// truncation salvage as AnalyzeTraceArchive.
func AnalyzeTraceArchiveBottlenecks(r io.Reader, q TraceQuery, workers int) (*BottleneckAnalysis, TraceQueryStats, error) {
	c := bottleneck.NewCollector(workers)
	st, err := otf2.Scan(r, q, workers, c)
	if err != nil && !errors.Is(err, otf2.ErrTruncated) {
		return nil, st, err
	}
	return c.Finish(), st, err
}

// MergeBottleneckAnalyses folds per-shard bottleneck analyses (keyed by
// shard stream id) into the fleet summary: per-kind fleet-summed wait
// totals with the worst shard each, and the longest critical path.
func MergeBottleneckAnalyses(shards map[string]*BottleneckAnalysis) *BottleneckFleetSummary {
	return bottleneck.MergeFleet(shards)
}

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

// NewFilter gives m exclusion patterns and returns it: the measurement
// then drops the events of excluded user regions — Score-P's measurement
// filtering, the standard remedy when instrumentation of small functions
// dominates overhead. Patterns ending in '*' exclude by prefix, others
// by exact region name. Construct regions (parallel/task/barriers/
// taskwaits) always pass through.
func NewFilter(m *Measurement, patterns ...string) *Measurement {
	return measure.NewFilter(m, patterns...)
}

// TimelineOptions controls trace timeline rendering.
type TimelineOptions = trace.TimelineOptions

// RenderTimeline writes per-thread task timelines of a trace (the
// plain-text Vampir-view counterpart).
func RenderTimeline(w io.Writer, tr *Trace, opt TimelineOptions) error {
	return trace.RenderTimeline(w, tr, opt)
}

// Utilization is a per-thread share-of-time summary of a trace.
type Utilization = trace.Utilization

// ComputeUtilization derives per-thread utilization from a trace.
func ComputeUtilization(tr *Trace) []Utilization { return trace.ComputeUtilization(tr) }

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
