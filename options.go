package scorep

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/otf2"
	"repro/internal/sink"
)

// Option configures a Session. Options are applied in order; later
// options override earlier ones, which lets NewSessionFromEnv layer the
// environment over programmatic defaults.
type Option func(*sessionConfig)

// sessionConfig is the resolved measurement-environment configuration.
// It is assembled by NewSession from the options and recorded verbatim
// in the experiment archive's meta.json.
type sessionConfig struct {
	profiling       bool
	tracing         bool
	streamingSink   TraceEventSink
	streamingChunk  int
	remoteAddr      string
	remoteStream    string
	remoteRetry     *remoteRetryConfig
	remoteReconnect *remoteReconnectConfig
	remoteFallback  *string // nil: auto (expDir/fallback.otf2), "": disabled
	filters         []string
	sched           SchedulerKind
	clk             Clock
	extra           []Listener
	expDir          string
	analysisWorkers int
	traceComp       TraceCompression

	// Flight-recorder configuration: flightRing > 0 selects the
	// ring-buffer tracing mode; dumpSignal/dumpSignalSet and btTrigger
	// arm the automatic dump triggers.
	flightRing    int
	flightChunk   int
	dumpSignal    os.Signal
	dumpSignalSet bool
	btTrigger     *bottleneckTriggerConfig
}

type bottleneckTriggerConfig struct {
	minSeverity float64
	interval    time.Duration
}

func defaultConfig() sessionConfig {
	// Profiling on, tracing off: Score-P's defaults
	// (SCOREP_ENABLE_PROFILING=true, SCOREP_ENABLE_TRACING=false).
	return sessionConfig{profiling: true, sched: SchedCentralQueue}
}

// WithProfiling enables call-path profiling (the default). Session.End
// then exposes the aggregated profile via Results.Report.
func WithProfiling() Option {
	return func(c *sessionConfig) { c.profiling = true }
}

// WithoutProfiling disables profiling — the uninstrumented baseline of
// the overhead experiments, or a pure tracing run.
func WithoutProfiling() Option {
	return func(c *sessionConfig) { c.profiling = false }
}

// WithTracing enables in-memory event tracing. The session records into
// a trace archive it keeps in memory — each thread stages its events in
// a block and encodes a full block into the archive's chunks, about six
// bytes an event — and Session.End closes that archive. Results.Trace
// decodes it on first use, Results.TraceAnalysis and Bottlenecks scan
// it, SaveExperiment copies it. For runs whose trace may outgrow memory
// even so, use WithStreamingTrace. Combined with profiling (the default),
// the session wires the fused profiling+tracing Tee: both listeners
// share one clock read per event and see identical timestamps.
func WithTracing() Option {
	return func(c *sessionConfig) {
		c.tracing = true
		c.streamingSink = nil
		c.remoteAddr = ""
		c.flightRing = 0
	}
}

// WithoutTracing disables event tracing (the default), overriding an
// earlier WithTracing/WithStreamingTrace — the programmatic form of
// SCOREP_ENABLE_TRACING=false.
func WithoutTracing() Option {
	return func(c *sessionConfig) {
		c.tracing = false
		c.streamingSink = nil
		c.remoteAddr = ""
		c.flightRing = 0
	}
}

// WithStreamingTrace enables bounded-memory event tracing: full
// per-thread chunks of chunkEvents events are flushed to sink
// (typically a TraceArchiveWriter) instead of accumulating in RAM.
// chunkEvents <= 0 picks a default. The sink is owned by the caller:
// close it after Session.End, which surfaces the first sink write error.
// Results.Trace returns nil in this mode — the recording lives in
// whatever the sink wrote.
func WithStreamingTrace(sink TraceEventSink, chunkEvents int) Option {
	return func(c *sessionConfig) {
		c.tracing = true
		c.streamingSink = sink
		c.streamingChunk = chunkEvents
		c.remoteAddr = ""
		c.flightRing = 0
	}
}

// WithRemoteTrace streams the event trace to a scorep-daemon
// measurement service at addr ("unix:///path.sock", "tcp://host:port",
// or a bare host:port) instead of keeping or saving it locally — the
// multi-process measurement mode, where each process's stream becomes
// one shard of the daemon's fleet experiment. It implies tracing, in
// the bounded-memory streaming mode: events are encoded through the
// per-thread archive writer and shipped by a background sender with
// bounded buffering, blocking the producer when the daemon falls
// behind.
//
// The connection is established lazily with retry/backoff, so the
// daemon may still be starting when the session begins. A malformed
// address, a connect failure after retries, or any transport error
// surfaces at Session.End, which closes the stream and waits for the
// daemon's seal acknowledgment.
func WithRemoteTrace(addr string) Option {
	return func(c *sessionConfig) {
		c.tracing = true
		c.streamingSink = nil
		c.remoteAddr = addr
		c.flightRing = 0
	}
}

// WithFlightRecorder enables flight-recorder tracing: an always-on
// bounded recording that retains only the most recent window of each
// thread's event stream — ringChunks sealed chunks per thread (<= 0
// picks the default, 8), oldest chunk evicted first with the evicted
// events counted per thread. Memory is O(threads x ring), forever, so
// the mode can stay on in production runs of any length. The window is
// materialized on demand as a complete, valid trace archive by
// Session.DumpFlightRecorder, the configured dump signal (SIGUSR1 by
// default; see WithDumpSignal), Session.DumpOnPanic, or the bottleneck
// threshold trigger (WithBottleneckTrigger); at End the retained window
// becomes the Results' recording like a local session's, with its
// eviction accounting in Results.FlightRecorder and meta.json.
//
// Flight recording is an exclusive tracing mode: it overrides an
// earlier WithStreamingTrace/WithRemoteTrace, and a later one overrides
// it.
func WithFlightRecorder(ringChunks int) Option {
	return func(c *sessionConfig) {
		c.tracing = true
		c.streamingSink = nil
		c.remoteAddr = ""
		c.flightRing = ringChunks
		if c.flightRing <= 0 {
			c.flightRing = DefaultFlightRingChunks
		}
	}
}

// WithFlightChunkEvents sets the flight recorder's chunk granularity:
// events per sealed ring chunk (<= 0 picks the default, 4096). The
// retained window is ringChunks x chunkEvents events per thread, plus
// the block being filled. Ignored without WithFlightRecorder.
func WithFlightChunkEvents(n int) Option {
	return func(c *sessionConfig) { c.flightChunk = n }
}

// WithDumpSignal selects the OS signal that triggers a flight-recorder
// dump (default SIGUSR1). The dump is written to an automatically
// numbered directory — flight-NNN under the experiment directory when
// one is configured, scorep-flight-NNN in the working directory
// otherwise. Passing nil disables the signal trigger. Ignored without
// WithFlightRecorder.
func WithDumpSignal(sig os.Signal) Option {
	return func(c *sessionConfig) {
		c.dumpSignal = sig
		c.dumpSignalSet = true
	}
}

// WithBottleneckTrigger arms the analysis-driven dump trigger of a
// flight-recorder session: every interval (<= 0 picks 1s) the retained
// window is dumped into memory and run through the bottleneck analysis, and
// when any finding's severity reaches minSeverity (clamped to [0,1];
// severities are wait time over the run's total thread-time budget) a
// dump is written to an automatically numbered directory and the
// trigger disarms — one dump per session, capturing the window that
// first showed the problem. Ignored without WithFlightRecorder.
func WithBottleneckTrigger(minSeverity float64, interval time.Duration) Option {
	return func(c *sessionConfig) {
		c.btTrigger = &bottleneckTriggerConfig{minSeverity: minSeverity, interval: interval}
	}
}

// WithRemoteTraceStream names this process's stream — and thereby its
// shard file, trace-<id>.otf2, in the daemon's fleet experiment. The
// default is pid-derived and unique per host; the daemon additionally
// uniquifies collisions. Ignored without WithRemoteTrace.
func WithRemoteTraceStream(id string) Option {
	return func(c *sessionConfig) { c.remoteStream = id }
}

type remoteRetryConfig struct {
	attempts int
	backoff  time.Duration
}

type remoteReconnectConfig struct {
	attempts int
	backoff  time.Duration
	budget   time.Duration
}

// WithRemoteTraceRetry shapes the remote sink's initial connect loop:
// up to attempts dials with a jittered doubling backoff between them
// (attempts <= 1 means a single attempt; backoff <= 0 keeps the
// default). Ignored without WithRemoteTrace.
func WithRemoteTraceRetry(attempts int, backoff time.Duration) Option {
	return func(c *sessionConfig) {
		c.remoteRetry = &remoteRetryConfig{attempts: attempts, backoff: backoff}
	}
}

// WithRemoteTraceReconnect shapes the remote sink's per-outage
// reconnect loop — a severed connection or restarted daemon is
// survived by up to attempts redials (jittered doubling backoff,
// bounded by a total elapsed budget per outage) and byte-exact resume.
// attempts <= 0 disables reconnection: a severed connection is then
// terminal (or degrades to the fallback archive). Ignored without
// WithRemoteTrace.
func WithRemoteTraceReconnect(attempts int, backoff, budget time.Duration) Option {
	return func(c *sessionConfig) {
		c.remoteReconnect = &remoteReconnectConfig{attempts: attempts, backoff: backoff, budget: budget}
	}
}

// WithRemoteTraceFallback names the local archive file a remote-tracing
// session spills the trace to when the daemon is lost for good (connect
// or reconnect budget exhausted, unresumable gap, daemon-reported
// ingest failure) — the run then still ends with a lossless local
// recording, noted in meta.json as RemoteFallback. The default is
// automatic: <experiment dir>/fallback.otf2 when an experiment
// directory is configured, otherwise no fallback. An empty path
// disables spilling entirely (terminal transport failures surface as
// errors at End). Ignored without WithRemoteTrace.
func WithRemoteTraceFallback(path string) Option {
	return func(c *sessionConfig) { c.remoteFallback = &path }
}

// WithFilter gives the profiling measurement region filter patterns —
// Score-P's measurement filtering, the standard remedy when
// instrumentation of small functions dominates overhead. Patterns
// ending in '*' exclude by prefix, others by exact region name;
// construct regions (parallel/task/barriers/taskwaits) always pass
// through. The filter applies to profiling only; a trace records the
// full event stream.
func WithFilter(patterns ...string) Option {
	return func(c *sessionConfig) { c.filters = append(c.filters, patterns...) }
}

// WithScheduler selects the runtime's task scheduler (default
// SchedCentralQueue, the libgomp model the paper evaluated;
// SchedWorkStealing is the modern alternative).
func WithScheduler(kind SchedulerKind) Option {
	return func(c *sessionConfig) { c.sched = kind }
}

// WithClock sets the measurement time source for profiles and traces
// (default: the monotonic system clock). Tests use a manual clock for
// deterministic results.
func WithClock(clk Clock) Option {
	return func(c *sessionConfig) { c.clk = clk }
}

// WithListener attaches an extra listener to the runtime's event
// stream, alongside whatever the session itself wires up (custom
// counters, debugging taps, ...).
func WithListener(extra Listener) Option {
	return func(c *sessionConfig) {
		if extra != nil {
			c.extra = append(c.extra, extra)
		}
	}
}

// WithAnalysisParallelism sets the worker count used by
// Results.TraceAnalysis to derive the trace metrics: per-thread event
// streams are independent (as in Scalasca's parallel trace analysis),
// so the analysis shards across workers and merges deterministically —
// the result is identical at every worker count. workers <= 0 (the
// default) uses one worker per processor; workers == 1 forces the
// strictly sequential path. The parallelism is an analysis-time knob
// only: it affects neither the measurement nor the archived data.
func WithAnalysisParallelism(workers int) Option {
	return func(c *sessionConfig) { c.analysisWorkers = workers }
}

// WithTraceCompression selects the compression of archived trace
// event chunks (default TraceCompressionNone). It applies wherever the
// session itself writes an archive: the trace.otf2 of an experiment
// directory or a flight-recorder dump. A WithStreamingTrace sink is
// the caller's and writes what it was built to write. Chunks stay
// independently decodable, so seeking, time-window queries and
// parallel decode are unaffected.
func WithTraceCompression(c TraceCompression) Option {
	return func(cfg *sessionConfig) { cfg.traceComp = c }
}

// WithExperimentDirectory sets the on-disk experiment archive
// directory: Session.End automatically calls Results.SaveExperiment on
// it, the analog of Score-P's scorep-<name>/ output directory
// (SCOREP_EXPERIMENT_DIRECTORY).
func WithExperimentDirectory(dir string) Option {
	return func(c *sessionConfig) { c.expDir = dir }
}

// Score-P-style environment variables honored by NewSessionFromEnv.
const (
	EnvEnableProfiling     = "SCOREP_ENABLE_PROFILING"      // bool: profile the run (default true)
	EnvEnableTracing       = "SCOREP_ENABLE_TRACING"        // bool: record an event trace (default false)
	EnvFiltering           = "SCOREP_FILTERING"             // comma-separated region filter patterns
	EnvExperimentDirectory = "SCOREP_EXPERIMENT_DIRECTORY"  // experiment archive directory, saved at End
	EnvTaskScheduler       = "SCOREP_TASK_SCHEDULER"        // "central-queue" or "work-stealing"
	EnvTraceCompression    = "SCOREP_TRACE_COMPRESSION"     // "none" or "flate": archived trace compression
	EnvTraceSink           = "SCOREP_TRACE_SINK"            // scorep-daemon address: stream the trace remotely
	EnvTraceSinkRetries    = "SCOREP_TRACE_SINK_RETRIES"    // int: initial connect attempts to the daemon
	EnvTraceSinkReconnects = "SCOREP_TRACE_SINK_RECONNECTS" // int: reconnect attempts per outage (0 disables)
	EnvTraceSinkFallback   = "SCOREP_TRACE_SINK_FALLBACK"   // path: local spill archive ("off" disables)
	EnvFlightRecorder      = "SCOREP_FLIGHT_RECORDER"       // bool or ring size: flight-recorder tracing
	EnvDumpSignal          = "SCOREP_DUMP_SIGNAL"           // signal name triggering a dump ("none" disables)
)

// NewSessionFromEnv creates a session configured from Score-P-style
// environment variables, layered over the given base options (the
// environment wins, like Score-P's runtime configuration overriding
// compiled-in defaults). Unset variables leave the base configuration
// untouched; malformed values are reported as errors rather than
// silently ignored.
func NewSessionFromEnv(opts ...Option) (*Session, error) {
	envOpts, err := optionsFromEnv()
	if err != nil {
		return nil, err
	}
	return NewSession(append(append([]Option{}, opts...), envOpts...)...), nil
}

func optionsFromEnv() ([]Option, error) {
	var opts []Option
	if v, ok := os.LookupEnv(EnvEnableProfiling); ok {
		on, err := parseEnvBool(EnvEnableProfiling, v)
		if err != nil {
			return nil, err
		}
		if on {
			opts = append(opts, WithProfiling())
		} else {
			opts = append(opts, WithoutProfiling())
		}
	}
	if v, ok := os.LookupEnv(EnvEnableTracing); ok {
		on, err := parseEnvBool(EnvEnableTracing, v)
		if err != nil {
			return nil, err
		}
		if on {
			// Unlike WithTracing, keep a programmatically configured
			// streaming sink: the variable says "trace", not "trace in
			// memory".
			opts = append(opts, func(c *sessionConfig) { c.tracing = true })
		} else {
			opts = append(opts, WithoutTracing())
		}
	}
	if v, ok := os.LookupEnv(EnvFiltering); ok {
		var patterns []string
		for _, p := range strings.Split(v, ",") {
			if p = strings.TrimSpace(p); p != "" {
				patterns = append(patterns, p)
			}
		}
		// The environment wins: its pattern list replaces compiled-in
		// filters (unlike WithFilter, which appends), and an empty value
		// disables filtering altogether.
		opts = append(opts, func(c *sessionConfig) { c.filters = patterns })
	}
	if v, ok := os.LookupEnv(EnvExperimentDirectory); ok && v != "" {
		opts = append(opts, WithExperimentDirectory(v))
	}
	if v, ok := os.LookupEnv(EnvTaskScheduler); ok {
		kind, err := parseSchedulerName(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", EnvTaskScheduler, err)
		}
		opts = append(opts, WithScheduler(kind))
	}
	if v, ok := os.LookupEnv(EnvTraceCompression); ok {
		comp, err := otf2.ParseCompression(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", EnvTraceCompression, err)
		}
		opts = append(opts, WithTraceCompression(comp))
	}
	if v, ok := os.LookupEnv(EnvTraceSink); ok && v != "" {
		// Validate eagerly: a typo in the address should fail the run's
		// start, not be discovered at End after measuring for an hour.
		if _, _, err := sink.SplitAddr(v); err != nil {
			return nil, fmt.Errorf("%s: %w", EnvTraceSink, err)
		}
		opts = append(opts, WithRemoteTrace(v))
	}
	if v, ok := os.LookupEnv(EnvTraceSinkRetries); ok {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("%s: invalid attempt count %q (want an integer >= 1)", EnvTraceSinkRetries, v)
		}
		opts = append(opts, WithRemoteTraceRetry(n, 0))
	}
	if v, ok := os.LookupEnv(EnvTraceSinkReconnects); ok {
		n, err := strconv.Atoi(strings.TrimSpace(v))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%s: invalid attempt count %q (want an integer >= 0)", EnvTraceSinkReconnects, v)
		}
		opts = append(opts, WithRemoteTraceReconnect(n, 0, 0))
	}
	if v, ok := os.LookupEnv(EnvTraceSinkFallback); ok {
		switch strings.ToLower(strings.TrimSpace(v)) {
		case "off", "none":
			v = ""
		}
		opts = append(opts, WithRemoteTraceFallback(v))
	}
	if v, ok := os.LookupEnv(EnvFlightRecorder); ok {
		// Boolean spellings toggle the mode with the default ring; an
		// integer >= 1 both enables it and sets the ring depth.
		if on, err := parseEnvBool(EnvFlightRecorder, v); err == nil {
			if on {
				opts = append(opts, WithFlightRecorder(0))
			} else {
				opts = append(opts, func(c *sessionConfig) { c.flightRing = 0 })
			}
		} else if n, nerr := strconv.Atoi(strings.TrimSpace(v)); nerr == nil && n >= 1 {
			opts = append(opts, WithFlightRecorder(n))
		} else {
			return nil, fmt.Errorf("%s: invalid flight-recorder setting %q (want a boolean or a ring size >= 1)",
				EnvFlightRecorder, v)
		}
	}
	if v, ok := os.LookupEnv(EnvDumpSignal); ok {
		sig, err := parseSignalName(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", EnvDumpSignal, err)
		}
		opts = append(opts, WithDumpSignal(sig))
	}
	return opts, nil
}

// parseEnvBool accepts the spellings Score-P's configuration system
// does: true/false, yes/no, on/off, 1/0 (case-insensitive).
func parseEnvBool(name, v string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "true", "yes", "on", "1":
		return true, nil
	case "false", "no", "off", "0":
		return false, nil
	}
	return false, fmt.Errorf("%s: invalid boolean %q (want true/false, yes/no, on/off, 1/0)", name, v)
}

// parseSignalName maps a signal name to the os.Signal a dump trigger
// can listen for. The optional "SIG" prefix and case are ignored;
// "none" and "off" disable the trigger (nil signal).
func parseSignalName(v string) (os.Signal, error) {
	name := strings.ToUpper(strings.TrimSpace(v))
	name = strings.TrimPrefix(name, "SIG")
	switch name {
	case "NONE", "OFF", "":
		return nil, nil
	case "HUP":
		return syscall.SIGHUP, nil
	case "INT":
		return syscall.SIGINT, nil
	case "QUIT":
		return syscall.SIGQUIT, nil
	case "USR1":
		return syscall.SIGUSR1, nil
	case "USR2":
		return syscall.SIGUSR2, nil
	case "TERM":
		return syscall.SIGTERM, nil
	}
	return nil, fmt.Errorf("unknown signal %q (want HUP, INT, QUIT, USR1, USR2, TERM, or \"none\")", v)
}

// parseSchedulerName maps a scheduler name (as printed by
// SchedulerKind.String) back to its kind.
func parseSchedulerName(v string) (SchedulerKind, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "central-queue", "central":
		return SchedCentralQueue, nil
	case "work-stealing", "stealing":
		return SchedWorkStealing, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q (want %q or %q)",
		v, SchedCentralQueue, SchedWorkStealing)
}
