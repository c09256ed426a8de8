// Package scorep (module "repro") is a Go reproduction of "Profiling of
// OpenMP Tasks with Score-P" (Lorenz, Philippen, Schmidl, Wolf;
// ICPP 2012): the first call-path profiler that remains correct for
// OpenMP 3.0 tied tasks.
//
// The package is the public facade over the internal implementation:
//
//   - an OpenMP-3.0-like tasking runtime (parallel regions, tied tasks,
//     taskwait, task-draining barriers, if/final clauses),
//   - the paper's task-aware call-path profiling algorithm (per-instance
//     call trees, stub nodes under scheduling points, suspend/resume time
//     subtraction, merged per-construct task trees),
//   - OTF2-style event tracing with bounded-memory recording and
//     out-of-core analysis,
//   - OPARI2/POMP2-style instrumentation wrappers,
//   - CUBE-like aggregation, rendering and serialization of profiles.
//
// # Session lifecycle
//
// Like Score-P, a measured run passes once through one configured
// measurement environment and leaves one experiment archive behind. The
// lifecycle is configure → run → End → Results → experiment archive:
//
//	s := scorep.NewSession(scorep.WithTracing())       // 1. configure
//
//	par := scorep.RegisterRegion("my.parallel", "main.go", 10, scorep.RegionParallel)
//	task := scorep.RegisterRegion("my.task", "main.go", 12, scorep.RegionTask)
//	tw := scorep.RegisterRegion("my.taskwait", "main.go", 14, scorep.RegionTaskwait)
//
//	s.Parallel(4, par, func(t *scorep.Thread) {        // 2. run
//	    if t.ID == 0 {
//	        for i := 0; i < 100; i++ {
//	            t.NewTask(task, func(c *scorep.Thread) { work() })
//	        }
//	        t.Taskwait(tw)
//	    }
//	})
//
//	res, err := s.End()                                // 3. finalize
//	scorep.RenderReport(os.Stdout, res.Report(), scorep.RenderOptions{})
//	res.TraceAnalysis()                                // §VII trace metrics
//	res.Findings()                                     // automatic diagnosis
//	err = res.SaveExperiment("scorep-myrun")           // 4. archive
//
// NewSession's functional options select the subsystems: WithProfiling
// (on by default) / WithoutProfiling, WithTracing or
// WithStreamingTrace(sink, chunkEvents) for traces larger than memory,
// WithFilter(patterns...) for measurement filtering,
// WithScheduler(kind), WithClock(clk), WithListener(extra),
// WithExperimentDirectory(dir) to save the archive automatically at
// End, and WithAnalysisParallelism(workers) to pin the worker count
// Results.TraceAnalysis shards over (default: one per processor; the
// analysis result is identical at every setting).
//
// A WithTracing session records the way Score-P does, into encoded
// chunks instead of a growing slice of event structs: each thread
// stages its events in a block of 4096, a full block is encoded into
// the thread's chunk buffer of an archive writer (see Trace formats),
// sealed chunks go into memory the session owns (64 KiB segments, so
// nothing written is ever copied to make room), and End closes the
// archive, index and trailer included. The Results holds those bytes —
// about 6 per event, pointer-free, where the structs took 32 — and
// reads them with the reader that reads a file: Results.Trace decodes
// them on first use, once; TraceAnalysis and Bottlenecks scan them
// unless the trace is already decoded; SaveExperiment writes them out
// as they are. It is the path of WithStreamingTrace with the session as
// its own sink, so the only failure it has is the writer's (a region
// name too long to encode), reported by End like a sink failure. Three
// things about it show:
//
//   - The trace.otf2 of a local session holds its chunks in the order
//     the threads sealed them, threads interleaved, like every streamed
//     archive and daemon shard, not thread by thread. Readers go by the
//     per-thread index and none depends on the order. With more than one
//     thread the file's bytes (chunk order, region numbering by first
//     use) differ from run to run even under a deterministic clock; the
//     decoded trace does not.
//   - The first Results.Trace costs one decode (about 10 ns an event on
//     two workers) and the events' 32 bytes each from then on. A flow
//     that records and saves (scorep-bots -exp, WithExperimentDirectory)
//     never pays either. WithTraceCompression is applied by
//     SaveExperiment, which then writes the decoded trace anew; no
//     recording thread compresses.
//   - Events come back referencing the regions of the default registry,
//     which for registered regions are the very descriptors the run
//     used. A region interned in some other registry comes back as the
//     equal descriptor interned in the default one.
//
// # Experiment archives
//
// Results.SaveExperiment(dir) writes the Score-P measurement-directory
// analog: profile.json (the CUBE-style report), trace.otf2 (the binary
// event trace) and meta.json (configuration, thread count, GOMAXPROCS,
// scheduler, wall time, format versions). scorep.OpenExperiment(dir)
// loads it back for offline analysis — scorep-report, scorep-analyze,
// scorep-timeline and scorep-convert all accept -exp <dir>. A trace cut
// off by a crashed run is salvaged to its intact prefix, reported via
// Experiment.Warnings.
//
// # Environment variables
//
// NewSessionFromEnv configures a session the way Score-P instruments
// are configured, from the environment (overriding any base options):
//
//   - SCOREP_ENABLE_PROFILING: enable call-path profiling
//     (true/false, yes/no, on/off, 1/0; default true).
//   - SCOREP_ENABLE_TRACING: record an event trace (same booleans;
//     default false).
//   - SCOREP_FILTERING: comma-separated region filter patterns;
//     a trailing '*' matches by prefix ("noisy_*,tiny_helper").
//   - SCOREP_EXPERIMENT_DIRECTORY: experiment archive directory;
//     Session.End saves the archive there automatically.
//   - SCOREP_TASK_SCHEDULER: "central-queue" (default, the libgomp
//     model the paper measured) or "work-stealing".
//   - SCOREP_TRACE_COMPRESSION: "none" (default) or "flate" — block
//     compression of the archived trace's event chunks (the
//     WithTraceCompression option; recorded in meta.json).
//   - SCOREP_TRACE_SINK: scorep-daemon address ("unix:///path.sock",
//     "tcp://host:port", or a bare host:port) — stream the trace to the
//     measurement service instead of keeping it locally (the
//     WithRemoteTrace option; implies tracing).
//   - SCOREP_TRACE_SINK_RETRIES: initial connect attempts to the
//     daemon, an integer >= 1 (the WithRemoteTraceRetry option).
//   - SCOREP_TRACE_SINK_RECONNECTS: reconnect attempts per outage, an
//     integer >= 0; 0 disables mid-stream reconnection (the
//     WithRemoteTraceReconnect option).
//   - SCOREP_TRACE_SINK_FALLBACK: local archive path the stream spills
//     to when the daemon is lost for good; "off" or "none" disables
//     the default fallback (the WithRemoteTraceFallback option).
//   - SCOREP_FLIGHT_RECORDER: flight-recorder tracing (see Flight
//     recorder below). A boolean spelling toggles the mode with the
//     default ring depth; an integer >= 1 enables it with that many
//     retained chunks per thread (the WithFlightRecorder option;
//     implies tracing). Anything else is an error.
//   - SCOREP_DUMP_SIGNAL: the OS signal that triggers a flight-recorder
//     dump — HUP, INT, QUIT, USR1, USR2 or TERM, case-insensitive,
//     with or without the "SIG" prefix ("USR2", "sigusr2"); "none" or
//     "off" disables the signal trigger (the WithDumpSignal option;
//     default SIGUSR1). Anything else is an error.
//
// # Remote tracing
//
// WithRemoteTrace(addr) switches a session into the multi-process
// measurement mode: instead of buffering or saving the trace locally,
// events are encoded through the same per-thread archive-writer path
// and shipped to a scorep-daemon measurement service, where each
// process's stream becomes one shard — trace-<id>.otf2 — of a fleet
// experiment. WithRemoteTraceStream(id) names the stream (default:
// pid-derived; the daemon uniquifies collisions); Session.End closes
// the stream and waits for the daemon's seal acknowledgment;
// Session.RemoteTraceStream reports the stream id in use. The session's
// client buffers frames in bounded memory and a background sender
// drains them, so a slow daemon never blocks the event hot path until
// the buffer is actually full; a full buffer blocks the producer, so
// the stream is lossless. Connections are established lazily with
// retry/backoff, so daemon and clients can start in any order; a connection severed
// mid-run is survived by reconnect and byte-exact resume, and a
// daemon lost for good degrades to a local fallback archive — see
// Fault tolerance below.
//
// The daemon is cmd/scorep-daemon:
//
//	scorep-daemon -listen unix:///tmp/scorep-daemon.sock -exp scorep-fleet
//	              [-streams N] [-drain-timeout 10s] [-idle-timeout 0]
//	              [-handshake-timeout 10s] [-quiet]
//
// It accepts any number of concurrent streams (sharded ingest — no
// cross-stream lock anywhere on the data path), writes each stream to
// its own shard file as bytes arrive (so a crashed client leaves a
// salvageable prefix, and never disturbs other shards), and on
// shutdown — SIGINT/SIGTERM, or after -streams N streams have sealed —
// writes the fleet experiment's meta.json. scorep-report and
// scorep-analyze render such experiments per shard plus a fleet
// aggregate; programmatically, OpenExperiment + TraceShards +
// ShardTraceAnalysis + FleetTraceAnalysis do the same, and
// SaveFleetExperiment seals a directory of shards (with or without a
// stream manifest — shards are globbed and probed when absent).
// FleetTraceAnalysis and FleetBottlenecks analyse the shards side by
// side: Experiment.AnalysisParallelism is the budget they share, so
// min(workers, shards) shards are scanned at a time, each with
// workers / that many workers (at least one), and the results merge in
// shard order, identical at every setting. A bottleneck pass finishes on
// the workers of its scan — its per-thread classification runs side by
// side within them — so a shard's lane of one worker finishes serially.
// Each shard file is read under its own lock, not one lock for the
// experiment. A fleet summary names a shard by its stream id, or by its
// file name where the id is empty or shared with another shard.
//
// The wire protocol (version 2) is reimplementable from this
// paragraph and the next section's first. All integers are unsigned
// LEB128 varints ("uvarint") unless stated. A client connects (unix or
// TCP socket) and sends a handshake: the 7 bytes "SPSINK\x00", one
// version byte (0x02), uvarint(len(id)) and the id bytes — 1..128
// bytes drawn from [A-Za-z0-9._-] — then uvarint(token), a nonzero
// random stream token. The daemon refuses every other version byte,
// closing the connection without a reply. A valid handshake is
// answered with a hello: 'H', one status byte (0 new stream, 1
// resumed), then uvarint(durable), the count of archive bytes the
// daemon holds durably for this stream; the client sends from exactly
// that archive offset. After the handshake the client sends frames,
// each a one-byte kind: 'F' (data) followed by uvarint(n) and n payload
// bytes, 1 <= n <= 4 MiB; 'Z' (end of stream) followed by
// uvarint(droppedEvents), a count of events the client dropped, which
// the daemon records (a client of this build drops none and sends 0);
// or 'G' (gap, see Fault tolerance) followed by
// uvarint(gapBytes). 'Z' or 'G' is the last thing a client sends. The
// concatenation of all 'F' payloads, in order, is exactly one SPOTF2
// binary trace archive (see Trace formats); the daemon is a pure byte
// relay and never parses, splits, or re-frames archive bytes, which is
// what makes a received shard bit-identical to a locally written
// archive. As data frames arrive the daemon flushes the shard and
// acknowledges progress with 'K' followed by uvarint(durable), each
// time at least its ack interval of payload has arrived since the last
// (256 KiB by default; the WithAckInterval server option tunes it).
// After 'Z' the daemon syncs the shard file and answers a 2-byte
// acknowledgment: 'A' then a status byte — 0 for sealed, 1 for ingest
// failure, 2 for sealed after a gap — and closes. A malformed
// handshake closes the connection without registering a stream; a
// connection severed before 'Z' keeps the flushed prefix on disk,
// marked incomplete and resumable. internal/sink/testdata holds one
// session's client bytes, the daemon's reply and the shard.
//
// # Fault tolerance
//
// The fleet pipeline is built so that any single failure — a severed
// connection, a crashed or restarted daemon, a full disk under one
// shard, a wedged client — costs at most one stream's tail, and loses
// it loudly: every surviving shard stays salvageable, every loss is
// counted, and a loss the client's replay window covers is no loss at
// all (the resumed shard is bit-identical to an undisturbed run).
//
// Streams are resumable: the hello and the 'K' acks tell the client
// what the daemon holds durably. The client keeps a bounded replay
// window of bytes at and above the last ack (WithReplayWindow, default
// 4 MiB), evicting only below it. What a client holds while it
// streams is that window and what lies before it: the replay window,
// plus what is sent and not yet acknowledged (the daemon's ack
// interval, the frame of up to 256 KiB that crosses it and the frame
// on its way), plus the unsent backlog at which recording threads
// block or drop (WithBufferBytes, default 1 MiB). It lies in segments
// of 64 KiB, allocated as the stream grows and filled again once the
// daemon has acknowledged them, so a stream holds at most that sum and
// two segments — about 6 MiB at the defaults, however long it runs —
// sends from where the bytes lie without copying them, and Close (or
// the failure or fallback that ends the stream) releases all of it: a
// closed client holds none of its stream. When a connection dies
// mid-stream, the client redials with jittered exponential backoff
// under a per-outage attempt count and elapsed-time budget
// (WithReconnect) and handshakes again with the same id and token:
// the daemon re-registers the stream, truncates nothing, and tells it
// where to resume. A client whose window no longer reaches the
// daemon's durable offset (the daemon lost flushed-but-unsealed bytes
// in a crash beyond what the window retains) does not guess: archive
// chunks chain per-thread timestamp deltas, so appending after a hole
// would corrupt the shard. It declares the gap with a 'G' frame
// followed by uvarint(gapBytes); the daemon seals the shard at its
// durable prefix — a valid, salvageable archive — records the counted
// gap, and answers 'A' with status 2 (gap-sealed). The daemon may
// also send the final 'A' mid-stream with status 1 when its own disk
// fails; only that one shard is affected. Stream identity is (id,
// token): a reconnect with a matching pair resumes (preempting a
// half-dead previous connection first), a different token under the
// same id is a different process and gets a uniquified id, and a
// sealed-incomplete stream refuses resumption explicitly rather than
// growing a corrupt tail.
//
// Daemon crash recovery. The daemon journals stream identity and
// status — never byte counts it would have to trust — to
// sink-journal.json in the experiment directory, written atomically
// (temp file + rename) on every registration and seal. The journal is
// JSON: {"version": 1, "streams": [{"id", "token", "file", "bytes",
// "frames", "droppedEvents", "gapBytes", "resumes", "complete",
// "sealed", "err"}, ...]}. A daemon restarted over the directory
// replays it: for each stream it re-derives the durable byte count
// from the shard file itself by scanning the longest intact chunk
// prefix (the cut the file readers salvage to, see Reading archives) and
// truncating the file to that boundary — so a flush torn by the crash
// is discarded rather than resumed after. Sealed streams keep their
// recorded fate (a sealed-complete shard that lost bytes on disk is
// demoted to failed, never silently shortened); unsealed streams wait
// for their client's reconnect, whose replay window covers the
// truncated tail — the crash-recovered shard then seals bit-identical
// to an undisturbed run. Sealed streams recovered from the journal
// count toward the daemon's -streams exit threshold.
//
// Degradation. Failures that cannot be resumed degrade one step at a
// time, never silently: a daemon-side disk failure (ENOSPC, short
// write) on one shard seals that shard failed-but-salvaged while
// every other stream keeps ingesting; a client that exhausts its
// reconnect budget, hits an unresumable gap, or is refused by the
// daemon spills the stream losslessly to a local fallback archive
// (WithFallbackArchive; sessions default to <experiment
// dir>/fallback.otf2 when an experiment directory is configured, see
// WithRemoteTraceFallback) — the whole retained window is written
// first, so a fallback starting at archive offset 0 is a complete
// standalone archive, and one starting higher continues the daemon
// shard's durable prefix from exactly where it was sealed (shard
// bytes + gap = fallback start offset; the fallback file is not
// named trace-*.otf2, so shard globbing never confuses the two). The
// session records the outcome in meta.json (RemoteFallback,
// RemoteResumes, RemoteGapBytes) and exposes it via
// Results.RemoteFallback/RemoteResumes/RemoteGapBytes. On the server,
// a handshake read deadline (WithHandshakeTimeout) keeps half-open
// connections from parking goroutines forever, and a per-stream idle
// watchdog (WithIdleTimeout; -idle-timeout on the daemon) seals a
// wedged stream's intact prefix without disturbing its neighbors.
// Shutdown drains: the daemon's first SIGINT/SIGTERM stops accepting
// and gives in-flight streams -drain-timeout to finish before
// severing them (a second signal severs immediately); severed shards
// keep their durable prefix and stay resumable by a restarted daemon.
//
// The fault-injection harness behind these guarantees is the reusable
// internal/faultinject package: net.Conn wrappers that sever after an
// exact byte count, slice writes, or add latency, and io.Writer
// wrappers that return ENOSPC after a capacity or fail transiently
// with EIO — the sink tests drive the full fault matrix (mid-frame
// sever, daemon kill+restart, one-shard disk fault, reconnect-budget
// exhaustion, at 1 and 4 concurrent streams) deterministically
// through them.
//
// # Flight recorder
//
// WithFlightRecorder(ringChunks) turns tracing into crash-safe
// always-on measurement: instead of accumulating the whole run (memory
// grows without bound) or streaming it to disk (I/O on the hot path),
// each thread retains only its most recent window of events, and that
// window can be materialized as a complete, analyzable experiment at
// any moment — which is what makes it safe to leave measurement on in
// production and still capture the moments that matter: the window
// that led up to a crash, a stall, or an operator's signal.
//
// The retention mechanism: a thread stages its events, without a lock,
// into a block of WithFlightChunkEvents(n) events (default: the
// streaming chunk size, 4096); when the block is full the thread
// encodes it, once, into one chunk of the archive format — the encoding
// and the definition table every archive writer uses, about 4 bytes an
// event, no pointers — and puts the chunk into its ring of ringChunks
// chunks (<= 0 picks DefaultFlightRingChunks). Once the ring is full
// each new chunk evicts the oldest whole, into whose buffer it is
// encoded, and the evicted chunk's event count is added to the
// thread's dropped-events and dropped-chunks counters. What the rings
// hold is therefore encoded chunks, not events: memory is about
// threads x (ringChunks x chunkEvents x ~5 B + one staging block of
// chunkEvents x 32 B), whatever the run length, where a ring of events
// took 32 B for each. Ring depth means what it always meant — the
// default keeps the same ringChunks x chunkEvents events of history per
// thread as before, in about a sixth of the memory — and steady-state
// recording allocates nothing (the flight/record bench and the alloc
// gate in CI hold it there). Nothing is ever dropped silently: every
// evicted event is counted, the counts travel inside every dump, and
// every CLI surfaces them.
//
// A dump — Session.DumpFlightRecorder(dir), or any trigger below —
// takes every thread's window, concurrently with recording (the
// session is never paused), and writes an ordinary experiment
// directory: trace.otf2, a valid SPOTF2 v4 archive holding the
// window's events, definitions and footer index, plus meta.json with
// the session configuration and the eviction accounting (meta's
// "flightRecorder" object: ringChunks, chunkEvents, retainedEvents,
// droppedEvents, droppedChunks, trigger, and partial+error when the
// archive write failed midway). The archive additionally embeds the
// accounting as a chunk of kind 'F' placed directly after the header,
// before all event data — so even a dump cut off by a full disk keeps
// its accounting inside the salvageable prefix (see Trace formats for
// the payload layout). Dump directories are read by OpenExperiment and
// every CLI like any experiment; an empty dir argument auto-numbers
// flight-NNN under the session's experiment directory
// (scorep-flight-NNN in the working directory otherwise).
//
// A dump is mostly a copy. The retained chunks go into the archive as
// they lie in the rings; what a dump encodes is each thread's open
// block — the events staged since the thread's last full block, up to
// the last one it recorded, written as one final, partial chunk, so
// the window a panic leaves ends at the panic — and one record per
// thread: a ring starts mid-stream, its oldest chunk's first timestamp
// a delta against a chunk that is gone, and the dump rewrites that
// record as a delta against 0. In the archive every thread's first
// chunk therefore has base time 0 and every later chunk continues the
// one before it, like the chunks of any archive; readers, indexed or
// sequential, know no difference. Compression (WithTraceCompression)
// is applied to the copies, at the dump, never on a recording thread.
// Per thread the window and its accounting are taken under the
// thread's seal lock, the only lock recording knows: the dumped events
// are a gap-free suffix of what the thread had recorded and retained +
// dropped is exactly that count. A recording thread publishes each
// event with one atomic store and takes the lock only when its block
// fills, once per chunkEvents events; it can wait on a dump only
// there, and only while the dump copies that thread's chunks into
// memory — the write to disk happens after the lock is released.
//
// Four triggers produce dumps. (1) The explicit API call above.
// (2) An OS signal: SIGUSR1 by default, rebindable or disableable via
// WithDumpSignal / SCOREP_DUMP_SIGNAL — `kill -USR1 <pid>` captures a
// production process's last window without touching it. (3) Panic
// salvage: `defer s.DumpOnPanic(dir)` around measured code dumps the
// window that led up to a panic and then re-panics with the original
// value, so the crash still crashes but its prehistory survives.
// (4) A bottleneck threshold: WithBottleneckTrigger(minSeverity,
// interval) dumps the current window into memory every interval, scans
// that archive with the automatic bottleneck analysis as it would any
// other, and dumps once to disk when any finding's severity (0..1)
// reaches minSeverity — the trace of a degradation is captured while
// it happens, not reconstructed after. The bottleneck pass of a dump,
// or of any window of a longer recording, costs what its records cost:
// the few suspended tasks it resumes from before the window are looked
// up in a small side table, and its own tasks in a dense one.
//
// Introspection is live and free of event copying:
// Session.FlightRecorderStats returns the ring configuration, the
// retained events and — as retainedBytes — the encoded bytes the rings
// hold for them, per-thread retained/dropped counters and the
// dump-trigger history; Session.FlightRecorderHandler serves the same
// JSON over HTTP (GET) and accepts dump-now requests (POST, optional
// "dir" parameter); the expvar "scorep.flightrecorder" publishes it to
// any expvar scraper. Session.End of a flight session takes the final
// window as one last dump into memory and lets the rings and staging
// blocks go: the Results holds that archive and nothing else of the
// window, exactly as a local tracing session's does — Trace decodes it
// on first use, the analyses scan it, SaveExperiment copies it —
// Results.FlightRecorder reports its accounting, and a saved
// experiment records both. Session.WriteFlightRecorderArchive streams
// the current window as a bare archive to any io.Writer for custom
// sinks.
//
// # Custom setups
//
// A Session is the one way to wire a measurement, as Score-P's
// environment variables and experiment directory are its one way to
// configure one. Each piece of a custom setup is an option or an
// accessor of the session, each in place of a hand-wired name the
// package does not export:
//
//   - WithClock sets the time source of profile and trace (for
//     NewMeasurementWithClock and NewManualClock);
//   - WithFilter gives the profile its filter patterns (for NewFilter);
//   - WithScheduler selects the task scheduler, Session.Runtime is the
//     runtime and Results.TeamStats its counters (for NewRuntime and
//     NewMeasurement);
//   - WithListener adds a listener beside the session's own, which the
//     runtime calls after them with the same instant (for NewTee); every
//     method's last argument now is that instant, and TaskEnd(t, tk,
//     resume, now) is tk's end and the resumption of resume at it;
//   - WithTracing, WithStreamingTrace (into any TraceEventSink, such as
//     NewTraceArchiveWriter), WithRemoteTrace and WithFlightRecorder
//     choose the trace recorder, and WithTraceCompression compresses
//     the archives the session writes (for TraceRecorder and the
//     archive-writer options);
//   - WithRemoteTraceStream, WithRemoteTraceRetry,
//     WithRemoteTraceReconnect and WithRemoteTraceFallback set a remote
//     stream's name, connect, reconnect and fallback, and
//     Session.RemoteTraceStream reports the id in use (for DialTraceSink,
//     its TraceSink* options and Session.RemoteTraceSink);
//   - Results and Experiment analyze a recording, whole, by TraceQuery,
//     per shard or per fleet, and AnalyzeTraceArchive a bare archive
//     stream (for AnalyzeTrace, AnalyzeBottlenecks,
//     AnalyzeTraceArchiveBottlenecks, MergeBottleneckAnalyses,
//     WriteTraceArchive and ReadTraceArchive); the tools write JSONL
//     dumps, which nothing reads back, and render timelines (for the
//     trace JSONL, timeline and utilization functions).
//
// Results.Locations gives the raw per-thread profiles behind
// Results.Report.
//
// # Overhead
//
// The per-event measurement path is zero-allocation and lock-free in
// steady state, in every listener configuration. Each listener kind
// owns a typed per-thread slot on the runtime thread (Thread.Profile
// for the profiling measurement, Thread.TraceData for the trace
// recorder), assigned once at ThreadBegin — so an event never takes a
// lock, consults a map, or allocates, even when profiling and tracing
// observe the same stream. The runtime reads the clock once per
// listener call and hands every listener — the measurement, the trace
// recorder and any WithListener extra — that instant, so profile and
// trace see identical timestamps whatever the clock, and no listener
// reads one of its own. A task's end and the resumption of the task it
// suspended are one call, TaskEnd, and so one read. Filtering is the
// measurement's own check, one test of a nil filter when a run is
// unfiltered and a verdict cached per interned region when it is not.
// Derived task-creation regions are cached on the task region itself,
// and call-tree nodes and task instances are recycled through
// per-thread pools backed by chunked arenas.
//
// What that path costs end to end is measured by the repository's
// benchmark (benchmark/README.md; `bash benchmark/run.sh -workload
// fib-fine -seed N -seconds 18 -trace 0`), and every claim about it is
// a parent-against-change comparison in interleaved pairs of such runs.
// Its fib-fine workload is the paper's worst case — BOTS fib without
// cut-off, 556 416 events from ~93 k tiny tasks on two threads, under
// NewSession(WithTracing()) — and its overhead_ratio is the paper's
// Fig. 13/14 number. The measurements themselves, change by change, are
// in CHANGES.md. The zero-allocation contract is held by
// TestHotPathZeroAllocs (alloc_test.go), one subtest per listener
// configuration.
//
// Downstream of the per-event path, the trace pipeline is parallel end
// to end. On the write side, the archive Writer encodes every event in
// the flushing thread's own chunk buffer — region interning is an
// atomic-publish table, sealed chunk buffers are recycled through a
// sync.Pool, and the only shared lock is held exactly for the append
// of a framed chunk to the underlying file. One thread blocked in a
// slow sink write therefore never stalls recording, encoding, or even
// flushing progress on other threads (before, a single writer mutex
// serialized all of it). On the read side, a scan
// (AnalyzeTraceArchive, Experiment.TraceAnalysis;
// scorep-analyze/-timeline/-convert -parallel N) decodes chunks on a
// worker pool while per-thread shards re-serialize each thread's chunks
// in archive order — Scalasca's parallel trace-analysis structure; the
// workers read their own chunks by the footer index, or decode behind a
// sequential frame scanner when an archive has none (see Reading
// archives). Memory stays O(workers x chunk), and the merged result is
// reflect.DeepEqual- and JSON-byte-identical at every worker count,
// also for truncated archives (CI cmp's the -parallel 1 and -parallel 4
// JSON outputs on every change).
//
// # Scheduler design
//
// The runtime ships two task schedulers. The default central queue —
// one mutex-protected team-wide queue — models the GCC 4.6 libgomp the
// paper measured, whose lock contention is the root cause of the
// paper's Fig. 15 slowdowns and Table III management-time explosion;
// it is kept as the ablation baseline. The work-stealing scheduler
// gives each thread a lock-free Chase–Lev deque: the owner pushes and
// pops newest-first (LIFO) at the bottom without locks or — except for
// the last element — CAS, keeping it on cache-hot recently created
// tasks, while thieves steal oldest-first (FIFO) at the top via a CAS,
// taking the largest pending piece of work per synchronization.
//
// Threads that run out of work descend a spin→yield→park ladder:
// bounded spinning, a few cooperative yields, then parking on a
// per-team notifier signaled by task publication, task completion and
// barrier release. A parked thief is woken the moment work appears, at
// any GOMAXPROCS, and an idle team burns no CPU at barriers. TeamStats
// reports steal/steal-attempt/park/wake counters and a per-thread
// steal histogram so benchmarks can quantify scheduler contention.
//
// # Trace formats
//
// The runtime's event stream can be recorded as an event trace — the
// OTF2/tracing side of Score-P the paper's conclusion points to. A
// trace file is an archive; JSONL is a text dump of one, as otf2-print
// is of an OTF2 archive:
//
//   - JSONL, output only: one JSON object per event
//     ("{"t":0,"ts":123,"ev":"ENTER","r":"fib.task",...}"),
//     human-greppable, ~100 bytes/event (scorep-convert -out x.jsonl,
//     scorep-analyze -save-trace x.jsonl, scorep-timeline -save
//     x.jsonl). No reader takes it back: given one, every tool fails at
//     the archive header with an error naming commit 72ec01f, whose
//     scorep-convert (-in t.jsonl -out t.otf2) turns it into an archive.
//   - Binary archive: an OTF2-style chunked binary format, ~3.0-3.3
//     bytes/event (an experiment's trace.otf2). The archive is
//     a "SPOTF2\x00" + version header followed by self-describing
//     chunks (one byte kind, uvarint length, payload). Definition
//     chunks intern strings and regions and declare clock properties;
//     event chunks carry per-thread runs of records. A record is one
//     head byte — a code in its low nibble, a bit saying a task ID
//     follows, and in its top three bits the region reference when it
//     is 0..6 (7 escapes to a uvarint after the head) — then the delta
//     to the thread's previous timestamp as a uvarint of its two's
//     complement (one byte below 128 ns, ten for a clock stepping
//     back), then, if the bit is set, the task ID as a zig-zag varint
//     delta to the last task ID written in the same chunk. The code is
//     the event type, 0..8, or 9..12 for a task event (create-end,
//     begin, end, switch) of that same last task ID, which then takes
//     no bytes at all. A task-parallel recording has a handful of
//     regions, many events without a task and many that repeat the
//     task before, so most records are two to four bytes, and every
//     chunk still decodes on its own. The full byte-level
//     specification lives in the internal/otf2 package comment; the
//     format is reimplementable from those docs alone.
//
// Archives are in format version 4, the one version the writer writes
// and the readers read. The Writer tracks each event chunk's byte
// offset, event count and inclusive timestamp bounds, and Close
// appends a footer index chunk ('I') plus a fixed 14-byte trailer ('T'
// frame, little-endian index offset, "SPIX" magic) — so a reader
// locates the index in O(1) seeks from the end of the file.
// WithTraceCompression(TraceCompressionFlate) (or scorep-convert -compress)
// DEFLATEs each sealed event chunk into a 'C' chunk. A flight-recorder
// dump (see Flight recorder) additionally carries one chunk of kind 'F'
// placed directly after the header — before any event chunk, so a dump
// truncated by a disk fault still keeps its accounting in the
// salvageable prefix. Its payload is uvarint(ringChunks)
// uvarint(chunkEvents) uvarint(retainedEvents) uvarint(nthreads),
// followed per thread (ascending thread ID) by varint(tid)
// uvarint(droppedEvents) uvarint(droppedChunks). Readers skip chunk
// kinds they do not know. An archive of versions 1 to 3 is refused with
// an error naming commit a6f702c: its scorep-convert (-in old.otf2 -out
// new.otf2) reads them and writes version 4, which analyses byte for
// byte the same; a daemon restarted over a shard of a version it does
// not read seals the stream with that error and leaves the file as it
// is. A format bump deletes its predecessor's reader, fixtures and
// transcoder in the same change, unless the two differ only in the
// record's head table, in which case the older one stays readable.
//
// The index exists for time-window queries: a TraceQuery (a time window
// [MinTime, MaxTime] and/or a thread-ID subset) handed to
// AnalyzeTraceArchive or an Experiment's query methods — or to the
// tools as -window t0:t1 and -threads a,b,c (-tids on scorep-analyze and
// scorep-timeline, whose -threads already names the live-run width) —
// prunes non-matching chunks by their indexed bounds and reads only the
// rest: O(matching chunks), not O(archive), with the Indexed /
// ChunksRead / ChunksTotal counters reported in TraceQueryStats. The
// result is defined to be reflect.DeepEqual- and JSON-byte-identical to
// decoding the whole archive and filtering with TraceQuery.Filter,
// at every worker count, whether the plan comes from the index or from
// the archive's framing (an archive whose index was lost to a crash —
// which still salvages the intact prefix). scorep-convert -stats
// reports the physical layout: format version, index presence,
// per-thread chunk counts and the compression ratio.
//
// Because the archive is chunked and append-only, a crashed run still
// yields a readable prefix, recording can run in bounded memory
// (WithStreamingTrace flushes full per-thread chunks to a
// TraceArchiveWriter instead of buffering the run in RAM), and
// AnalyzeTraceArchive replays an archive through per-thread state
// machines in O(chunk) memory — out-of-core analysis of traces far
// larger than RAM. It and every Experiment reader take a worker count
// and spread the chunk decoding over that many goroutines (identical
// results at every count); the CLIs expose the knob as -parallel N
// (0 = one worker per processor). The scorep-convert command converts
// between the two formats and reports size/event statistics;
// scorep-timeline and scorep-analyze accept either format, chosen by
// file extension (".otf2" is binary).
//
// # Reading archives
//
// There are two ways to read a recording, whatever holds it. A scan
// feeds the events matching a TraceQuery to consumers — the trace
// analysis, the bottleneck collector, any number on one pass — in
// bounded memory and without materializing the trace; a consumer gets a
// thread's next in-order run, must not keep it, and is told once,
// before any run, how many events each thread's stream holds at most
// when the source knows (an index does, an in-memory trace does). A
// load decodes the matching events into a Trace. Everything else is
// these two under another name: AnalyzeTraceArchive scans an archive;
// Results and Experiment (whole or windowed, trace.otf2 or a fleet's
// shards) scan their recording, or the events once Trace has
// materialized them; the
// tools scan or load a file by its extension, and scorep-analyze -trace
// -bottlenecks feeds both analyses from one scan. Every such path gives
// the result of decoding the whole recording front to back, filtering
// with TraceQuery.Filter and analyzing that, at every worker count; a
// thread with no matching event is in no result.
//
// Every archive this module finishes — a saved experiment, a daemon
// shard, a flight dump — carries the footer index, and a scan or load of
// one is planned from it, as an OTF2 reader sizes a location's buffer
// from the event count in its definitions. The read is planned, then
// its chunks are placed or delivered:
//
//   - Plan. The definition chunks are loaded through the index. The
//     event chunks a TraceQuery can match are selected by their
//     indexed thread and time bounds (the zero query selects all), and
//     each selected chunk's framing is read. An index is input, and
//     nothing it says is believed beyond what the chunk it points at
//     backs: the chunk's thread and event count must be the index's,
//     the count must fit the chunk's bytes (and a compressed chunk's
//     declared size what DEFLATE can expand), chunks must not overlap,
//     each chunk's base time must be where its thread's clock stood,
//     a plan that selects everything must account for every definition
//     and event chunk between header and index, and the index chunk
//     must end where the trailer starts. A lying index is a
//     corruption error — never a different trace, never an allocation
//     sized by the lie.
//   - Place (a load: Results.Trace, Experiment.Trace,
//     scorep-timeline, scorep-convert). Each thread's event slice is
//     allocated once, at the length its selected chunks add up to;
//     chunk k's destination is the prefix-sum window of the counts
//     before it. Workers take chunks in offset order, read each with
//     ReadAt (no scanner goroutine, no shared read position, no
//     whole-file buffer), inflate compressed chunks on the worker, and
//     decode straight into the window with absolute times from the
//     chunk's indexed base time. There is no per-chunk slice, no append
//     and no ordering between workers. A windowed load sizes by the
//     selected chunks, places the interior ones whole, clips the few
//     the window's edges cut in place, and closes the gaps. It is the
//     same path at one worker and at many. A load is not a scan with a
//     consumer that appends: that would copy every event once more.
//   - Deliver (a scan: AnalyzeTraceArchive, the analyses of Results
//     and Experiment, scorep-analyze). A chunk decodes into a pooled run
//     buffer, the chunks a window's edges cut are clipped in place,
//     and per-thread shards hand the runs to the consumers in archive
//     order, one run per thread at a time; a bounded window of decoded
//     runs keeps memory at O(workers x chunk). The consumers' hint is
//     the event count of each thread's selected chunks.
//
// Every archive is planned; only the plan's inputs differ, chosen by
// what the input is and never by an option. An archive without a
// readable index (the prefix a crashed run left, a damaged trailer) is planned from its own framing: one walk from the
// header reads each chunk's kind and length, decodes the definition
// chunks in order, takes each event chunk's thread and count from its
// head, and stops at the first cut or damaged frame, which becomes the
// error after the chunks before it. Such a plan has no time bounds, so
// it selects every chunk of the query's threads, decodes each from 0,
// runs each thread's clock on through its chunks and clips after that;
// its hint is the recovered counts. An input without random access (a
// pipe) is copied into memory and planned like any other. Every path
// decodes events in one loop that writes through a pointer into its
// destination and resolves regions in the table the definitions before
// the chunk left (region IDs above 2^20 are corruption).
//
// The salvage contract is the same on every path: an archive cut off
// mid-chunk — the typical state after a crashed or killed run — gives
// the result of its intact prefix. From a reader (AnalyzeTraceArchive)
// it comes with an error the caller can tell from corruption; from a
// file (Experiment, the tools) the cut becomes a warning, worded one way and reported
// once per file however often and whichever way the file is read.
// Anything else — I/O failures, corruption — is an error and no result.
// A session's own archive cannot be cut: a failed read of it panics.
//
// alloc_test.go pins what a planned load allocates: at most 1.15 x 32 B
// x events plus the archive's size, in a number of allocations that
// does not grow with the chunks.
//
// # Bottleneck analysis
//
// The bottleneck analysis is the Scalasca-style automatic step the
// paper's conclusion points to: it consumes the per-thread event
// streams (in memory, out of core over an archive, or per shard of a
// fleet experiment) and answers "where did the time go, whose fault
// was it, and what would fixing it buy". It is a consumer of a scan
// (see Reading archives) like the trace analysis. Entry points:
// Results.Bottlenecks, Experiment.Bottlenecks / BottlenecksQuery /
// ShardBottlenecks / FleetBottlenecks (fleet). On the command line:
// scorep-analyze -bottlenecks (any trace-bearing input; honors
// -window, -tids, -parallel and -json), and scorep-report prints the
// fleet bottleneck summary of a fleet experiment. The result is
// reflect.DeepEqual- and JSON-byte-identical at every worker count and
// on every access path; region references are plain name strings, and
// all iteration orders and tie-breaks are deterministic.
//
// Wait-state classification. A thread's idle time is measured inside
// top-level synchronization instances — the interval from entering a
// Taskwait, Barrier or ImplicitBarrier region at nesting depth zero to
// the matching exit. Within such an instance, every sub-interval where
// the thread executes no task fragment is idle, and each idle
// nanosecond is classified exactly once:
//
//   - LATE_TASK_SPAWN: idle before the first execution of a task that
//     another thread was still creating — the portion of the task's
//     first dispatch gap that precedes the creator's EvTaskCreateEnd.
//     The cause is the creating thread; the region is the task's.
//     (Idle after the create completed, resume gaps, and gaps before
//     self-created tasks count as plain dispatch latency, not waiting.)
//   - STARVED_THIEF: idle while a task created by a different thread
//     was pending — created but not yet begun anywhere. Work existed
//     and was not distributed. The cause is the creator whose pending
//     windows, summed, overlap the idle span longest (ties: smallest
//     thread id); the region is that of the creator's single
//     longest-overlapping window (ties: smallest task id).
//   - BARRIER_IMBALANCE: idle (not already classified as starvation)
//     between the thread's own arrival at a collective barrier
//     instance and the last participant's arrival. Barrier instances
//     are matched across threads by region and per-thread visit
//     ordinal, and need >= 2 participants; the cause is the last
//     arriver (ties: smallest thread id) of the first instance, in
//     (region, ordinal) order, whose wait overlaps the idle span.
//
// The remainder is reported as unclassified idle. Wait states are
// aggregated per (kind, victim, cause, region) with interval counts,
// and per-thread totals (ThreadWaits) partition each thread's idle
// exactly: a nanosecond under several pending windows, or under the
// overlapping barrier waits a window that cuts a thread's visits can
// produce, is still counted once.
//
// The classification is a sweep, not a search per idle span. Each
// creator's pending windows are laid out once, in the creator's stream
// order — which is their start order, and the order of its task ids —
// as arrays of starts, ends and the running maximum of the ends; a
// thread's barrier waits likewise. The windows that can overlap a span
// are then one index range, found by two searches in whatever order
// the spans come; a search starts where the last one in that array
// ended, in doubling steps and then by bisection, so spans in time
// order cost a few probes each and any other order O(log n). The
// covered part of a span is read off the running maximum, walking only
// windows that start inside the span: a span inside one long window
// costs the two searches however many windows are open around it. The
// longest-overlapping window is the first to reach the running maximum
// taken at the span's start — so a window around the whole span always
// wins, and of equals the earliest created, the smallest id — or one
// of those that start inside the span. The summed overlap per creator,
// needed only where several creators hold work over one span, is two
// rank lookups in prefix sums over the starts and over the sorted
// ends, built on first use; the sums wrap on a long recording and
// their differences are exact (internal/bottleneck tests a trace at
// 2^62). The cost is O((windows + idle spans x threads + barrier
// visits) x log windows) plus one step per window or barrier wait that
// starts inside a span, each once per victim thread for the disjoint
// spans of a well-formed stream; a damaged stream (spans unordered or
// overlapping) gets the same answers span by span, without the bound.
//
// The quadratic classification the sweep replaced — every idle span
// re-walking every window open around it — lives on in the package's
// tests as the reference the sweep must equal on every well-formed
// random task graph.
//
// Critical path. The task-graph critical path is reconstructed by a
// backward walk from the last-finishing thread's last event: task
// segments attribute their inclusive time to the task's region; at a
// task's first fragment the walk takes the spawn edge to the creating
// thread at EvTaskCreateEnd (the gap in between is SpawnWait); at a
// resumed fragment it takes the join edge to the completion that
// unblocked the scheduling point (JoinWait); at a barrier exit it
// jumps to the last arriver (the skew is in Other). The invariant
// Length == sum(Regions[i].Time) + SpawnWait + JoinWait + Other always
// holds. Per region, Share is its fraction of the path, and the
// what-if model is fixed-path: shrinking a region by X% saves X% of
// its on-path time (WhatIf10/25/50 = Time/10, Time/4, Time/2) — an
// upper bound on the wall-time reduction, since the path can re-route
// through other work once shortened.
//
// Findings. Wait states aggregate into Results.Findings-style typed
// findings (LATE_TASK_SPAWN, STARVED_THIEF, BARRIER_IMBALANCE) with
// severity = waited time / (wall time x threads) clamped to [0, 1] and
// an Attribution naming victim and cause threads, the region, and the
// waited time (victim -1 = several threads); the largest non-implicit
// critical-path region becomes a CRITICAL_PATH_HOTSPOT finding whose
// severity is its path share. A fleet's per-shard analyses merge into
// a FleetSummary: per wait-state kind the fleet-summed time and the
// worst shard, plus the shard with the longest critical path.
//
// Data layout. The analysis makes one pass over each thread's events
// into compact per-thread buffers and finishes in O(n log n) for n
// records — linear but for the binary searches of the idle sweep and
// of the critical-path walk — with a number of allocations that
// depends on the threads and not on the tasks:
//
//   - Records. A task fragment is one 40-byte record that also carries
//     the dispatch gap that ended at its begin and whether it was the
//     task's first fragment; a creation is 24 bytes, and a task's end
//     four, the place of the fragment it closed. Regions are numbered per collector, so no record
//     holds a string and no descriptor is formatted per event. The
//     buffers are sized from the scan's hint — the length of the
//     in-memory stream, or what the archive's footer index says the
//     selected chunks hold — and double when that falls short or there
//     is none.
//   - Dense task table. Task ids come from one counter per session,
//     so the merged view of all tasks is one slab of values indexed by
//     id, dense from the lowest id the records create, and over the
//     whole id range when that is at most twice the records. The few
//     ids below it — tasks a window resumes that were created before
//     it — are sorted into a side table, so the table's size follows
//     the records, never the ids. Each collector keeps the bounds of
//     its ids as it records; the records are walked again only to fill
//     a side table.
//   - No global order. The critical-path walk's join edge is the
//     latest end of another task inside a suspension window. Each
//     thread's task ends are in its stream order, which is time order
//     — one comparison per end checks it — so the walk binary-searches
//     each thread's own ends and takes the greatest (time, thread,
//     task); only a thread whose clock ran backwards has its ends
//     sorted. The pending windows are never brought into one order
//     either: the idle sweep keeps them per creator, as recorded, and
//     merges their ends from per-thread runs where it needs them
//     sorted.
//   - CSR fragments. The critical-path walk asks when a resumed task
//     was suspended: every task's fragment ends are laid out by task
//     slot, offsets plus one flat array, by a counting sort. The
//     thread timelines are not copied: the walk binary-searches the
//     fragment records and synthesises the implicit-task filler
//     between neighbours.
//
// With more than one worker the walk's lookup tables are built beside
// the classification. CI cmp's the -bottlenecks -json outputs at
// -parallel 1 and 4 on every change, whole and windowed, on indexed and
// on index-less archives, and internal/bottleneck/testdata pins the
// analyses of 30 BOTS traces byte for byte.
//
// See examples/ for runnable programs (quickstart is the Session-API
// walkthrough) and internal/exp for the harness that regenerates every
// figure and table of the paper's evaluation.
package scorep
