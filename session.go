package scorep

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/sink"
	"repro/internal/trace"
)

// Session is one configured measurement environment — the role the
// Score-P runtime plays for an instrumented program run. NewSession
// wires the requested subsystems (profiling, tracing, filtering) to a
// task runtime; the measured code runs through Session.Parallel (or
// Session.Runtime for the full runtime surface); Session.End finalizes
// all of them at once and hands back a Results value from which the
// profile report, the event trace, the trace-derived metrics and the
// automatic diagnosis are available consistently.
//
//	s := scorep.NewSession(scorep.WithTracing())
//	s.Parallel(4, par, func(t *scorep.Thread) { ... })
//	res, err := s.End()
//	res.Report()        // aggregated call-path profile
//	res.TraceAnalysis() // dispatch latency, management/execution ratio
//	res.SaveExperiment("scorep-run") // the on-disk experiment archive
//
// A Session is for one run: End is idempotent but the session must not
// record further work after it. Everything a custom setup varies is an
// Option: the clock (WithClock), the filter (WithFilter), the scheduler
// (WithScheduler), extra listeners (WithListener); Runtime gives the
// full runtime surface.
type Session struct {
	cfg sessionConfig
	rt  *Runtime
	m   *measure.Measurement
	rec *trace.Recorder

	// A local tracing session (WithTracing) records into an archive in
	// memory: the recorder flushes its staging blocks into archive, which
	// encodes them into store. End closes the archive and hands the store
	// to the Results.
	archive *otf2.Writer
	store   *otf2.Memory

	// net is the remote trace sink client of a WithRemoteTrace session
	// (owned by the session: End closes it); netErr records a remote
	// sink that could not even be constructed (malformed address).
	net    *sink.Client
	netErr error

	// flight holds the dump/trigger machinery of a WithFlightRecorder
	// session (see flight.go), nil otherwise.
	flight *flightState

	started time.Time

	mu      sync.Mutex
	results *Results
	endErr  error
}

// NewSession creates a measurement environment from functional options.
// With no options it profiles and does not trace — Score-P's defaults.
// See NewSessionFromEnv for the environment-variable-driven variant.
func NewSession(opts ...Option) *Session {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	clk := cfg.clk
	if clk == nil {
		clk = clock.NewSystem()
	}

	s := &Session{started: time.Now()}
	if cfg.tracing && cfg.remoteAddr != "" && cfg.streamingSink == nil {
		// Remote tracing: the streaming sink is a network client
		// encoding through the same per-thread archive-writer path a
		// file sink uses. Dial only rejects malformed addresses (the
		// connection itself is lazy); NewSession cannot return an
		// error, so that failure is latched and surfaced at End, with
		// tracing disabled rather than silently recorded into nothing.
		var copts []sink.ClientOption
		if cfg.remoteStream != "" {
			copts = append(copts, sink.WithStreamID(cfg.remoteStream))
		}
		if r := cfg.remoteRetry; r != nil {
			copts = append(copts, sink.WithDialRetry(r.attempts, r.backoff))
		}
		if r := cfg.remoteReconnect; r != nil {
			budget := r.budget
			if budget <= 0 {
				budget = sink.DefaultReconnectBudget
			}
			copts = append(copts, sink.WithReconnect(r.attempts, r.backoff, budget))
		}
		if path := resolveRemoteFallback(&cfg); path != "" {
			copts = append(copts, sink.WithFallbackArchive(path))
		}
		cl, err := sink.Dial(cfg.remoteAddr, copts...)
		if err != nil {
			s.netErr = fmt.Errorf("remote trace sink %s: %w", cfg.remoteAddr, err)
			cfg.tracing = false
		} else {
			s.net = cl
			cfg.streamingSink = cl
		}
	}
	s.cfg = cfg
	var listeners []Listener
	if cfg.profiling {
		s.m = measure.NewFilter(measure.NewWithClock(clk, region.Default), cfg.filters...)
		listeners = append(listeners, s.m)
	}
	if cfg.tracing {
		switch {
		case cfg.flightRing > 0:
			s.flight = newFlightState(s, otf2.NewFlight(clk, cfg.flightRing, cfg.flightChunk))
			s.rec = s.flight.ring.Recorder()
		case cfg.streamingSink != nil:
			s.rec = trace.NewStreamingRecorder(clk, cfg.streamingSink, cfg.streamingChunk)
		default:
			s.store = new(otf2.Memory)
			s.archive = otf2.NewWriter(s.store)
			s.rec = trace.NewStreamingRecorder(clk, s.archive, 0)
		}
		listeners = append(listeners, s.rec)
	}
	listeners = append(listeners, cfg.extra...)

	var l Listener
	switch len(listeners) {
	case 0:
		// Uninstrumented: the runtime skips all event emission.
	case 1:
		l = listeners[0]
	default:
		l = trace.NewTee(listeners...)
	}
	s.rt = omp.NewRuntime(l)
	s.rt.Sched = cfg.sched
	return s
}

// resolveRemoteFallback maps the tri-state fallback configuration to a
// concrete path: an explicit WithRemoteTraceFallback wins (empty
// disables); the default is <experiment dir>/fallback.otf2 when an
// experiment directory is configured, otherwise no fallback. The
// fallback file is deliberately not named trace-*.otf2, so a fleet
// directory's shard glob never picks it up as a daemon shard.
func resolveRemoteFallback(cfg *sessionConfig) string {
	if cfg.remoteFallback != nil {
		return *cfg.remoteFallback
	}
	if cfg.expDir != "" {
		return filepath.Join(cfg.expDir, "fallback.otf2")
	}
	return ""
}

// Runtime returns the session's task runtime, the execution engine the
// measured code runs on.
func (s *Session) Runtime() *Runtime { return s.rt }

// Parallel runs a parallel region on the session's runtime — shorthand
// for s.Runtime().Parallel.
func (s *Session) Parallel(n int, r *Region, body func(t *Thread)) {
	s.rt.Parallel(n, r, body)
}

// Profiling reports whether the session profiles.
func (s *Session) Profiling() bool { return s.cfg.profiling }

// Tracing reports whether the session records an event trace.
func (s *Session) Tracing() bool { return s.cfg.tracing }

// Scheduler returns the configured task scheduler.
func (s *Session) Scheduler() SchedulerKind { return s.cfg.sched }

// ExperimentDir returns the experiment archive directory End saves to,
// or "" when no directory is configured.
func (s *Session) ExperimentDir() string { return s.cfg.expDir }

// RemoteTraceStream returns the stream id a WithRemoteTrace session
// streams under (its shard is trace-<id>.otf2 in the daemon's fleet
// experiment), or "" without a remote sink.
func (s *Session) RemoteTraceStream() string {
	if s.net == nil {
		return ""
	}
	return s.net.StreamID()
}

// End finalizes the measurement environment: it closes the profiling
// locations, flushes and detaches the trace recorder, and captures the
// runtime's scheduler statistics. The returned Results exposes every
// product of the run; calling End again returns the same Results.
//
// The error reports a trace the session could not record in full — a
// streaming-trace sink failure, or the in-memory archive refusing a
// record, each with the number of events discarded — or, when an
// experiment directory is configured (WithExperimentDirectory or
// SCOREP_EXPERIMENT_DIRECTORY), a failure to save the experiment
// archive. The Results is valid even when err != nil.
func (s *Session) End() (*Results, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.results != nil {
		return s.results, s.endErr
	}

	wall := time.Since(s.started)
	if s.m != nil {
		s.m.Finish()
	}
	var tr *Trace
	var archive *otf2.Memory
	var err error
	var flight *FlightRecorderInfo
	switch {
	case s.rec == nil:
	case s.flight != nil:
		// Flight mode: stop the dump triggers, then take the final
		// window, with its exactly matching eviction accounting, as one
		// last dump into memory, and let the rings go: the recording is
		// that archive, as in local mode.
		s.flight.stop()
		s.store = new(otf2.Memory)
		var st *otf2.FlightInfo
		st, err = s.flight.ring.Dump(s.store, otf2.WithCompression(s.cfg.traceComp))
		flight = flightRecorderInfo(st, "end", nil)
		s.flight.ring.Release()
	case s.archive != nil:
		// Local mode: the recording is the archive. Close it and keep
		// it, at its length; nothing is decoded.
		s.rec.Finish()
		err = s.rec.Err()
		if cerr := s.archive.Close(); err == nil {
			err = cerr
		}
	default:
		// Streaming mode: the recording lives in the caller's sink.
		s.rec.Finish()
		err = s.rec.Err()
	}
	if s.store != nil {
		if err == nil {
			s.store.Clip()
			archive = s.store
		} else {
			// The writer refused a record and wrote nothing after it:
			// the store holds the intact prefix of a cut archive, and the
			// results keep the events of that prefix.
			err = fmt.Errorf("trace archive: %w", err)
			tr, _, _ = otf2.Load(s.store.Reader(), region.Default, TraceQuery{}, 1)
		}
		s.archive, s.store = nil, nil
	}
	if s.net != nil {
		// Close the remote stream: flush the archive tail, send the
		// end-of-stream frame and wait for the daemon's seal ack. The
		// recorder latches the client's WriteEvents error, so skip a
		// Close error that merely repeats it.
		if cerr := s.net.Close(); cerr != nil && !errors.Is(err, cerr) {
			err = errors.Join(err, fmt.Errorf("remote trace sink: %w", cerr))
		}
	}
	if s.netErr != nil {
		err = errors.Join(err, s.netErr)
	}

	s.results = &Results{
		cfg:    s.cfg,
		m:      s.m,
		src:    traceSource{mem: archive, trace: tr, reg: region.Default},
		stats:  s.rt.LastTeamStats(),
		wall:   wall,
		flight: flight,
	}
	if s.net != nil {
		// Surface the stream's fate into the results (and thereby the
		// experiment's meta.json): resumes survived, bytes lost to an
		// unresumable gap, and the local spill the stream degraded to.
		s.results.remoteResumes = s.net.Resumes()
		s.results.remoteGapBytes = s.net.GapBytes()
		if path, start, reason, ok := s.net.Fallback(); ok {
			info := &RemoteFallbackInfo{File: path, StartOffset: start}
			if reason != nil {
				info.Reason = reason.Error()
			}
			s.results.remoteFallback = info
		}
	}
	if s.cfg.expDir != "" {
		if serr := s.results.SaveExperiment(s.cfg.expDir); serr != nil {
			err = errors.Join(err, serr)
		}
	}
	s.endErr = err
	return s.results, err
}

// Results exposes everything one measured run produced. All derived
// values (report, findings, trace analysis) are computed lazily on
// first use and cached, so repeated accessors observe consistent data.
// Results is safe for concurrent use.
type Results struct {
	cfg   sessionConfig
	m     *measure.Measurement
	stats TeamStats
	wall  time.Duration

	// src is the recording. src.mem is that of a local tracing session, or
	// the final window of a flight recorder: the complete, indexed trace
	// archive End closed, which SaveExperiment copies to disk and every
	// accessor reads like a file. It never changes. src.trace is the
	// recording as events: the archive decoded by the first Trace call
	// (guarded by mu), or what End could read of an archive that was cut
	// short.
	src traceSource

	// Remote-tracing stream fate (see Session.End): recorded in the
	// experiment's meta.json and exposed via RemoteFallback.
	remoteFallback *RemoteFallbackInfo
	remoteResumes  int64
	remoteGapBytes int64

	// Flight-recorder accounting of the final window (see Session.End):
	// recorded in the experiment's meta.json, as it is in archive's
	// accounting chunk, and exposed via FlightRecorder.
	flight *FlightRecorderInfo

	mu          sync.Mutex
	report      *Report
	findings    []Finding
	findingsSet bool
}

// Report returns the aggregated cross-thread profile, or nil when the
// session did not profile.
func (r *Results) Report() *Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reportLocked()
}

func (r *Results) reportLocked() *Report {
	if r.report == nil && r.m != nil {
		r.report = AggregateReport(r.m.Locations())
	}
	return r.report
}

// Trace returns the recorded event trace, or nil when the session did
// not trace in memory (streaming traces live in their sink). A local
// tracing session holds its recording encoded, at a few bytes per
// event; the first Trace call decodes it, once, into events that
// reference the regions of the default registry, and the result is
// kept (32 bytes per event) for every later call and analysis.
func (r *Results) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ownArchive(r.src.load(r.cfg.analysisWorkers))
}

// ownArchive passes on what a read of the session's own archive
// returned. The session wrote those bytes and End closed them without
// an error, so a read that fails is a bug in the writer or the reader,
// not bad input, and must not pass for an empty result.
func ownArchive[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Errorf("scorep: reading the session's own trace archive: %w", err))
	}
	return v
}

// TraceAnalysis derives the paper's §VII metrics (dispatch latency,
// management/execution ratio) from the recorded trace, or returns nil
// when no in-memory trace exists. Like Experiment.TraceAnalysis it
// reuses the events when Trace already materialized them and scans the
// archive in bounded memory otherwise. On multi-core hosts the analysis
// shards across per-thread workers (see WithAnalysisParallelism); the
// result is identical to the sequential analysis.
func (r *Results) TraceAnalysis() *TraceAnalysis {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ownArchive(r.src.traceAnalysis(r.cfg.analysisWorkers))
}

// Bottlenecks runs the Scalasca-style bottleneck analysis (wait-state
// classification, task-graph critical path, what-if savings) over the
// recorded trace, or returns nil when no in-memory trace exists. Like
// TraceAnalysis it shards across per-thread workers (see
// WithAnalysisParallelism) with a result identical to the sequential
// analysis, and is computed once and cached.
func (r *Results) Bottlenecks() *BottleneckAnalysis {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ownArchive(r.src.bottleneckAnalysis(r.cfg.analysisWorkers))
}

// Findings diagnoses tasking inefficiencies in the profile using the
// paper's Section III patterns, or returns nil when the session did not
// profile.
func (r *Results) Findings() []Finding {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.findingsSet {
		if rep := r.reportLocked(); rep != nil {
			r.findings = AnalyzeReport(rep)
		}
		r.findingsSet = true
	}
	return r.findings
}

// FlightRecorder reports the flight recorder's final accounting — ring
// configuration, retained window size, dropped events/chunks — or nil
// for sessions without a flight recorder. The same information is
// recorded in the experiment's meta.json and in the archived trace's
// accounting chunk.
func (r *Results) FlightRecorder() *FlightRecorderInfo { return r.flight }

// RemoteFallback reports the local archive a remote-tracing session
// spilled to after losing its daemon for good, or nil when the stream
// ended normally (or no fallback was configured). RemoteResumes and
// RemoteGapBytes complete the picture: how often the stream survived a
// severed connection by resuming, and how many archive bytes an
// unresumable gap lost remotely.
func (r *Results) RemoteFallback() *RemoteFallbackInfo { return r.remoteFallback }

// RemoteResumes returns how many times the remote trace stream
// reconnected and resumed mid-stream (0 for local sessions).
func (r *Results) RemoteResumes() int64 { return r.remoteResumes }

// RemoteGapBytes returns the archive bytes lost remotely to an
// unresumable gap (0 for local sessions and gap-free streams).
func (r *Results) RemoteGapBytes() int64 { return r.remoteGapBytes }

// TeamStats returns the scheduler counters of the run's last parallel
// region.
func (r *Results) TeamStats() TeamStats { return r.stats }

// WallTime returns the wall-clock duration from NewSession to End.
func (r *Results) WallTime() time.Duration { return r.wall }

// Locations returns the per-thread profiles, the raw input of Report —
// the power-user view (allocation counters, per-location inspection).
// Nil when the session did not profile.
func (r *Results) Locations() []*ThreadProfile {
	if r.m == nil {
		return nil
	}
	return r.m.Locations()
}
