package scorep

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/otf2"
)

// DefaultFlightRingChunks is the per-thread ring depth WithFlightRecorder
// uses when given ringChunks <= 0.
const DefaultFlightRingChunks = otf2.DefaultFlightRingChunks

// FlightRecorderInfo is the flight recorder's eviction accounting as
// recorded in a dump's (or experiment's) meta.json: what the ring
// retained, what it evicted, and — for dumps — what triggered the dump
// and whether the archive write completed.
type FlightRecorderInfo struct {
	// RingChunks and ChunkEvents state the recorder configuration: at
	// most RingChunks sealed chunks of ChunkEvents events retained per
	// thread, plus one partial chunk.
	RingChunks  int `json:"ringChunks"`
	ChunkEvents int `json:"chunkEvents"`
	// RetainedEvents is the total event count the dump retained.
	RetainedEvents int `json:"retainedEvents"`
	// DroppedEvents and DroppedChunks count what the rings evicted
	// before the dump — the events that are NOT in the archive.
	DroppedEvents uint64 `json:"droppedEvents"`
	DroppedChunks uint64 `json:"droppedChunks"`
	// Trigger names what caused the dump: "api", "signal", "panic",
	// "bottleneck", "http", or "end" for the final window of End.
	Trigger string `json:"trigger,omitempty"`
	// Partial marks a dump whose archive write failed midway (e.g. a
	// full disk): trace.otf2 holds a salvageable intact prefix — with
	// the accounting chunk at its front — rather than a complete
	// archive, and Error describes the failure.
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
}

// flightRecorderInfo builds the meta.json form of a dump's accounting.
func flightRecorderInfo(st *otf2.FlightInfo, trigger string, writeErr error) *FlightRecorderInfo {
	info := &FlightRecorderInfo{
		RingChunks:     st.RingChunks,
		ChunkEvents:    st.ChunkEvents,
		RetainedEvents: st.RetainedEvents,
		DroppedEvents:  st.DroppedEvents,
		DroppedChunks:  st.DroppedChunks,
		Trigger:        trigger,
	}
	if writeErr != nil {
		info.Partial = true
		info.Error = writeErr.Error()
	}
	return info
}

// FlightRecorderThreadStats is one thread's live flight-recorder
// accounting, as exposed by Session.FlightRecorderStats and the
// introspection endpoint.
type FlightRecorderThreadStats struct {
	Thread         int    `json:"thread"`
	RetainedEvents int    `json:"retainedEvents"`
	DroppedEvents  uint64 `json:"droppedEvents"`
	DroppedChunks  uint64 `json:"droppedChunks"`
}

// FlightRecorderStats is a live snapshot of a session's flight
// recorder: the ring configuration and current retention/eviction
// counters, plus the dump-trigger history. It is the JSON payload of
// the introspection endpoint (FlightRecorderHandler, and the
// "scorep.flightrecorder" expvar).
type FlightRecorderStats struct {
	Enabled        bool `json:"enabled"`
	RingChunks     int  `json:"ringChunks,omitempty"`
	ChunkEvents    int  `json:"chunkEvents,omitempty"`
	RetainedEvents int  `json:"retainedEvents"`
	// RetainedBytes is what the rings hold of RetainedEvents now: the
	// encoded bytes of their chunks (the events of the open blocks are
	// not encoded before a dump).
	RetainedBytes int64                       `json:"retainedBytes"`
	DroppedEvents uint64                      `json:"droppedEvents"`
	DroppedChunks uint64                      `json:"droppedChunks"`
	Threads       []FlightRecorderThreadStats `json:"threads,omitempty"`
	// Dumps counts completed dump attempts (successful or not);
	// LastTrigger/LastDumpDir/LastDumpError describe the most recent one.
	Dumps         int64  `json:"dumps"`
	LastTrigger   string `json:"lastTrigger,omitempty"`
	LastDumpDir   string `json:"lastDumpDir,omitempty"`
	LastDumpError string `json:"lastDumpError,omitempty"`
}

// flightState is the per-session dump/trigger machinery of a
// flight-recorder session.
type flightState struct {
	s *Session

	// ring is the recorder and the window it retains; the session's
	// trace listener is ring.Recorder().
	ring *otf2.Flight

	// dumpMu serializes dumps (concurrent triggers queue up rather than
	// interleave directory writes) and guards seq, the auto-directory
	// counter.
	dumpMu sync.Mutex
	seq    int

	dumps                                 atomic.Int64
	statMu                                sync.Mutex
	lastTrigger, lastDumpDir, lastDumpErr string

	sigCh    chan os.Signal
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newFlightState wires the configured triggers of a flight-recorder
// session: the dump signal (SIGUSR1 unless overridden or disabled) and
// the bottleneck threshold trigger, plus the shared expvar.
func newFlightState(s *Session, ring *otf2.Flight) *flightState {
	f := &flightState{s: s, ring: ring, stopCh: make(chan struct{})}
	sig := s.cfg.dumpSignal
	if !s.cfg.dumpSignalSet {
		sig = syscall.SIGUSR1
	}
	if sig != nil {
		f.startSignal(sig)
	}
	if tc := s.cfg.btTrigger; tc != nil {
		f.startBottleneckTrigger(*tc)
	}
	publishFlightExpvar(s)
	return f
}

// startSignal arms the OS-signal dump trigger.
func (f *flightState) startSignal(sig os.Signal) {
	f.sigCh = make(chan os.Signal, 1)
	signal.Notify(f.sigCh, sig)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case <-f.stopCh:
				return
			case <-f.sigCh:
				f.dump("", "signal") //nolint:errcheck // recorded in LastDumpError; a signal has no caller to fail
			}
		}
	}()
}

// startBottleneckTrigger arms the analysis-driven trigger: every
// interval dump the window into memory, scan that archive with the
// bottleneck analysis like any other, and dump once to disk when any
// finding's severity reaches the bound.
func (f *flightState) startBottleneckTrigger(tc bottleneckTriggerConfig) {
	interval := tc.interval
	if interval <= 0 {
		interval = time.Second
	}
	minSev := tc.minSeverity
	if minSev > 1 {
		minSev = 1
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-f.stopCh:
				return
			case <-t.C:
				var window otf2.Memory
				_, err := f.ring.Dump(&window)
				src := traceSource{mem: &window}
				a, _, aerr := src.bottlenecksOf(f.s.cfg.analysisWorkers, TraceQuery{})
				if err != nil || aerr != nil {
					continue // what fails here fails the dump to disk too, which reports it
				}
				for _, fd := range a.Findings {
					if fd.Severity >= minSev {
						f.dump("", "bottleneck") //nolint:errcheck // recorded in LastDumpError
						return                   // one dump per session: capture the first occurrence
					}
				}
			}
		}
	}()
}

// stop disarms the triggers and waits for in-flight trigger goroutines.
func (f *flightState) stop() {
	f.stopOnce.Do(func() {
		if f.sigCh != nil {
			signal.Stop(f.sigCh)
		}
		close(f.stopCh)
	})
	f.wg.Wait()
}

// autoDir returns the next unused auto-numbered dump directory:
// <experiment dir>/flight-NNN when an experiment directory is
// configured, scorep-flight-NNN in the working directory otherwise.
// Caller holds dumpMu.
func (f *flightState) autoDir() string {
	for {
		f.seq++
		var dir string
		if f.s.cfg.expDir != "" {
			dir = filepath.Join(f.s.cfg.expDir, fmt.Sprintf("flight-%03d", f.seq))
		} else {
			dir = fmt.Sprintf("scorep-flight-%03d", f.seq)
		}
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			return dir
		}
	}
}

// dump materializes the retained window at dir (auto-numbered when
// empty), recording the attempt in the trigger stats.
func (f *flightState) dump(dir, trigger string) (string, error) {
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	if dir == "" {
		dir = f.autoDir()
	}
	err := f.writeDumpDir(dir, trigger)

	f.dumps.Add(1)
	f.statMu.Lock()
	f.lastTrigger, f.lastDumpDir, f.lastDumpErr = trigger, dir, ""
	if err != nil {
		f.lastDumpErr = err.Error()
	}
	f.statMu.Unlock()
	return dir, err
}

// writeDumpDir materializes the window as an experiment-shaped
// directory: trace.otf2 (the accounting chunk first, then the retained
// events, then the footer index) and meta.json, which carries the same
// accounting, written last. A failed archive write — a full disk,
// typically — still writes the metadata, marked Partial with the error,
// so the salvage state of the directory is self-describing; the write
// error is returned either way.
func (f *flightState) writeDumpDir(dir, trigger string) error {
	cfg := f.s.cfg
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("flight dump: %w", err)
	}
	st := new(otf2.FlightInfo)
	var werr error
	af, err := os.Create(filepath.Join(dir, experimentTraceFile))
	if err != nil {
		werr = err
	} else {
		st, werr = f.ring.Dump(af, otf2.WithCompression(cfg.traceComp))
		if cerr := af.Close(); werr == nil {
			werr = cerr
		}
	}
	meta := ExperimentMeta{
		Config: ExperimentConfig{
			Profiling:        cfg.profiling,
			Tracing:          true,
			FilterPatterns:   cfg.filters,
			Scheduler:        cfg.sched.String(),
			TraceCompression: cfg.traceComp.String(),
		},
		Threads:        len(st.Threads),
		HasTrace:       true,
		TraceFormat:    fmt.Sprintf("spotf2-v%d", otf2.FormatVersion),
		FlightRecorder: flightRecorderInfo(st, trigger, werr),
	}
	merr := writeExperimentMeta(dir, &meta)
	if werr != nil {
		return fmt.Errorf("flight dump: writing %s: %w", filepath.Join(dir, experimentTraceFile), werr)
	}
	return merr
}

// errNoFlightRecorder reports a flight-recorder operation on a session
// without one.
var errNoFlightRecorder = errors.New("scorep: session has no flight recorder (see WithFlightRecorder)")

// DumpFlightRecorder materializes the flight recorder's current window
// as a complete experiment directory at dir: trace.otf2 — a valid
// archive carrying the retained events, their definitions, the footer
// index and the eviction-accounting chunk — plus meta.json stating the
// dropped-event/chunk counts. An empty dir picks the next auto-numbered
// directory (flight-NNN under the experiment directory, scorep-flight-NNN
// otherwise). The window is taken concurrently with recording; the
// session continues undisturbed. The resolved directory is returned
// even on error (a partial dump salvages its intact prefix and a
// Partial-marked meta.json).
func (s *Session) DumpFlightRecorder(dir string) (string, error) {
	if s.flight == nil {
		return "", errNoFlightRecorder
	}
	return s.flight.dump(dir, "api")
}

// WriteFlightRecorderArchive streams the flight recorder's current
// window as a complete archive (accounting chunk, definitions, events,
// footer index) to w — the dump path without the directory shape, for
// custom sinks and fault-injection tests.
func (s *Session) WriteFlightRecorderArchive(w io.Writer) error {
	if s.flight == nil {
		return errNoFlightRecorder
	}
	_, err := s.flight.ring.Dump(w, otf2.WithCompression(s.cfg.traceComp))
	return err
}

// DumpOnPanic is the panic-salvage trigger: deferred around measured
// code, it dumps the flight recorder when the code panics — preserving
// the window that led up to the failure — and then re-panics with the
// original value. Non-panicking returns and sessions without a flight
// recorder pass through untouched. dir as in DumpFlightRecorder ("" for
// auto-numbered).
//
//	defer s.DumpOnPanic("crash-dump")
//	riskyWorkload(s)
func (s *Session) DumpOnPanic(dir string) {
	if r := recover(); r != nil {
		if s.flight != nil {
			s.flight.dump(dir, "panic") //nolint:errcheck // recorded in LastDumpError; the panic must proceed
		}
		panic(r)
	}
}

// FlightRecorderStats returns a live snapshot of the session's flight
// recorder — ring configuration, per-thread retention and eviction
// counters, dump-trigger history — without copying any events. The zero
// value (Enabled false) is returned for sessions without a flight
// recorder.
func (s *Session) FlightRecorderStats() FlightRecorderStats {
	if s.flight == nil {
		return FlightRecorderStats{}
	}
	st := s.flight.ring.Stats()
	out := FlightRecorderStats{
		Enabled:        true,
		RingChunks:     st.RingChunks,
		ChunkEvents:    st.ChunkEvents,
		RetainedEvents: st.RetainedEvents,
		RetainedBytes:  st.RetainedBytes,
		DroppedEvents:  st.DroppedEvents,
		DroppedChunks:  st.DroppedChunks,
		Dumps:          s.flight.dumps.Load(),
	}
	for i, ts := range st.Threads {
		out.Threads = append(out.Threads, FlightRecorderThreadStats{ts.Thread, st.ThreadRetained[i], ts.DroppedEvents, ts.DroppedChunks})
	}
	s.flight.statMu.Lock()
	out.LastTrigger, out.LastDumpDir, out.LastDumpError =
		s.flight.lastTrigger, s.flight.lastDumpDir, s.flight.lastDumpErr
	s.flight.statMu.Unlock()
	return out
}

// FlightRecorderHandler returns the HTTP introspection endpoint of the
// session's flight recorder: GET responds with the FlightRecorderStats
// JSON; POST triggers a dump now (to the "dir" form/query parameter, or
// an auto-numbered directory) and responds with the dump directory.
// Mount it wherever the process serves HTTP:
//
//	http.Handle("/debug/scorep/flight", s.FlightRecorderHandler())
func (s *Session) FlightRecorderHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(s.FlightRecorderStats()) //nolint:errcheck // best-effort introspection response
		case http.MethodPost:
			if s.flight == nil {
				http.Error(w, errNoFlightRecorder.Error(), http.StatusConflict)
				return
			}
			dir, err := s.flight.dump(req.FormValue("dir"), "http")
			if err != nil {
				http.Error(w, fmt.Sprintf("dump to %s: %v", dir, err), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]string{"dir": dir}) //nolint:errcheck
		default:
			http.Error(w, "GET for stats, POST to dump", http.StatusMethodNotAllowed)
		}
	})
}

// Shared expvar: the most recent flight-recorder session publishes its
// stats under "scorep.flightrecorder". The variable is registered once
// (expvar panics on re-registration) and reads through an atomic
// session pointer, so successive sessions hand it over naturally.
var (
	flightExpvarSession atomic.Pointer[Session]
	flightExpvarOnce    sync.Once
)

func publishFlightExpvar(s *Session) {
	flightExpvarSession.Store(s)
	flightExpvarOnce.Do(func() {
		if expvar.Get("scorep.flightrecorder") != nil {
			return
		}
		expvar.Publish("scorep.flightrecorder", expvar.Func(func() any {
			if cur := flightExpvarSession.Load(); cur != nil {
				return cur.FlightRecorderStats()
			}
			return FlightRecorderStats{}
		}))
	})
}
