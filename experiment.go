package scorep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/cube"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// Experiment archive layout — the analog of Score-P's scorep-<name>/
// measurement directory: one directory holding the profile, the trace
// and the metadata that ties them to the configuration that produced
// them.
const (
	// ExperimentMetaVersion is the meta.json format version.
	ExperimentMetaVersion = 1

	experimentProfileFile = "profile.json"
	experimentTraceFile   = "trace.otf2"
	experimentMetaFile    = "meta.json"

	// experimentShardPattern matches the per-process trace shards of a
	// fleet experiment (one archive per location group, named by the
	// producing stream: trace-<id>.otf2).
	experimentShardPattern = "trace-*.otf2"
)

// profileFormatName names the profile serialization (cube JSON as
// written by WriteReportJSON).
const profileFormatName = "cube-json-v1"

// ExperimentConfig is the measurement configuration recorded in (and
// loaded from) an experiment's meta.json.
type ExperimentConfig struct {
	Profiling      bool     `json:"profiling"`
	Tracing        bool     `json:"tracing"`
	StreamingTrace bool     `json:"streamingTrace,omitempty"`
	FilterPatterns []string `json:"filterPatterns,omitempty"`
	Scheduler      string   `json:"scheduler"`
	// TraceCompression names the archived trace's event-chunk
	// compression ("none", "flate"). Absent in experiments written
	// before compression existed, which is equivalent to "none".
	TraceCompression string `json:"traceCompression,omitempty"`
	// RemoteSink is the measurement-service address the run streamed
	// its trace to (WithRemoteTrace / SCOREP_TRACE_SINK), "" for local
	// runs. When set, the trace lives in the daemon's fleet experiment,
	// not in this directory.
	RemoteSink string `json:"remoteSink,omitempty"`
}

// TraceShard describes one per-process trace archive of a multi-process
// (fleet) experiment directory, as recorded in meta.json by the daemon
// or discovered by globbing trace-*.otf2.
type TraceShard struct {
	// File is the shard's file name within the experiment directory.
	File string `json:"file"`
	// Stream is the producing process's stream id.
	Stream string `json:"stream,omitempty"`
	// Bytes is the shard size as ingested.
	Bytes int64 `json:"bytes,omitempty"`
	// DroppedEvents is the count of dropped events the producer's
	// end-of-stream frame reported (holes in the recording, not archive
	// damage); a producer of this build drops none and reports 0.
	DroppedEvents int64 `json:"droppedEvents,omitempty"`
	// GapBytes counts archive bytes lost between this shard's durable
	// prefix and the producer's resume point when the producer declared
	// an unresumable gap after a daemon crash. The shard was sealed at
	// the prefix; the missing bytes live in the producer's local
	// fallback archive when one was configured.
	GapBytes int64 `json:"gapBytes,omitempty"`
	// Resumes counts mid-stream reconnections that resumed this shard
	// after a severed connection or daemon restart.
	Resumes int64 `json:"resumes,omitempty"`
	// Complete reports a cleanly sealed shard. False marks the intact
	// prefix of a severed stream — still readable, salvaged with a
	// truncation warning.
	Complete bool `json:"complete"`
}

// RemoteFallbackInfo records that a remote-tracing session lost its
// daemon for good and spilled the trace to a local fallback archive
// (see WithRemoteTraceFallback), as recorded in meta.json.
type RemoteFallbackInfo struct {
	// File is the fallback archive path as configured.
	File string `json:"file"`
	// StartOffset is the archive byte offset of the file's first byte:
	// 0 means a complete standalone archive, a larger offset means the
	// file continues the daemon shard's durable prefix.
	StartOffset int64 `json:"startOffset"`
	// Reason describes the failure that caused the degradation.
	Reason string `json:"reason,omitempty"`
}

// ExperimentMeta is the contents of an experiment's meta.json: the
// configuration, environment and run statistics that make the archived
// profile and trace interpretable offline.
type ExperimentMeta struct {
	// FormatVersion is ExperimentMetaVersion at write time.
	FormatVersion int `json:"formatVersion"`
	// CreatedUnixNs is the wall-clock time the experiment was saved.
	CreatedUnixNs int64 `json:"createdUnixNs"`
	// WallTimeNs is the measured wall time from NewSession to End.
	WallTimeNs int64 `json:"wallTimeNs"`

	// GOMAXPROCS, NumCPU and GoVersion describe the measured process.
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
	GoVersion  string `json:"goVersion"`

	// Config is the session configuration that produced the run.
	Config ExperimentConfig `json:"config"`

	// Threads and TasksCreated summarize the run's last parallel region.
	Threads      int   `json:"threads"`
	TasksCreated int64 `json:"tasksCreated"`

	// HasProfile/HasTrace state which artifacts the directory holds;
	// the format fields record their serialization versions.
	HasProfile    bool   `json:"hasProfile"`
	HasTrace      bool   `json:"hasTrace"`
	ProfileFormat string `json:"profileFormat,omitempty"`
	TraceFormat   string `json:"traceFormat,omitempty"`

	// TraceShards lists the per-process trace archives of a fleet
	// experiment sealed by scorep-daemon. Optional: readers that
	// predate it ignore the field, and Experiment falls back to
	// globbing trace-*.otf2 when it is absent.
	TraceShards []TraceShard `json:"traceShards,omitempty"`

	// FlightRecorder records a flight-recorder run's eviction accounting:
	// the archived trace is the retained window, and DroppedEvents/
	// DroppedChunks count what the rings evicted before it. Nil for
	// full-trace runs. For triggered dumps it also names the trigger and
	// marks partial (salvage-prefix) archives.
	FlightRecorder *FlightRecorderInfo `json:"flightRecorder,omitempty"`

	// RemoteFallback, RemoteResumes and RemoteGapBytes record the fate
	// of a remote-tracing session's stream: the local archive it
	// spilled to when the daemon was lost for good (nil otherwise), how
	// often it reconnected and resumed mid-stream, and how many archive
	// bytes an unresumable gap lost remotely.
	RemoteFallback *RemoteFallbackInfo `json:"remoteFallback,omitempty"`
	RemoteResumes  int64               `json:"remoteResumes,omitempty"`
	RemoteGapBytes int64               `json:"remoteGapBytes,omitempty"`
}

// SaveExperiment writes the run's experiment archive to dir (created if
// needed): profile.json (when the session profiled), trace.otf2 (when
// it traced in memory) and meta.json. meta.json is written last, so a
// directory with readable metadata is a completely saved experiment.
// Load it back with OpenExperiment.
//
// The trace.otf2 of a local tracing session is a copy of the archive
// the session recorded into: no event is decoded or encoded, whether
// or not Trace was called, and its chunks lie in the order the threads
// sealed them. Only WithTraceCompression makes a save encode: it
// writes the decoded trace anew, compressed. The trace.otf2 of a flight
// recorder session is always a copy, of the window End dumped —
// compressed then, if at all — with the accounting chunk at its front.
func (r *Results) SaveExperiment(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	meta := ExperimentMeta{
		WallTimeNs: int64(r.wall),
		Config: ExperimentConfig{
			Profiling:      r.cfg.profiling,
			Tracing:        r.cfg.tracing,
			StreamingTrace: r.cfg.streamingSink != nil,
			FilterPatterns: r.cfg.filters,
			Scheduler:      r.cfg.sched.String(),
			RemoteSink:     r.cfg.remoteAddr,
		},
		Threads:        r.stats.Threads,
		TasksCreated:   r.stats.TasksCreated,
		RemoteFallback: r.remoteFallback,
		RemoteResumes:  r.remoteResumes,
		RemoteGapBytes: r.remoteGapBytes,
	}
	if rep := r.Report(); rep != nil {
		meta.HasProfile = true
		meta.ProfileFormat = profileFormatName
		if err := writeExperimentFile(dir, experimentProfileFile, func(f *os.File) error {
			return cube.WriteJSON(f, rep)
		}); err != nil {
			return err
		}
	} else if err := removeExperimentFile(dir, experimentProfileFile); err != nil {
		return err
	}
	// Unlocked: src.trace is read only where End set it — a local session,
	// whose first Trace call sets it later, is known by its archive.
	if r.src.recorded() {
		meta.HasTrace = true
		meta.TraceFormat = fmt.Sprintf("spotf2-v%d", otf2.FormatVersion)
		meta.Config.TraceCompression = r.cfg.traceComp.String()
		meta.FlightRecorder = r.FlightRecorder()
		if err := writeExperimentFile(dir, experimentTraceFile, func(f *os.File) error {
			if mem := r.src.mem; mem != nil && (r.flight != nil || r.cfg.traceComp == TraceCompressionNone) {
				// The recording already is the archive: a save copies it.
				for _, seg := range mem.Segments() {
					if _, err := f.Write(seg); err != nil {
						return err
					}
				}
				return nil
			}
			// Compression happens here, at save, never on a recording
			// thread; so does the encoding of a recording cut short.
			return otf2.Write(f, r.Trace(), otf2.WithCompression(r.cfg.traceComp))
		}); err != nil {
			return err
		}
	} else if err := removeExperimentFile(dir, experimentTraceFile); err != nil {
		return err
	}
	return writeExperimentMeta(dir, &meta)
}

// writeExperimentMeta stamps meta with what every experiment directory
// records of its writer — format version, time, processors, Go version
// — and writes it as dir's meta.json.
func writeExperimentMeta(dir string, meta *ExperimentMeta) error {
	meta.FormatVersion = ExperimentMetaVersion
	meta.CreatedUnixNs = time.Now().UnixNano()
	meta.GOMAXPROCS, meta.NumCPU, meta.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()
	return writeExperimentFile(dir, experimentMetaFile, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	})
}

// SaveFleetExperiment writes the meta.json of a multi-process (fleet)
// experiment directory: the shard files themselves were already written
// by the daemon's ingest, so sealing the experiment is exactly one
// metadata write — and, as with SaveExperiment, the metadata comes
// last, marking the directory complete. wall is the daemon's serving
// duration. The directory opens with OpenExperiment; the shards are
// enumerated by Experiment.TraceShards.
func SaveFleetExperiment(dir string, wall time.Duration, shards []TraceShard) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	meta := ExperimentMeta{
		WallTimeNs: int64(wall),
		Config: ExperimentConfig{
			// The shards were produced by (possibly heterogeneous)
			// remote sessions; the daemon records only what it knows:
			// streamed traces, no fleet-wide profile.
			Tracing:        true,
			StreamingTrace: true,
		},
		TraceFormat: fmt.Sprintf("spotf2-v%d", otf2.FormatVersion),
		TraceShards: shards,
	}
	return writeExperimentMeta(dir, &meta)
}

// removeExperimentFile deletes an artifact a re-save into an existing
// directory no longer produces, so stale files from a previous run
// cannot sit next to a meta.json that disclaims them.
func removeExperimentFile(dir, name string) error {
	if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("experiment: %w", err)
	}
	return nil
}

func writeExperimentFile(dir, name string, write func(*os.File) error) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("experiment: writing %s: %w", path, werr)
	}
	return nil
}

// Experiment is a loaded on-disk experiment archive. The metadata is
// read eagerly by OpenExperiment; the profile and trace load lazily on
// first use and are cached. An experiment whose trace.otf2 was cut off
// by a crashed run is salvaged: the intact prefix is used and the cut
// is reported through Warnings.
type Experiment struct {
	// Dir is the archive directory.
	Dir string
	// Meta is the decoded meta.json.
	Meta ExperimentMeta

	// AnalysisParallelism is the worker count used to decode and
	// analyze the archived trace (<= 0: one per processor). Per-thread
	// trace streams are independent, so the result is identical at
	// every setting. The bottleneck analysis finishes on the same
	// workers as the scan that fed it: its per-thread classification
	// runs side by side within this budget. A fleet's shards share it:
	// FleetTraceAnalysis and FleetBottlenecks analyse up to that many
	// shards side by side, splitting the workers between them, so a
	// shard given one worker scans and finishes serially. Set it before
	// the first Trace/TraceAnalysis call; the loaded artifacts are
	// cached.
	AnalysisParallelism int

	mu          sync.Mutex // guards the profile, the findings and the shard list
	report      *Report
	findings    []Finding
	findingsSet bool
	shards      []TraceShard
	shardsSet   bool

	// Every trace file is a source under its own lock, so that one
	// shard's scan does not wait for another's.
	src       lockedSource   // trace.otf2
	shardSrcs []lockedSource // the shard files, as shards lists them
}

// lockedSource is a trace source with the lock that guards it.
type lockedSource struct {
	mu sync.Mutex
	traceSource
}

// OpenExperiment loads the experiment archive at dir, the counterpart
// of Results.SaveExperiment. Only meta.json is read eagerly; the
// profile and trace are loaded on first access. A meta.json is refused
// when a traceShards entry names no file ("", ".." or a root).
func OpenExperiment(dir string) (*Experiment, error) {
	f, err := os.Open(filepath.Join(dir, experimentMetaFile))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	var meta ExperimentMeta
	if err := json.NewDecoder(f).Decode(&meta); err != nil {
		return nil, fmt.Errorf("experiment: decoding %s: %w", experimentMetaFile, err)
	}
	if meta.FormatVersion > ExperimentMetaVersion {
		return nil, fmt.Errorf("experiment: %s has format version %d, this build reads <= %d",
			dir, meta.FormatVersion, ExperimentMetaVersion)
	}
	for i, sh := range meta.TraceShards {
		if _, ok := shardFile(sh.File); !ok {
			return nil, fmt.Errorf("experiment: %s: traceShards[%d] names no file: %q", experimentMetaFile, i, sh.File)
		}
	}
	e := &Experiment{Dir: dir, Meta: meta}
	if meta.HasTrace {
		e.src.traceSource = traceSource{path: e.TracePath(), name: e.TracePath(), reg: region.NewRegistry()}
	}
	return e, nil
}

// readErr words a failure to read src the way every accessor reports it.
func readErr(src *traceSource, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("experiment: %s: %w", src.name, err)
}

// ProfilePath returns the path of the archived profile JSON (which
// exists only when Meta.HasProfile).
func (e *Experiment) ProfilePath() string { return filepath.Join(e.Dir, experimentProfileFile) }

// TracePath returns the path of the archived binary trace (which exists
// only when Meta.HasTrace).
func (e *Experiment) TracePath() string { return filepath.Join(e.Dir, experimentTraceFile) }

// Report loads the archived profile report, or returns (nil, nil) when
// the experiment holds none.
func (e *Experiment) Report() (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.reportLocked()
}

func (e *Experiment) reportLocked() (*Report, error) {
	if e.report != nil || !e.Meta.HasProfile {
		return e.report, nil
	}
	f, err := os.Open(e.ProfilePath())
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	rep, err := cube.ReadJSON(f, region.NewRegistry())
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", e.ProfilePath(), err)
	}
	e.report = rep
	return rep, nil
}

// Trace loads the archived event trace, or returns (nil, nil) when the
// experiment holds none. A trace truncated by a crashed run yields its
// intact prefix; the cut is recorded in Warnings, not returned as an
// error.
func (e *Experiment) Trace() (*Trace, error) {
	return locked(&e.src, e.AnalysisParallelism, (*traceSource).load)
}

// TraceAnalysis derives the paper's §VII metrics from the archived
// trace, or returns (nil, nil) when the experiment holds no trace. When
// Trace already materialized the recording the analysis reuses it;
// otherwise the archive is streamed in bounded memory without loading
// the trace. Truncated traces are salvaged like in Trace.
func (e *Experiment) TraceAnalysis() (*TraceAnalysis, error) {
	return locked(&e.src, e.AnalysisParallelism, (*traceSource).traceAnalysis)
}

// TraceAnalysisQuery derives the trace metrics restricted to the
// sub-trace matching q, or returns zero-value results when the
// experiment holds no trace. An archive with a footer index is
// accessed through it — only chunks whose thread and time bounds can
// match are decoded; a truncated archive is planned from its chunk
// framing, every chunk of the selected threads decoded and clipped
// (salvaging the intact prefix with a warning, like TraceAnalysis). The
// analysis equals filtering the full trace with q and analyzing that.
// Results are not cached: each call reflects its own query.
func (e *Experiment) TraceAnalysisQuery(q TraceQuery) (*TraceAnalysis, TraceQueryStats, error) {
	e.src.mu.Lock()
	defer e.src.mu.Unlock()
	a, st, err := e.src.analysisOf(e.AnalysisParallelism, q)
	return a, st, readErr(&e.src.traceSource, err)
}

// Bottlenecks runs the bottleneck analysis (wait-state classification,
// critical path, what-if savings) over the archived trace, or returns
// (nil, nil) when the experiment holds no trace. Like TraceAnalysis it
// reuses a materialized trace, streams the archive out-of-core
// otherwise, salvages truncated traces with a warning, and caches the
// result.
func (e *Experiment) Bottlenecks() (*BottleneckAnalysis, error) {
	return locked(&e.src, e.AnalysisParallelism, (*traceSource).bottleneckAnalysis)
}

// BottlenecksQuery is Bottlenecks restricted to the sub-trace matching
// q, with the same planned access as TraceAnalysisQuery. Results are not cached: each call reflects its
// own query.
func (e *Experiment) BottlenecksQuery(q TraceQuery) (*BottleneckAnalysis, TraceQueryStats, error) {
	e.src.mu.Lock()
	defer e.src.mu.Unlock()
	a, st, err := e.src.bottlenecksOf(e.AnalysisParallelism, q)
	return a, st, readErr(&e.src.traceSource, err)
}

// TraceShards enumerates the per-process trace shards of a
// multi-process experiment: the list sealed in meta.json by
// scorep-daemon when present, otherwise whatever trace-*.otf2 files the
// directory holds (a daemon killed before sealing still leaves usable
// shards). Globbed shards report their size, their stream id derived
// from the file name, and Complete by probing for the archive's footer
// index — a sealed archive carries one, a severed stream's prefix does
// not. The single-process trace.otf2 is not a shard. The result
// is cached; a single-process experiment returns an empty list.
func (e *Experiment) TraceShards() []TraceShard {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.shardsSet {
		e.shardsSet = true
		e.shards = e.listShards()
		e.shardSrcs = make([]lockedSource, len(e.shards))
		for i, sh := range e.shards {
			e.shardSrcs[i].traceSource = traceSource{path: filepath.Join(e.Dir, sh.File), name: "shard " + sh.File}
		}
	}
	return e.shards
}

func (e *Experiment) listShards() []TraceShard {
	if len(e.Meta.TraceShards) > 0 {
		shards := make([]TraceShard, len(e.Meta.TraceShards))
		for i, sh := range e.Meta.TraceShards {
			sh.File, _ = shardFile(sh.File)
			shards[i] = sh
		}
		return shards
	}
	var shards []TraceShard
	matches, _ := filepath.Glob(filepath.Join(e.Dir, experimentShardPattern))
	sort.Strings(matches)
	for _, m := range matches {
		name := filepath.Base(m)
		sh := TraceShard{
			File:   name,
			Stream: strings.TrimSuffix(strings.TrimPrefix(name, "trace-"), ".otf2"),
		}
		if fi, err := os.Stat(m); err == nil {
			sh.Bytes = fi.Size()
		}
		sh.Complete = shardHasIndex(m)
		shards = append(shards, sh)
	}
	return shards
}

// shardFile is the name a meta.json shard entry has in the experiment
// directory. Shard files live flat there; a path that says otherwise is
// reduced to its base name rather than followed. ok is false for an
// entry that names no file in the directory: "", ".", ".." or a root.
func shardFile(file string) (name string, ok bool) {
	name = filepath.Base(file)
	return name, name != "." && name != ".." && name != string(filepath.Separator)
}

// shardHasIndex reports whether the archive at path carries a readable
// footer index — the mark of a cleanly sealed shard.
func shardHasIndex(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	_, err = otf2.ReadIndex(f)
	return err == nil
}

// ShardTraceAnalysis derives the trace metrics of shard i of
// TraceShards, analyzed out-of-core like TraceAnalysis and cached per
// shard. A truncated shard (severed stream) is salvaged to its intact
// prefix with a per-shard warning in Warnings, naming the shard file.
func (e *Experiment) ShardTraceAnalysis(i int) (*TraceAnalysis, error) {
	return shardResult(e, i, (*traceSource).traceAnalysis)
}

// shardResult is analyse's result for shard i of TraceShards, made with
// the experiment's workers.
func shardResult[T any](e *Experiment, i int, analyse func(*traceSource, int) (T, error)) (T, error) {
	if n := len(e.TraceShards()); i < 0 || i >= n {
		var none T
		return none, fmt.Errorf("experiment: shard %d out of range (%d shards)", i, n)
	}
	return locked(&e.shardSrcs[i], e.AnalysisParallelism, analyse)
}

// locked is analyse's result for src on workers, made under src's lock,
// with the error worded as every accessor words it.
func locked[T any](src *lockedSource, workers int, analyse func(*traceSource, int) (T, error)) (T, error) {
	src.mu.Lock()
	defer src.mu.Unlock()
	v, err := analyse(&src.traceSource, workers)
	return v, readErr(&src.traceSource, err)
}

// eachShard is analyse's result for every shard of TraceShards, in shard
// order, with the first error in shard order. The shards are analysed
// side by side, as many at a time as AnalysisParallelism has workers
// (up to the shards), and the workers are split between them, at least
// one each: the fleet stays inside the budget one archive has.
func eachShard[T any](e *Experiment, analyse func(*traceSource, int) (T, error)) ([]T, error) {
	n := len(e.TraceShards())
	if n == 0 {
		return nil, nil
	}
	workers := trace.Workers(e.AnalysisParallelism)
	lanes := min(workers, n)
	each := max(workers/lanes, 1)
	out, errs := make([]T, n), make([]error, n)
	trace.Each(n, lanes, func(_, i int) { out[i], errs[i] = locked(&e.shardSrcs[i], each, analyse) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// FleetTraceAnalysis merges the analyses of every trace shard into the
// fleet-wide aggregate: exact sums over all processes' dispatch
// latency, task execution and creation time, with the management ratio
// recomputed from the merged totals. The per-thread breakdown is per
// shard (thread IDs of different processes name different locations);
// see ShardTraceAnalysis. The shards are analysed side by side within
// AnalysisParallelism. Returns (nil, nil) when the experiment has no
// shards.
func (e *Experiment) FleetTraceAnalysis() (*TraceAnalysis, error) {
	as, err := eachShard(e, (*traceSource).traceAnalysis)
	if err != nil || len(as) == 0 {
		return nil, err
	}
	return trace.MergeAnalyses(as...), nil
}

// ShardBottlenecks runs the bottleneck analysis over shard i of
// TraceShards, out-of-core and cached per shard, salvaging truncated
// shards with a per-shard warning like ShardTraceAnalysis.
func (e *Experiment) ShardBottlenecks(i int) (*BottleneckAnalysis, error) {
	return shardResult(e, i, (*traceSource).bottleneckAnalysis)
}

// FleetBottlenecks aggregates the per-shard bottleneck analyses into
// the fleet summary: per-kind fleet-summed wait-state totals with the
// worst shard each, and the shard with the longest critical path. A
// shard is named by its stream id, or by its file name where that id is
// empty or shared with another shard. The shards are analysed side by
// side within AnalysisParallelism. Returns (nil, nil) when the
// experiment has no shards.
func (e *Experiment) FleetBottlenecks() (*BottleneckFleetSummary, error) {
	as, err := eachShard(e, (*traceSource).bottleneckAnalysis)
	if err != nil || len(as) == 0 {
		return nil, err
	}
	byName := make(map[string]*BottleneckAnalysis, len(as))
	for i, name := range shardNames(e.shards) {
		byName[name] = as[i]
	}
	return bottleneck.MergeFleet(byName), nil
}

// shardNames names every shard for the fleet summary: by its stream id
// when that is its own, else by its file name, and by its place in the
// list where even that is taken (meta.json listed one file twice).
func shardNames(shards []TraceShard) []string {
	streams := make(map[string]int, len(shards))
	for _, sh := range shards {
		streams[sh.Stream]++
	}
	names := make([]string, len(shards))
	taken := make(map[string]bool, len(shards))
	for i, sh := range shards {
		name := sh.Stream
		if name == "" || streams[name] > 1 {
			name = sh.File
		}
		if taken[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		names[i], taken[name] = name, true
	}
	return names
}

// Findings diagnoses tasking inefficiencies in the archived profile, or
// returns (nil, nil) when the experiment holds none.
func (e *Experiment) Findings() ([]Finding, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.findingsSet {
		return e.findings, nil
	}
	rep, err := e.reportLocked()
	if err != nil {
		return nil, err
	}
	if rep != nil {
		e.findings = AnalyzeReport(rep)
	}
	e.findingsSet = true
	return e.findings, nil
}

// Warnings returns non-fatal conditions observed while loading the
// archive (currently: a truncated trace salvaged to its intact prefix,
// once per file however it was read; a shard's names the shard file).
// Warnings accumulate as artifacts are loaded, so check after the
// accessors that interest you.
func (e *Experiment) Warnings() []string {
	var ws []string
	if w := e.src.warningNow(); w != "" {
		ws = append(ws, w)
	}
	e.mu.Lock()
	shards := e.shardSrcs
	e.mu.Unlock()
	for i := range shards {
		if w := shards[i].warningNow(); w != "" {
			ws = append(ws, shards[i].name+": "+w)
		}
	}
	return ws
}

// warningNow is the cut the source was found to have so far.
func (s *lockedSource) warningNow() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warning
}
