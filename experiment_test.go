package scorep_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	scorep "repro"
)

// runExperimentWorkload drives a profiled+traced session through a
// deterministic task workload and returns its finished results.
func runExperimentWorkload(t testing.TB, prefix string, tasks int, opts ...scorep.Option) *scorep.Results {
	t.Helper()
	s := scorep.NewSession(opts...)
	par := scorep.RegisterRegion(prefix+".parallel", "experiment_test.go", 1, scorep.RegionParallel)
	task := scorep.RegisterRegion(prefix+".task", "experiment_test.go", 2, scorep.RegionTask)
	tw := scorep.RegisterRegion(prefix+".taskwait", "experiment_test.go", 3, scorep.RegionTaskwait)
	s.Parallel(2, par, func(th *scorep.Thread) {
		if th.ID != 0 {
			return
		}
		for i := 0; i < tasks; i++ {
			th.NewTask(task, func(*scorep.Thread) {})
		}
		th.Taskwait(tw)
	})
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExperimentRoundTrip(t *testing.T) {
	res := runExperimentWorkload(t, "er", 64, scorep.WithTracing())
	dir := filepath.Join(t.TempDir(), "scorep-roundtrip")
	if err := res.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := exp.Meta
	if m.FormatVersion != scorep.ExperimentMetaVersion {
		t.Errorf("meta format version = %d, want %d", m.FormatVersion, scorep.ExperimentMetaVersion)
	}
	if !m.HasProfile || !m.HasTrace {
		t.Fatalf("meta = %+v, want profile and trace present", m)
	}
	if !m.Config.Profiling || !m.Config.Tracing {
		t.Errorf("config = %+v, want profiling and tracing recorded", m.Config)
	}
	if m.Config.Scheduler != scorep.SchedCentralQueue.String() {
		t.Errorf("scheduler = %q, want %q", m.Config.Scheduler, scorep.SchedCentralQueue)
	}
	if m.Threads != 2 || m.TasksCreated != 64 {
		t.Errorf("threads/tasks = %d/%d, want 2/64", m.Threads, m.TasksCreated)
	}
	if m.GOMAXPROCS != runtime.GOMAXPROCS(0) || m.GoVersion != runtime.Version() {
		t.Errorf("environment meta = %+v, want current process values", m)
	}
	if m.WallTimeNs <= 0 || m.CreatedUnixNs <= 0 {
		t.Errorf("timing meta = %+v, want positive wall and creation time", m)
	}
	if m.ProfileFormat == "" || m.TraceFormat == "" {
		t.Errorf("format versions missing from meta: %+v", m)
	}

	// The archived report must round-trip byte-identically: serializing
	// the live report, the file contents and serializing the reloaded
	// report are all the same bytes.
	var live bytes.Buffer
	if err := scorep.WriteReportJSON(&live, res.Report()); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(exp.ProfilePath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), onDisk) {
		t.Error("profile.json differs from the live report's serialization")
	}
	loaded, err := exp.Report()
	if err != nil {
		t.Fatal(err)
	}
	var reloaded bytes.Buffer
	if err := scorep.WriteReportJSON(&reloaded, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), reloaded.Bytes()) {
		t.Error("report JSON is not byte-identical after OpenExperiment")
	}

	// The archived trace must reproduce the live run's analysis exactly
	// (the streaming analysis over trace.otf2 vs. the in-memory one).
	liveA := res.TraceAnalysis()
	loadedA, err := exp.TraceAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveA, loadedA) {
		t.Errorf("trace analysis differs after round trip:\nlive:   %+v\nloaded: %+v", liveA, loadedA)
	}
	tr, err := exp.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() != res.Trace().NumEvents() {
		t.Errorf("trace events = %d, want %d", tr.NumEvents(), res.Trace().NumEvents())
	}
	if len(exp.Warnings()) != 0 {
		t.Errorf("unexpected warnings on an intact archive: %v", exp.Warnings())
	}

	// Findings derive from the same report on both sides.
	expFindings, err := exp.Findings()
	if err != nil {
		t.Fatal(err)
	}
	if len(expFindings) != len(res.Findings()) {
		t.Errorf("findings = %d, want %d as live", len(expFindings), len(res.Findings()))
	}
}

// TestExperimentAnalysisParallelism checks the archived trace loads and
// analyzes identically through the parallel decode pipeline.
func TestExperimentAnalysisParallelism(t *testing.T) {
	res := runExperimentWorkload(t, "eap", 128, scorep.WithTracing())
	dir := filepath.Join(t.TempDir(), "scorep-parallel")
	if err := res.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}

	seq, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	seq.AnalysisParallelism = 1
	par, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	par.AnalysisParallelism = 4

	wantA, err := seq.TraceAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := par.TraceAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantA, gotA) {
		t.Errorf("parallel experiment analysis diverges:\n got %+v\nwant %+v", gotA, wantA)
	}

	wantTr, err := seq.Trace()
	if err != nil {
		t.Fatal(err)
	}
	gotTr, err := par.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if gotTr.NumEvents() != wantTr.NumEvents() || len(gotTr.Threads) != len(wantTr.Threads) {
		t.Errorf("parallel trace load = %d events/%d threads, want %d/%d",
			gotTr.NumEvents(), len(gotTr.Threads), wantTr.NumEvents(), len(wantTr.Threads))
	}
}

// TestOpenExperimentTruncatedTrace models the crashed-run case: the
// experiment's trace.otf2 is cut off mid-chunk, and OpenExperiment
// salvages the intact prefix instead of failing.
func TestOpenExperimentTruncatedTrace(t *testing.T) {
	// Enough tasks that thread 0's create events span multiple archive
	// chunks (32 KiB each), so a truncated file retains a usable prefix.
	res := runExperimentWorkload(t, "ec", 8000, scorep.WithTracing())
	dir := filepath.Join(t.TempDir(), "scorep-crashed")
	if err := res.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.otf2")
	fi, err := os.Stat(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Cut deep into the event stream: an archive ends with its footer
	// index and trailer, so a small tail cut would lose only the index
	// (and with it the seekable fast path), not events.
	if err := os.Truncate(tracePath, fi.Size()*3/5); err != nil {
		t.Fatal(err)
	}

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := exp.Trace()
	if err != nil {
		t.Fatalf("truncated trace must salvage, got error: %v", err)
	}
	if tr == nil || tr.NumEvents() == 0 {
		t.Fatal("salvaged prefix holds no events")
	}
	if tr.NumEvents() >= res.Trace().NumEvents() {
		t.Errorf("salvaged %d events, want fewer than the %d recorded", tr.NumEvents(), res.Trace().NumEvents())
	}
	if len(exp.Warnings()) == 0 {
		t.Error("truncation must surface as a warning")
	}
	a, err := exp.TraceAnalysis()
	if err != nil || a == nil {
		t.Fatalf("streaming analysis of the salvaged prefix failed: %v", err)
	}
	if got := len(exp.Warnings()); got != 1 {
		t.Errorf("warnings = %d (%v), want the truncation reported exactly once", got, exp.Warnings())
	}
	// One cut, one warning: whichever accessors read the file, in
	// whichever order, scanning it or loading it.
	window := scorep.TraceQuery{Windowed: true, MinTime: tr.Threads[0][0].Time, MaxTime: tr.Threads[0][len(tr.Threads[0])/2].Time}
	accessors := []func(*scorep.Experiment) error{
		func(e *scorep.Experiment) error { _, err := e.TraceAnalysis(); return err },
		func(e *scorep.Experiment) error { _, err := e.Bottlenecks(); return err },
		func(e *scorep.Experiment) error { _, _, err := e.TraceAnalysisQuery(window); return err },
		func(e *scorep.Experiment) error { _, _, err := e.BottlenecksQuery(window); return err },
		func(e *scorep.Experiment) error { _, err := e.Trace(); return err },
	}
	for _, reverse := range []bool{false, true} {
		exp, err := scorep.OpenExperiment(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := range accessors {
			if reverse {
				i = len(accessors) - 1 - i
			}
			if err := accessors[i](exp); err != nil {
				t.Fatalf("accessor %d (reverse=%v): %v", i, reverse, err)
			}
			if got := exp.Warnings(); len(got) != 1 || !strings.HasSuffix(got[0], "; using the intact prefix") {
				t.Fatalf("after accessor %d (reverse=%v): warnings %q, want the one cut reported once", i, reverse, got)
			}
		}
		if a, err := exp.TraceAnalysis(); err != nil || !reflect.DeepEqual(a, analyzeTrace(tr, scorep.TraceQuery{}, 1)) {
			t.Errorf("reverse=%v: analysis of the salvaged prefix differs from the analysis of its events (%v)", reverse, err)
		}
	}
	// The profile is unaffected by the trace truncation.
	rep, err := exp.Report()
	if err != nil || rep == nil {
		t.Fatalf("report unreadable after trace truncation: %v", err)
	}
}

func TestExperimentWithoutArtifacts(t *testing.T) {
	res := runExperimentWorkload(t, "ee", 4, scorep.WithoutProfiling())
	dir := filepath.Join(t.TempDir(), "scorep-bare")
	if err := res.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Meta.HasProfile || exp.Meta.HasTrace {
		t.Fatalf("meta = %+v, want no artifacts", exp.Meta)
	}
	if rep, err := exp.Report(); rep != nil || err != nil {
		t.Errorf("Report() = (%v, %v), want (nil, nil)", rep, err)
	}
	if tr, err := exp.Trace(); tr != nil || err != nil {
		t.Errorf("Trace() = (%v, %v), want (nil, nil)", tr, err)
	}
	if fs, err := exp.Findings(); fs != nil || err != nil {
		t.Errorf("Findings() = (%v, %v), want (nil, nil)", fs, err)
	}
}

// TestSaveExperimentOverwriteRemovesStaleArtifacts re-saves a
// profile-only run into a directory that previously held a traced run:
// the orphaned trace.otf2 must not survive next to a meta.json that
// disclaims it.
func TestSaveExperimentOverwriteRemovesStaleArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "scorep-reused")
	traced := runExperimentWorkload(t, "eo1", 16, scorep.WithTracing())
	if err := traced.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}
	profiledOnly := runExperimentWorkload(t, "eo2", 16)
	if err := profiledOnly.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Meta.HasTrace {
		t.Error("re-saved profile-only experiment still claims a trace")
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.otf2")); !os.IsNotExist(err) {
		t.Errorf("stale trace.otf2 survived the re-save (stat err = %v)", err)
	}
	if rep, err := exp.Report(); err != nil || rep == nil {
		t.Errorf("re-saved profile unreadable: %v", err)
	}
}

func TestOpenExperimentErrors(t *testing.T) {
	if _, err := scorep.OpenExperiment(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{bogus"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scorep.OpenExperiment(dir); err == nil {
		t.Error("corrupt meta.json accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"formatVersion": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scorep.OpenExperiment(dir); err == nil {
		t.Error("future meta format version accepted")
	}
}

// TestOpenExperimentShardNames holds a fleet meta.json's shard entries to
// files directly inside the experiment directory: a path is reduced to
// its base name, and an entry whose base name is no file — it would
// resolve to the directory or its parent — is refused, naming it.
func TestOpenExperimentShardNames(t *testing.T) {
	for _, file := range []string{"..", "", ".", "/", "sub/..", "sub/."} {
		dir := t.TempDir()
		if err := scorep.SaveFleetExperiment(dir, 0, []scorep.TraceShard{{File: "trace-a.otf2"}, {File: file}}); err != nil {
			t.Fatal(err)
		}
		exp, err := scorep.OpenExperiment(dir)
		if err == nil {
			t.Errorf("shard %q accepted, resolving to %s", file, filepath.Join(dir, exp.TraceShards()[1].File))
			continue
		}
		if want := "traceShards[1] names no file: " + strconv.Quote(file); !strings.Contains(err.Error(), want) {
			t.Errorf("shard %q: error %q does not say %q", file, err, want)
		}
	}
	dir := t.TempDir()
	if err := scorep.SaveFleetExperiment(dir, 0, []scorep.TraceShard{{File: "../elsewhere/trace-a.otf2"}}); err != nil {
		t.Fatal(err)
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := exp.TraceShards(); len(got) != 1 || got[0].File != "trace-a.otf2" {
		t.Errorf("TraceShards = %+v, want the entry reduced to trace-a.otf2", got)
	}
}

// TestOpenExperimentRefusesOtherVersions saves an experiment, then sets
// the version byte of its trace — and of a copy of it as a fleet shard —
// to one this build does not read: the experiment opens and its report
// reads, but every way to its trace returns an error, which for versions
// 1 to 3 names the last commit that reads them, and none salvages.
func TestOpenExperimentRefusesOtherVersions(t *testing.T) {
	res := runExperimentWorkload(t, "ev", 64, scorep.WithTracing())
	for _, version := range []byte{1, 3, 5} {
		dir := t.TempDir()
		if err := res.SaveExperiment(dir); err != nil {
			t.Fatal(err)
		}
		archive, err := os.ReadFile(filepath.Join(dir, "trace.otf2"))
		if err != nil {
			t.Fatal(err)
		}
		archive[len("SPOTF2\x00")] = version
		for _, name := range []string{"trace.otf2", "trace-a.otf2"} {
			if err := os.WriteFile(filepath.Join(dir, name), archive, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		exp, err := scorep.OpenExperiment(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := exp.Report(); err != nil || rep == nil {
			t.Fatalf("version %d: the report does not read: %v", version, err)
		}
		accessors := map[string]func() error{
			"Trace":              func() error { _, err := exp.Trace(); return err },
			"TraceAnalysis":      func() error { _, err := exp.TraceAnalysis(); return err },
			"Bottlenecks":        func() error { _, err := exp.Bottlenecks(); return err },
			"TraceAnalysisQuery": func() error { _, _, err := exp.TraceAnalysisQuery(scorep.TraceQuery{}); return err },
			"FleetTraceAnalysis": func() error { _, err := exp.FleetTraceAnalysis(); return err },
			"FleetBottlenecks":   func() error { _, err := exp.FleetBottlenecks(); return err },
		}
		for what, read := range accessors {
			if err := read(); err == nil || (version <= 3) != strings.Contains(err.Error(), "a6f702c") {
				t.Errorf("version %d: %s = %v", version, what, err)
			}
		}
		if w := exp.Warnings(); len(w) != 0 {
			t.Errorf("version %d: warnings %q, want none: nothing was salvaged", version, w)
		}
	}
}

// metaFixtures are the committed meta.json files, each in its directory
// under testdata, with how this tree writes each: a local tracing
// session's, and a fleet's of one complete shard, trace-a.otf2, holding
// internal/otf2/testdata/v4.otf2.
var metaFixtures = map[string]func(t testing.TB, dir string) error{
	"experiment-local": func(t testing.TB, dir string) error {
		return runExperimentWorkload(t, "fxl", 16, scorep.WithTracing()).SaveExperiment(dir)
	},
	"experiment-fleet": func(t testing.TB, dir string) error {
		return scorep.SaveFleetExperiment(dir, time.Second, []scorep.TraceShard{
			{File: "trace-a.otf2", Stream: "a", Bytes: int64(len(v4Archive(t))), Complete: true},
		})
	},
}

func v4Archive(t testing.TB) []byte {
	t.Helper()
	archive, err := os.ReadFile(filepath.Join("internal", "otf2", "testdata", "v4.otf2"))
	if err != nil {
		t.Fatal(err)
	}
	return archive
}

// encodeMeta encodes meta as SaveExperiment writes it.
func encodeMeta(t testing.TB, meta scorep.ExperimentMeta) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetaFixtures holds each committed meta.json to what this tree
// writes, but for the fields that describe the writing machine and
// moment (time, wall time, processors, Go version), and to what
// OpenExperiment reads of it, written back.
func TestMetaFixtures(t *testing.T) {
	for name, write := range metaFixtures {
		want, err := os.ReadFile(filepath.Join("testdata", name, "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		var committed scorep.ExperimentMeta
		if err := json.Unmarshal(want, &committed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dir := t.TempDir()
		if err := write(t, dir); err != nil {
			t.Fatal(err)
		}
		exp, err := scorep.OpenExperiment(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := exp.Meta
		m.CreatedUnixNs, m.WallTimeNs = committed.CreatedUnixNs, committed.WallTimeNs
		m.GOMAXPROCS, m.NumCPU, m.GoVersion = committed.GOMAXPROCS, committed.NumCPU, committed.GoVersion
		if got := encodeMeta(t, m); !bytes.Equal(got, want) {
			t.Errorf("%s: this tree writes\n%s\nthe committed meta.json is\n%s", name, got, want)
		}

		dir = t.TempDir()
		for file, data := range map[string][]byte{"meta.json": want, "trace.otf2": v4Archive(t), "trace-a.otf2": v4Archive(t)} {
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if exp, err = scorep.OpenExperiment(dir); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encodeMeta(t, exp.Meta); !bytes.Equal(got, want) {
			t.Errorf("%s: OpenExperiment reads\n%s\nthe committed meta.json is\n%s", name, got, want)
		}
	}
}

// FuzzOpenExperiment opens arbitrary bytes as the meta.json of a
// directory that holds one recording as trace.otf2 and as the shard
// trace-a.otf2. Nothing may panic; an accepted experiment's shards lie
// directly inside its directory; its trace and fleet analyses return a
// result or an error; and its Meta, written back and reopened, encodes
// as it did.
func FuzzOpenExperiment(f *testing.F) {
	archive := v4Archive(f)
	experimentDir := func() string {
		dir := f.TempDir()
		for _, name := range []string{"trace.otf2", "trace-a.otf2"} {
			if err := os.WriteFile(filepath.Join(dir, name), archive, 0o644); err != nil {
				f.Fatal(err)
			}
		}
		return dir
	}
	seed := func(dir string, err error) {
		if err != nil {
			f.Fatal(err)
		}
		meta, err := os.ReadFile(filepath.Join(dir, "meta.json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(meta)
	}
	for name := range metaFixtures {
		seed(filepath.Join("testdata", name), nil)
	}
	flight := f.TempDir()
	seed(flight, runExperimentWorkload(f, "fzf", 64, scorep.WithFlightRecorder(2), scorep.WithFlightChunkEvents(32),
		scorep.WithDumpSignal(nil)).SaveExperiment(flight))

	dir, again := experimentDir(), experimentDir()
	f.Fuzz(func(t *testing.T, meta []byte) {
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		exp, err := scorep.OpenExperiment(dir)
		if err != nil {
			return
		}
		shards := exp.TraceShards()
		for _, sh := range shards {
			if p := filepath.Join(exp.Dir, sh.File); filepath.Dir(p) != filepath.Clean(exp.Dir) || filepath.Base(p) != sh.File {
				t.Fatalf("shard %q resolves to %s, not a file directly inside %s", sh.File, p, exp.Dir)
			}
		}
		if a, err := exp.TraceAnalysis(); a == nil && err == nil && exp.Meta.HasTrace {
			t.Error("TraceAnalysis of an experiment with a trace returned neither a result nor an error")
		}
		if a, err := exp.FleetTraceAnalysis(); a == nil && err == nil && len(shards) > 0 {
			t.Error("FleetTraceAnalysis of an experiment with shards returned neither a result nor an error")
		}
		if a, err := exp.FleetBottlenecks(); a == nil && err == nil && len(shards) > 0 {
			t.Error("FleetBottlenecks of an experiment with shards returned neither a result nor an error")
		}

		enc, err := json.Marshal(exp.Meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(again, "meta.json"), enc, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := scorep.OpenExperiment(again)
		if err != nil {
			t.Fatalf("accepted meta.json refused once re-encoded: %v\n%s", err, enc)
		}
		if enc2, err := json.Marshal(reopened.Meta); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoded meta.json reopens as\n%s\nnot\n%s (%v)", enc2, enc, err)
		}
	})
}
