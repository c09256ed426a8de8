package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	scorep "repro"
	"repro/internal/bottleneck"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// archive-query: nothing is recorded here. Set-up generates a seeded
// synthetic recording and writes it twice, raw and flate-compressed,
// with the library's default writer options; the rounds then only read.
// The paired baseline is a full scan of the raw archive, the
// "instrumented" side the same scan of the compressed one — what the
// optional format costs a reader — followed by a load, the
// open-analyse-render path and windowed bottleneck queries.
type archiveRunner struct {
	e   *env
	cfg genConfig
	// bottleneckWindows is how many windowed bottleneck queries a round
	// makes.
	bottleneckWindows int

	tr         *trace.Trace
	want       *trace.Analysis
	rawDir     string
	flateDir   string
	info       archiveInfo
	writeRaw   []time.Duration
	writeFlate []time.Duration
	bnWindows  []window
	bnLat      []time.Duration
}

func newArchiveQuery(e *env) runner {
	r := &archiveRunner{e: e,
		cfg:               genConfig{Seed: e.seed, Threads: 4, Tasks: 120_000, Phases: 600},
		bottleneckWindows: 20,
		rawDir:            filepath.Join(e.dir, "raw"),
		flateDir:          filepath.Join(e.dir, "flate"),
	}
	if e.smoke {
		r.cfg.Tasks, r.cfg.Phases, r.bottleneckWindows = 4000, 20, 4
	}
	return r
}

// writeExperiment stores tr as an experiment directory holding only a
// trace, the shape OpenExperiment expects.
func writeExperiment(dir string, tr *trace.Trace, opts ...otf2.WriterOption) (time.Duration, error) {
	// Always into a fresh directory: rewriting an existing file makes
	// ext4 flush it synchronously on close.
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := otf2.WriteFile(filepath.Join(dir, "trace.otf2"), tr, opts...); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	meta, err := json.Marshal(scorep.ExperimentMeta{
		FormatVersion: scorep.ExperimentMetaVersion,
		Config:        scorep.ExperimentConfig{Tracing: true},
		Threads:       len(tr.Threads),
		HasTrace:      true,
		TraceFormat:   fmt.Sprintf("spotf2-v%d", otf2.FormatVersion),
	})
	if err != nil {
		return 0, err
	}
	return d, os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644)
}

func (r *archiveRunner) setup() error {
	r.tr, _ = generateTrace(r.cfg, region.NewRegistry())
	raw, err := writeExperiment(r.rawDir, r.tr)
	if err != nil {
		return err
	}
	flate, err := writeExperiment(r.flateDir, r.tr, otf2.WithCompression(otf2.CompressionFlate))
	if err != nil {
		return err
	}
	r.writeRaw, r.writeFlate = append(r.writeRaw, raw), append(r.writeFlate, flate)
	if r.info, err = readArchiveInfo(r.path(r.rawDir)); err != nil {
		return err
	}
	r.want = trace.Analyze(r.tr)
	r.bnWindows = makeWindows(r.e.rng, [][]int{r.info.threads, r.info.threads}, r.bottleneckWindows)
	return nil
}

func (r *archiveRunner) path(dir string) string { return filepath.Join(dir, "trace.otf2") }

// archives are the two encodings of the trace: raw, then compressed.
func (r *archiveRunner) archives() []string {
	return []string{r.path(r.rawDir), r.path(r.flateDir)}
}

// scan is one full out-of-core analysis of an archive, checked against
// the in-memory analysis of the generated stream.
func (r *archiveRunner) scan(dir string) time.Duration {
	t0 := time.Now()
	got, warn, err := otf2.AnalyzeFile(r.path(dir), r.e.workers)
	d := time.Since(t0)
	r.e.ops.check(err == nil && warn == "" && reflect.DeepEqual(got, r.want), "scan of %s differs from the in-memory analysis (err %v %s)", dir, err, warn)
	return d
}

func (r *archiveRunner) baselineReps() int { return 3 }

func (r *archiveRunner) uninstrumented() time.Duration {
	quiesce()
	return r.scan(r.rawDir)
}

func (r *archiveRunner) instrumented(rd *round) {
	e := r.e
	start := e.begin(rd)
	e.untimed(rd, quiesce)
	e.stage(rd, "otf2.scan_flate", func() { rd.inst = r.scan(r.flateDir) })

	// Loading is this workload's counterpart of dumping and ingesting:
	// the raw load's latency is its dump_ms sample, the compressed
	// load's event rate its ingest rate.
	var loaded *trace.Trace
	var err error
	for _, dir := range []string{r.rawDir, r.flateDir} {
		load := e.stage(rd, "otf2.read_file", func() {
			loaded, err = otf2.ReadFile(r.path(dir), region.NewRegistry(), e.workers)
		})
		e.ops.check(err == nil && int64(loaded.NumEvents()) == r.info.events, "load of %s: %v", dir, err)
		if dir == r.rawDir {
			rd.durable = append(rd.durable, load)
			e.untimed(rd, func() { rd.heapLive = heapLive() })
		} else {
			rd.ingest = load
		}
		loaded = nil
	}
	rd.events = r.info.events
	rd.bytes = fileSize(r.path(r.rawDir))

	e.report(rd, r.rawDir)
	e.stage(rd, "otf2.bottlenecks_flate", func() {
		_, _, _, err = otf2.AnalyzeFileBottlenecks(r.path(r.flateDir), trace.Query{}, e.workers)
	})
	e.ops.noErr(err, "bottlenecks over the compressed archive")
	e.stage(rd, "otf2.bottleneck_queries", func() {
		for _, w := range r.bnWindows {
			t0 := time.Now()
			ba, _, _, qerr := otf2.AnalyzeFileBottlenecks(r.archives()[w.archive], w.query(r.info), e.workers)
			r.bnLat = append(r.bnLat, time.Since(t0))
			if qerr != nil || ba == nil {
				err = fmt.Errorf("window %v: %v", w.query(r.info), qerr)
			}
		}
	})
	e.ops.noErr(err, "windowed bottleneck queries")
	e.end(rd, start)
}

func (r *archiveRunner) verify() {
	sameAnalyses(r.e, r.rawDir)
	// The windowed bottleneck queries, against the in-memory reference.
	for i, w := range r.bnWindows {
		if i%4 != 0 {
			continue
		}
		q := w.query(r.info)
		got, _, _, err := otf2.AnalyzeFileBottlenecks(r.archives()[w.archive], q, r.e.workers)
		want := bottleneck.AnalyzeQuery(r.tr, q, 1)
		r.e.ops.check(err == nil && reflect.DeepEqual(got, want), "bottleneck window %d (%v) differs from the in-memory analysis (err %v)", i, q, err)
	}
}

func (r *archiveRunner) last() lastRound {
	both := r.archives()
	return lastRound{
		scan:      both[:1],
		query:     both,
		reference: map[string]*trace.Trace{both[0]: r.tr, both[1]: r.tr},
		captured:  func() (*trace.Trace, error) { return r.tr, nil },
	}
}

func (r *archiveRunner) metrics(m *metricSet, rounds []*round) {
	m.setMedian("otf2.bottleneck_query_ms_p50", "ms", millis(r.bnLat))
	m.setMedian("otf2.write_raw_ms", "ms", millis(r.writeRaw))
	m.setMedian("otf2.write_flate_ms", "ms", millis(r.writeFlate))
	m.set("otf2.archive_chunks", "count", float64(r.info.chunks))
}
