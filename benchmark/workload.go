package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/trace"
)

// setupReps is how often a workload sets up in one run: setup_s is the
// median, so one slow page-in does not read as a set-up regression.
const setupReps = 3

// minRounds is the fewest paired rounds a run reports medians from,
// whatever -seconds says.
const minRounds = 5

// env is what one run of one workload works with.
type env struct {
	seed    int64
	rng     *rand.Rand
	seconds float64
	smoke   bool
	// tr records spans in a traced run and is nil otherwise.
	tr *tracer
	// dir is the run's scratch directory under outDir.
	dir string
	// workers is the analysis parallelism: the host's processors, at
	// most two — this benchmark is sized for a two-core host.
	workers int
	ops     opsTally
}

// opsTally counts the correctness checks a run made and lost; they are
// the operations behind failed_frac.
type opsTally struct {
	attempted, failed int
	failures          []string
}

// check counts one operation; a false ok records the failure.
func (o *opsTally) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// noErr is check for calls that must simply succeed.
func (o *opsTally) noErr(err error, what string) bool {
	o.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// round is what one instrumented round (and its uninstrumented twin)
// measured.
type round struct {
	id   int
	root int // span ID of the round's root span

	uninst   []time.Duration // the kernels, unmeasured (baselineReps samples)
	inst     time.Duration   // session start until End returned
	pipeline time.Duration   // session start until the report was rendered, pauses excluded
	report   time.Duration   // OpenExperiment until the report was rendered
	ingest   time.Duration   // first session start until the events were durable
	durable  []time.Duration
	untimed  time.Duration

	events int64 // events the measurement system recorded
	bytes  int64 // trace archive bytes on disk
	// archived is the event count of those archives when it differs
	// from events (a flight dump holds only the retained window).
	archived int64
	heapLive uint64
	stages   map[string]time.Duration
}

// stage times fn as one stage of rd; a traced run also records it as a
// span under the round's root.
func (e *env) stage(rd *round, name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	rd.stages[name] += t1.Sub(t0)
	e.tr.add(rd.root, rd.id, name, t0, t1)
	return t1.Sub(t0)
}

// untimed runs fn inside a round but outside its timed sections: forced
// collections, heap readings and output checks. The pause is taken out
// of the round's pipeline wall.
func (e *env) untimed(rd *round, fn func()) {
	rd.untimed += e.stage(rd, spanUntimed, fn)
	delete(rd.stages, spanUntimed)
}

const (
	spanRound   = "bench.round"
	spanUntimed = "bench.untimed"
)

// outDir holds a run's scratch directory and, after a traced run, its
// spans. It is relative so unix socket paths under it stay short.
const outDir = "benchmark/out"

// begin opens rd's root span.
func (e *env) begin(rd *round) time.Time {
	rd.stages = make(map[string]time.Duration)
	rd.root = e.tr.reserve(0, rd.id, spanRound)
	return time.Now()
}

// end closes rd's root span and derives the pipeline wall.
func (e *env) end(rd *round, start time.Time) {
	now := time.Now()
	e.tr.finish(rd.root, start, now)
	rd.pipeline = now.Sub(start) - rd.untimed
}

// quiesce collects garbage so every timed run starts from the same heap
// state whichever side of the pair ran before it.
func quiesce() { runtime.GC() }

// heapLive is the live heap after a forced collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// lastRound is what the phases after the paired rounds work on.
type lastRound struct {
	// scan and query are the trace archives the full-scan and the
	// window-query phase read.
	scan, query []string
	// reference maps an archive to the in-memory stream it holds, where
	// the workload has one; sampled queries are checked against it.
	reference map[string]*trace.Trace
	// captured loads the round's event stream for the replay probes.
	captured func() (*trace.Trace, error)
	// locations is the round's profile (nil: the workload has none).
	locations []*core.ThreadProfile
	team      []omp.TeamStats
	// threads is how many kernel threads recorded events side by side
	// (0: the workload records nothing, so it has no event budget), and
	// recordProbe the hot-path probe of the recorder mode they used.
	threads     int
	recordProbe string
}

// runner is one workload. setup may run several times; rounds run in
// pairs; last describes the final instrumented round.
type runner interface {
	setup() error
	// baselineReps is how often the baseline runs per round. A baseline
	// several times shorter than the instrumented run is sampled that
	// many times more often, or its median — the ratio's denominator —
	// would be the noisier of the two.
	baselineReps() int
	uninstrumented() time.Duration
	instrumented(rd *round)
	// verify runs the end-of-run output checks.
	verify()
	last() lastRound
	// metrics adds what only this workload measures.
	metrics(m *metricSet, rounds []*round)
}

type workload struct {
	name string
	why  string
	new  func(e *env) runner
}

var workloads = []workload{
	{"fib-fine", "BOTS fib without cut-off: ~0.56 M events from tiny tasks, so the per-event layers (clock, core, trace) are most of the run and bottleneck analysis most of the report", newFibFine},
	{"coarse-suite", "five BOTS codes with few, large tasks: event costs vanish, leaving session, save, open and render fixed costs; per-event optimisations must predict no change", newCoarseSuite},
	{"fleet-socket", "two one-thread sessions streaming over a unix socket into an in-process daemon: recorder, encoder, sink and socket are on the blocking path and share two cores with the kernels", newFleetSocket},
	{"nqueens-flight", "BOTS nqueens under the flight recorder with a dump every 100 ms: the ring-eviction mode of the recorder and the dump path under load", newNQueensFlight},
	{"archive-query", "seeded synthetic archive read back by scans, loads, bottleneck passes and indexed window queries: the reader side of otf2, where a writer-side change can cost", newArchiveQuery},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome is a finished run.
type outcome struct {
	workload string
	seed     int64
	traced   bool
	m        *metricSet
	ops      opsTally
	rounds   int
	wall     time.Duration
}

// runWorkload runs w once: set-up, paired rounds (each followed by a
// scan and query pass) for about e.seconds, the output checks and —
// traced — the layer probes.
func runWorkload(w *workload, e *env) (*outcome, error) {
	started := time.Now()
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	r := w.new(e)
	m := newMetricSet()

	reps := setupReps
	if e.smoke {
		reps = 1
	}
	var setups []time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	m.setMedian("setup_s", "s", seconds(setups))

	// Paired rounds: the seed picks which side of the first pair runs
	// first, then the sides alternate, so neither always inherits the
	// other's cache and heap state.
	instFirst := e.rng.Intn(2) == 0
	least := minRounds
	if e.smoke {
		least = 1
	}
	var rounds []*round
	qs := &querySet{}
	budget := time.Duration(e.seconds * float64(time.Second))
	for loop := time.Now(); len(rounds) < least || (!e.smoke && time.Since(loop) < budget); instFirst = !instFirst {
		rd := &round{id: len(rounds) + 1}
		baseline := func() {
			for i := 0; i < r.baselineReps(); i++ {
				rd.uninst = append(rd.uninst, r.uninstrumented())
			}
		}
		if instFirst {
			r.instrumented(rd)
			baseline()
		} else {
			baseline()
			r.instrumented(rd)
		}
		rounds = append(rounds, rd)
		qs.pass(e, r.last())
	}
	endToEndMetrics(m, rounds)
	qs.report(m)

	lr := r.last()
	qs.verify(e, lr)
	r.verify()
	r.metrics(m, rounds)
	if e.tr != nil {
		stageMetrics(e, m, rounds)
		teamMetrics(m, lr)
		if err := probes(e, lr, m); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
		if lr.threads > 0 && !e.smoke { // tiny inputs are all start-up cost: no budget to explain
			budgetMetrics(e, m, lr)
		}
		if err := e.tr.write(filepath.Join(outDir, "spans-"+w.name+".json")); err != nil {
			return nil, err
		}
	}
	return &outcome{
		workload: w.name, seed: e.seed, traced: e.tr != nil,
		m: m, ops: e.ops, rounds: len(rounds), wall: time.Since(started),
	}, nil
}

// endToEndMetrics derives the per-round end-to-end metrics. Timings are
// medians over the rounds; overhead_ratio is the ratio of the two
// medians (steadier than the median of per-pair ratios, whose
// denominator is the noisier short run).
func endToEndMetrics(m *metricSet, rounds []*round) {
	var uninst, inst, pipe, report, durable, heap, bpe, ingest []float64
	for _, rd := range rounds {
		uninst = append(uninst, seconds(rd.uninst)...)
		inst = append(inst, rd.inst.Seconds())
		pipe = append(pipe, rd.pipeline.Seconds())
		report = append(report, rd.report.Seconds())
		durable = append(durable, millis(rd.durable)...)
		heap = append(heap, float64(rd.heapLive)/(1<<20))
		archived := rd.archived
		if archived == 0 {
			archived = rd.events
		}
		bpe = append(bpe, float64(rd.bytes)/float64(archived))
		ingest = append(ingest, float64(rd.events)/rd.ingest.Seconds())
	}
	m.setMedian("baseline_run_s", "s", uninst)
	m.setMedian("inst_run_s", "s", inst)
	m.set("overhead_ratio", "ratio", m.get("inst_run_s")/m.get("baseline_run_s"))
	m.setMedian("pipeline_s", "s", pipe)
	m.setMedian("time_to_report_s", "s", report)
	m.setMedian("dump_ms_p50", "ms", durable)
	m.setMedian("heap_live_mb", "MB", heap)
	m.setMedian("archive_bytes_per_event", "B/event", bpe)
	m.setMedian("ingest_events_per_s", "1/s", ingest)
	m.set("trace.events", "count", float64(rounds[len(rounds)-1].events))
	// How the workloads separate the layers: the share of the
	// instrumented run that is measurement.
	m.set("share.measurement_of_inst_run", "frac", 1-m.get("baseline_run_s")/m.get("inst_run_s"))
}
