package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/omp"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// The local pipeline: each kernel runs under a profiling and tracing
// session whose results are saved, reopened, analysed and rendered —
// what scorep-bots -exp followed by scorep-analyze and scorep-report
// does. fib-fine runs it over one fine-grained kernel, coarse-suite
// over five coarse ones back to back.
type localRunner struct {
	e       *env
	specs   []*bots.Spec
	size    bots.Size
	threads int
	// fixedEvents marks kernels whose event count is the same on every
	// run, which the rounds then check.
	fixedEvents bool
	baselines   int

	kernels []bots.Kernel
	// expected holds each kernel's reference result; Expected recomputes
	// it serially on every call, which belongs in set-up.
	expected   []uint64
	wantEvents int64
	lastDirs   []string
	lastRes    []*scorep.Results
}

func newFibFine(e *env) runner {
	r := &localRunner{e: e, specs: []*bots.Spec{bots.FibSpec}, size: bots.SizeSmall, threads: 2, fixedEvents: true, baselines: 3}
	if e.smoke {
		r.size = bots.SizeTiny
	}
	return r
}

func newCoarseSuite(e *env) runner {
	r := &localRunner{e: e, size: bots.SizeMedium, threads: 2, baselines: 1, specs: []*bots.Spec{
		bots.AlignmentSpec, bots.FFTSpec, bots.SortSpec, bots.SparseLUSpec, bots.StrassenSpec,
	}}
	if e.smoke {
		r.size = bots.SizeSmall
	}
	return r
}

// warmUp is the tail of every pipeline workload's set-up: one untimed
// pair, so lazy initialisation, page faults and the first growth of the
// heap are paid before round 1. Its spans carry round 0.
func warmUp(r runner) {
	r.uninstrumented()
	r.instrumented(&round{})
}

func (r *localRunner) setup() error {
	r.kernels, r.expected = r.kernels[:0], r.expected[:0]
	for _, sp := range r.specs {
		r.kernels = append(r.kernels, sp.Prepare(r.size, false))
		r.expected = append(r.expected, sp.Expected(r.size))
	}
	warmUp(r)
	return nil
}

func (r *localRunner) baselineReps() int { return r.baselines }

func (r *localRunner) uninstrumented() time.Duration {
	var total time.Duration
	for i, k := range r.kernels {
		quiesce()
		t0 := time.Now()
		s := scorep.NewSession(scorep.WithoutProfiling())
		got := k(s.Runtime(), r.threads)
		_, err := s.End()
		total += time.Since(t0)
		r.e.ops.check(err == nil && got == r.expected[i],
			"%s uninstrumented: result %d (err %v)", r.specs[i].Name, got, err)
	}
	return total
}

// render writes everything scorep-report and scorep-analyze print for
// an experiment.
func render(rep *scorep.Report, fs []scorep.Finding, ta *scorep.TraceAnalysis, ba *scorep.BottleneckAnalysis) error {
	if rep != nil {
		if err := scorep.RenderReport(io.Discard, rep, scorep.RenderOptions{}); err != nil {
			return err
		}
	}
	scorep.FormatFindings(io.Discard, fs)
	if ta != nil {
		ta.Format(io.Discard)
	}
	if ba != nil {
		ba.Format(io.Discard)
	}
	return nil
}

// report is the offline half of a round: open the experiment, analyse,
// diagnose, render. It returns the reopened trace analysis.
func (e *env) report(rd *round, dir string) *scorep.TraceAnalysis {
	t0 := time.Now()
	var (
		exp *scorep.Experiment
		ta  *scorep.TraceAnalysis
		ba  *scorep.BottleneckAnalysis
		fs  []scorep.Finding
		err error
	)
	e.stage(rd, "scorep.open", func() {
		if exp, err = scorep.OpenExperiment(dir); err == nil {
			exp.AnalysisParallelism = e.workers
		}
	})
	if !e.ops.noErr(err, "open experiment") {
		return nil
	}
	e.stage(rd, "scorep.trace_analysis", func() { ta, err = exp.TraceAnalysis() })
	e.ops.noErr(err, "trace analysis")
	e.stage(rd, "scorep.bottlenecks", func() { ba, err = exp.Bottlenecks() })
	e.ops.noErr(err, "bottleneck analysis")
	e.stage(rd, "scorep.findings", func() { fs, err = exp.Findings() })
	e.ops.noErr(err, "findings")
	e.stage(rd, "scorep.report_render", func() {
		var rep *scorep.Report
		if rep, err = exp.Report(); err == nil {
			err = render(rep, fs, ta, ba)
		}
	})
	e.ops.noErr(err, "render")
	rd.report += time.Since(t0)
	e.ops.check(len(exp.Warnings()) == 0, "experiment %s: warnings %v", dir, exp.Warnings())
	return ta
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (r *localRunner) instrumented(rd *round) {
	e := r.e
	start := e.begin(rd)
	clear(r.lastRes) // drop the previous round's traces before measuring this one's heap
	var saves time.Duration
	r.lastDirs, r.lastRes = r.lastDirs[:0], r.lastRes[:0]
	for i, k := range r.kernels {
		dir := filepath.Join(e.dir, fmt.Sprintf("exp-%s", r.specs[i].Name))
		e.untimed(rd, func() {
			// A save must create its files: rewriting the previous
			// round's makes ext4 flush them synchronously on close,
			// which is several times slower and far noisier.
			e.ops.noErr(os.RemoveAll(dir), "remove the previous round's experiment")
			quiesce()
		})
		t0 := time.Now()
		var (
			s   *scorep.Session
			res *scorep.Results
			got uint64
			err error
		)
		e.stage(rd, "scorep.session_new", func() { s = scorep.NewSession(scorep.WithTracing()) })
		e.stage(rd, "scorep.parallel", func() { got = k(s.Runtime(), r.threads) })
		e.stage(rd, "scorep.end", func() { res, err = s.End() })
		inst := time.Since(t0)
		rd.inst += inst
		e.untimed(rd, func() {
			rd.heapLive = max(rd.heapLive, heapLive())
			e.ops.check(err == nil && got == r.expected[i],
				"%s instrumented: result %d (err %v)", r.specs[i].Name, got, err)
			rd.events += int64(res.Trace().NumEvents())
		})

		save := e.stage(rd, "scorep.save", func() { err = res.SaveExperiment(dir) })
		e.ops.noErr(err, "save experiment")
		saves += save
		rd.ingest += inst + save
		reopened := e.report(rd, dir)
		e.untimed(rd, func() {
			rd.bytes += fileSize(filepath.Join(dir, "trace.otf2"))
			e.ops.check(reflect.DeepEqual(res.TraceAnalysis(), reopened),
				"%s: live trace analysis differs from the reopened experiment's", r.specs[i].Name)
		})
		r.lastDirs = append(r.lastDirs, dir)
		r.lastRes = append(r.lastRes, res)
	}
	// One sample per round: the round's experiments together. The five
	// coarse saves are a few milliseconds each, too short to be steady
	// one by one.
	rd.durable = append(rd.durable, saves)
	e.end(rd, start)
	if r.fixedEvents {
		if r.wantEvents == 0 {
			r.wantEvents = rd.events
		}
		e.ops.check(rd.events == r.wantEvents, "round %d recorded %d events, earlier rounds %d", rd.id, rd.events, r.wantEvents)
	}
}

// sameAnalyses checks that an experiment analysed with one worker and
// with the run's worker count gives identical results.
func sameAnalyses(e *env, dir string) {
	var tas []*scorep.TraceAnalysis
	var bas []*scorep.BottleneckAnalysis
	for _, workers := range []int{1, e.workers} {
		exp, err := scorep.OpenExperiment(dir)
		if !e.ops.noErr(err, "reopen experiment") {
			return
		}
		exp.AnalysisParallelism = workers
		ta, err := exp.TraceAnalysis()
		e.ops.noErr(err, "trace analysis")
		ba, err := exp.Bottlenecks()
		e.ops.noErr(err, "bottleneck analysis")
		tas, bas = append(tas, ta), append(bas, ba)
	}
	e.ops.check(reflect.DeepEqual(tas[0], tas[1]), "%s: parallel trace analysis differs from sequential", dir)
	e.ops.check(reflect.DeepEqual(bas[0], bas[1]), "%s: parallel bottleneck analysis differs from sequential", dir)
}

func (r *localRunner) verify() {
	for _, dir := range r.lastDirs {
		sameAnalyses(r.e, dir)
	}
}

func tracePaths(dirs []string) []string {
	out := make([]string, len(dirs))
	for i, d := range dirs {
		out[i] = filepath.Join(d, "trace.otf2")
	}
	return out
}

func (r *localRunner) last() lastRound {
	lr := lastRound{scan: tracePaths(r.lastDirs), reference: map[string]*trace.Trace{}, threads: r.threads, recordProbe: "trace.record_ns"}
	lr.query = lr.scan
	// The replay probes get the round's largest stream.
	var biggest *trace.Trace
	for i, res := range r.lastRes {
		tr := res.Trace()
		lr.reference[lr.scan[i]] = tr
		if biggest == nil || tr.NumEvents() > biggest.NumEvents() {
			biggest = tr
		}
		lr.locations = append(lr.locations, res.Locations()...)
		lr.team = append(lr.team, res.TeamStats())
	}
	lr.captured = func() (*trace.Trace, error) { return biggest, nil }
	return lr
}

func (r *localRunner) metrics(*metricSet, []*round) {}

// readShards loads trace archives into one stream, renumbering threads
// so shards of different processes (which all start at thread 0) stay
// apart.
func readShards(paths []string) (*trace.Trace, error) {
	out := &trace.Trace{Threads: map[int][]trace.Event{}}
	reg := region.NewRegistry()
	for _, p := range paths {
		tr, err := otf2.ReadFile(p, reg, 1)
		if err != nil {
			return nil, err
		}
		for _, tid := range tr.ThreadIDs() {
			out.Threads[len(out.Threads)] = tr.Threads[tid]
		}
	}
	return out, nil
}

// teamMetrics reports the runtime's scheduler counters of the last
// instrumented round, summed over its parallel regions.
func teamMetrics(m *metricSet, lr lastRound) {
	var st omp.TeamStats
	for _, t := range lr.team {
		st.TasksCreated += t.TasksCreated
		st.Steals += t.Steals
		st.StealAttempts += t.StealAttempts
		st.FailedSteals += t.FailedSteals
		st.Parks += t.Parks
	}
	m.set("omp.tasks", "count", float64(st.TasksCreated))
	m.set("omp.steals", "count", float64(st.Steals))
	m.set("omp.parks", "count", float64(st.Parks))
	frac := 0.0
	if st.StealAttempts > 0 {
		frac = 1 - float64(st.FailedSteals)/float64(st.StealAttempts)
	}
	m.set("omp.steal_success_frac", "frac", frac)

	var nodes, instances int64
	for _, loc := range lr.locations {
		nodes += loc.NodesAllocated()
		instances += loc.InstancesAllocated()
	}
	m.set("core.nodes_allocated", "count", float64(nodes))
	m.set("core.instances_allocated", "count", float64(instances))
}
