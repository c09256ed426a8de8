package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// probeOps is the fixed work of a hot-path probe (a tenth in -smoke).
const probeOps = 2_000_000

var (
	probePar  = region.MustRegister("bench.parallel", "probes.go", 1, region.Parallel)
	probeWork = region.MustRegister("bench.work", "probes.go", 2, region.UserFunction)
	probeTask = region.MustRegister("bench.task", "probes.go", 3, region.Task)
	probeTw   = region.MustRegister("bench.taskwait", "probes.go", 4, region.Taskwait)
)

func nopFn()              {}
func nopTask(*omp.Thread) {}

// discardSink is a streaming-trace sink that costs nothing.
type discardSink struct{}

func (discardSink) WriteEvents(int, []trace.Event) error { return nil }

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// perOp times n calls of fn after a short warm-up and returns ns/call.
func perOp(n int, fn func()) float64 {
	for i := 0; i < 512; i++ {
		fn()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// onThread runs body as the only thread of a parallel region on a
// runtime emitting to l.
func onThread(l omp.Listener, body func(t *omp.Thread)) {
	if l == nil {
		omp.NewRuntime(nil).Parallel(1, probePar, body)
		return
	}
	omp.NewRuntime(l).Parallel(1, probePar, body)
}

// enterExit is ns per instrumented user-region visit (two events)
// through runtime and listener.
func enterExit(l omp.Listener, n int) (ns float64) {
	onThread(l, func(t *omp.Thread) {
		ns = perOp(n, func() { pomp.Function(t, probeWork, nopFn) })
	})
	return ns
}

// hotPathProbes measures each per-event layer alone, with fixed work.
// They do not depend on the workload: every traced run repeats them so
// that every run carries the whole cost budget.
func hotPathProbes(m *metricSet, probeOps int) {
	clk := clock.NewSystem()
	var sum int64
	m.set("clock.now_ns", "ns", perOp(probeOps, func() { sum += clk.Now() }))
	if sum < 0 {
		panic("benchmark: clock went backwards")
	}

	m.set("omp.nop_enter_exit_ns", "ns", enterExit(nil, probeOps))
	onThread(nil, func(t *omp.Thread) {
		i := 0
		m.set("omp.task_spawn_ns", "ns", perOp(probeOps, func() {
			t.NewTask(probeTask, nopTask)
			if i++; i%64 == 0 {
				t.Taskwait(probeTw)
			}
		}))
		t.Taskwait(probeTw)
	})

	// The profile engine alone, timestamps supplied: no clock, no
	// runtime.
	p := core.NewThreadProfile(0, clk)
	now := int64(0)
	m.set("core.enter_exit_ns", "ns", perOp(probeOps, func() {
		now += 2
		p.EnterAt(probeWork, now)
		p.ExitAt(probeWork, now+1)
	}))
	p = core.NewThreadProfile(0, clk)
	p.EnterAt(probeTw, 0)
	m.set("core.task_cycle_ns", "ns", perOp(probeOps, func() {
		now += 2
		p.TaskBeginAt(probeTask, now)
		p.TaskEndAt(now + 1)
	}))

	meas := measure.New()
	m.set("measure.enter_exit_ns", "ns", enterExit(meas, probeOps))
	t0 := time.Now()
	meas.Finish()
	m.set("measure.finish_ms", "ms", ms(time.Since(t0)))
	// A filter that excludes nothing but is consulted per event.
	m.set("measure.filter_ns", "ns", enterExit(measure.NewFilter(measure.New(), "zz_never_*", "zz_nomatch"), probeOps))

	// The recorder's three modes, per event. The in-memory mode keeps
	// what it records, so it runs half the visits (still 2 M events).
	rec := trace.NewRecorder(clk)
	m.set("trace.record_ns", "ns", enterExit(rec, probeOps/2)/2)
	t0 = time.Now()
	rec.Finish()
	m.set("trace.finish_ms", "ms", ms(time.Since(t0)))
	m.set("trace.stream_record_ns", "ns", enterExit(trace.NewStreamingRecorder(clk, discardSink{}, 0), probeOps)/2)
	m.set("trace.flight_record_ns", "ns", enterExit(trace.NewFlightRecorder(clk, flightRing, 0), probeOps)/2)
	// The session's profile+trace pair under the fused Tee, per visit.
	m.set("trace.tee_enter_exit_ns", "ns", enterExit(
		trace.NewTee(measure.NewWithClock(clk, region.Default), trace.NewStreamingRecorder(clk, discardSink{}, 0)), probeOps))
}

// timeMedian runs fn reps times and returns the median wall.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		quiesce()
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func perEvent(d time.Duration, events int) float64 { return float64(d.Nanoseconds()) / float64(events) }

// replayProbes feeds the round's own event stream to one layer at a
// time, so each layer's cost is known for exactly the traffic the
// end-to-end numbers were taken with.
func replayProbes(e *env, tr *trace.Trace, m *metricSet) error {
	events := tr.NumEvents()
	if events == 0 {
		return fmt.Errorf("no captured events to replay")
	}
	reps := 3
	if e.smoke {
		reps = 1
	}
	par := func(name string) {
		if runtime.NumCPU() < e.workers || e.workers < 2 {
			m.note(name, "unresolved: fewer processors than workers")
		}
	}

	// trace and bottleneck analysis, in memory.
	taSeq := timeMedian(reps, func() { trace.Analyze(tr) })
	m.set("trace.analyze_ns_per_event", "ns", perEvent(taSeq, events))
	m.set("trace.analyze_par_ns_per_event", "ns", perEvent(timeMedian(reps, func() { trace.AnalyzeParallel(tr, e.workers) }), events))
	par("trace.analyze_par_ns_per_event")
	var ba *bottleneck.Analysis
	var mallocs uint64
	bnSeq := timeMedian(reps, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ba = bottleneck.AnalyzeQuery(tr, trace.Query{}, 1)
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	m.set("bottleneck.analyze_ns_per_event", "ns", perEvent(bnSeq, events))
	m.set("bottleneck.allocs_per_event", "1/event", float64(mallocs)/float64(events))
	m.set("bottleneck.analyze_par_ns_per_event", "ns", perEvent(timeMedian(reps, func() { bottleneck.AnalyzeQuery(tr, trace.Query{}, e.workers) }), events))
	par("bottleneck.analyze_par_ns_per_event")
	m.set("bottleneck.vs_trace_ratio", "ratio", float64(bnSeq)/float64(taSeq))
	shards := map[string]*bottleneck.Analysis{}
	for i := 0; i < 8; i++ {
		shards[fmt.Sprintf("shard%d", i)] = ba
	}
	m.set("bottleneck.merge_fleet_ms", "ms", ms(timeMedian(25, func() { bottleneck.MergeFleet(shards) })))

	// otf2: encode, write, decode, out-of-core analysis.
	var raw, flate countingWriter
	var encErr error
	enc := timeMedian(reps, func() {
		raw.n = 0
		if err := otf2.Write(&raw, tr); err != nil {
			encErr = err
		}
	})
	encFlate := timeMedian(reps, func() {
		flate.n = 0
		if err := otf2.Write(&flate, tr, otf2.WithCompression(otf2.CompressionFlate)); err != nil {
			encErr = err
		}
	})
	if encErr != nil {
		return encErr
	}
	m.set("otf2.encode_ns_per_event", "ns", perEvent(enc, events))
	m.set("otf2.encode_flate_ns_per_event", "ns", perEvent(encFlate, events))
	m.set("otf2.bytes_per_event", "B/event", float64(raw.n)/float64(events))
	m.set("otf2.flate_bytes_per_event", "B/event", float64(flate.n)/float64(events))

	dir := filepath.Join(e.dir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace.otf2")
	var ioErr error
	keep := func(err error) {
		if err != nil && ioErr == nil {
			ioErr = err
		}
	}
	// Each write creates the file: rewriting an existing one makes ext4
	// flush it synchronously on close.
	var writes []float64
	for i := 0; i < reps; i++ {
		keep(os.RemoveAll(path))
		quiesce()
		t0 := time.Now()
		keep(otf2.WriteFile(path, tr))
		writes = append(writes, ms(time.Since(t0)))
	}
	m.set("otf2.write_file_ms", "ms", median(writes))
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	decode := func(workers int) time.Duration {
		return timeMedian(reps, func() {
			_, err := otf2.ReadAllParallel(bytes.NewReader(data), region.NewRegistry(), workers)
			keep(err)
		})
	}
	m.set("otf2.decode_ns_per_event", "ns", perEvent(decode(1), events))
	m.set("otf2.decode_par_ns_per_event", "ns", perEvent(decode(e.workers), events))
	par("otf2.decode_par_ns_per_event")
	m.set("otf2.analyze_file_ns_per_event", "ns", perEvent(timeMedian(reps, func() {
		_, _, err := otf2.AnalyzeFile(path, e.workers)
		keep(err)
	}), events))
	m.set("otf2.stat_file_ms", "ms", ms(timeMedian(25, func() {
		_, err := otf2.StatFile(path)
		keep(err)
	})))

	// Windowed bottleneck queries over the in-memory stream.
	info, err := readArchiveInfo(path)
	if err != nil {
		return err
	}
	var lat []time.Duration
	for _, w := range makeWindows(e.rng, [][]int{info.threads}, 20) {
		t0 := time.Now()
		bottleneck.AnalyzeQuery(tr, w.query(info), e.workers)
		lat = append(lat, time.Since(t0))
	}
	m.setMedian("bottleneck.query_ms_p50", "ms", millis(lat))

	if err := sinkProbe(e, tr, dir, m); err != nil {
		return err
	}
	return ioErr
}

// batchEvents is the batch size the stream is replayed in — the
// streaming recorder's default flush size.
const batchEvents = trace.DefaultChunkEvents

// replayInto writes tr to sink thread by thread in recorder-sized
// batches.
func replayInto(tr *trace.Trace, s trace.EventSink) error {
	for _, tid := range tr.ThreadIDs() {
		evs := tr.Threads[tid]
		for lo := 0; lo < len(evs); lo += batchEvents {
			if err := s.WriteEvents(tid, evs[lo:min(lo+batchEvents, len(evs))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// sinkProbe ships the stream once through a sink client, a unix socket
// and an in-process server, and once straight into a file, so the
// socket hop's cost is a ratio over the same bytes.
func sinkProbe(e *env, tr *trace.Trace, dir string, m *metricSet) error {
	events := tr.NumEvents()
	srvDir := filepath.Join(dir, "sink")
	if err := os.MkdirAll(srvDir, 0o755); err != nil {
		return err
	}
	srv, err := sink.NewServer(srvDir)
	if err != nil {
		return err
	}
	sock := filepath.Join(srvDir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	cl, err := sink.Dial("unix://"+sock, sink.WithStreamID("replay"))
	if err != nil {
		return err
	}
	quiesce()
	start := time.Now()
	werr := replayInto(tr, cl)
	written := time.Now()
	cerr := cl.Close()
	closed := time.Now()
	serr := srv.Close()
	<-served
	for _, err := range []error{werr, cerr, serr, srv.Err()} {
		if err != nil {
			return err
		}
	}

	f, err := os.Create(filepath.Join(dir, "file.otf2"))
	if err != nil {
		return err
	}
	quiesce()
	fileStart := time.Now()
	w := otf2.NewWriter(f)
	werr = replayInto(tr, w)
	cerr = w.Close()
	ferr := f.Close()
	file := time.Since(fileStart)
	for _, err := range []error{werr, cerr, ferr} {
		if err != nil {
			return err
		}
	}

	socket := closed.Sub(start)
	m.set("sink.client_write_ns_per_event", "ns", perEvent(socket, events))
	m.set("sink.socket_file_ratio", "ratio", float64(socket)/float64(file))
	m.set("sink.close_ms", "ms", ms(closed.Sub(written)))
	var frames, bytes, dropped, resumes, gap int64
	for _, st := range srv.Streams() {
		if !st.Complete {
			return fmt.Errorf("sink probe: stream %s incomplete: %s", st.ID, st.Err)
		}
		frames += st.Frames
		bytes += st.Bytes
		dropped += st.DroppedEvents
		resumes += st.Resumes
		gap += st.GapBytes
	}
	m.set("sink.frames", "count", float64(frames))
	m.set("sink.bytes", "B", float64(bytes))
	m.set("sink.dropped_events", "count", float64(dropped))
	m.set("sink.resumes", "count", float64(resumes))
	m.set("sink.gap_bytes", "B", float64(gap))
	return nil
}

// cubeProbes times the report layer over the round's profile.
func cubeProbes(locs []*core.ThreadProfile, m *metricSet) error {
	var rep *cube.Report
	m.set("cube.aggregate_ms", "ms", ms(timeMedian(5, func() { rep = cube.Aggregate(locs) })))
	var err error
	m.set("cube.render_ms", "ms", ms(timeMedian(5, func() {
		if rerr := cube.Render(io.Discard, rep, cube.RenderOptions{}); rerr != nil {
			err = rerr
		}
	})))
	m.set("cube.json_roundtrip_ms", "ms", ms(timeMedian(5, func() {
		var buf bytes.Buffer
		if werr := cube.WriteJSON(&buf, rep); werr != nil {
			err = werr
		} else if _, rerr := cube.ReadJSON(&buf, region.NewRegistry()); rerr != nil {
			err = rerr
		}
	})))
	m.set("cube.findings_ms", "ms", ms(timeMedian(5, func() { analyze.Analyze(rep, analyze.Thresholds{}) })))
	return err
}

// stageMetrics turns the rounds' stage times into the scorep.* metrics
// and checks, from the recorded spans, that the stages account for the
// pipeline wall: a round's root span may have at most 2 % of its
// (pause-free) duration not covered by a stage.
func stageMetrics(e *env, m *metricSet, rounds []*round) {
	byStage := map[string][]time.Duration{}
	for _, rd := range rounds {
		for name, d := range rd.stages {
			byStage[name] = append(byStage[name], d)
		}
	}
	for name, ds := range byStage {
		if name == "scorep.parallel" {
			m.setMedian("scorep.parallel_s", "s", seconds(ds))
		} else {
			m.setMedian(name+"_ms", "ms", millis(ds))
		}
	}

	m.set("share.bottleneck_of_report", "frac", m.get("scorep.bottlenecks_ms")/1000/m.get("time_to_report_s"))

	self := selfTimes(e.tr.snapshot())
	var fracs []float64
	for _, rd := range rounds {
		// The root's self time is what no stage (and no pause) covers.
		fracs = append(fracs, 1-float64(self[rd.root])/float64(rd.pipeline.Nanoseconds()))
	}
	m.setMedian("scorep.stage_sum_frac", "frac", fracs)
	lo, hi := slices.Min(fracs), slices.Max(fracs)
	e.ops.check(lo >= 0.98 && hi <= 1.02, "stage spans cover %.4f..%.4f of the pipeline wall, want 0.98..1.02", lo, hi)
}

// budgetMetrics prints the per-event cost model beside the measured
// cost: what one event should add (clock read, profile update, trace
// record) against what the instrumented run added per event.
func budgetMetrics(e *env, m *metricSet, lr lastRound) {
	if share := m.get("share.measurement_of_inst_run"); share < 0.1 {
		// Nothing to explain: the added cost is a small difference of
		// two large, noisy numbers spread over few events.
		fmt.Fprintf(os.Stderr, "  layer budget skipped: measurement is %.1f %% of the instrumented run\n", 100*share)
		return
	}
	events := m.get("trace.events")
	added := (m.get("inst_run_s") - m.get("baseline_run_s")) * 1e9 * float64(lr.threads) / events
	// An enter/exit visit is two events and a task cycle two; the
	// profile's per-event cost is taken as the mean of the two halves.
	coreNs := (m.get("core.enter_exit_ns") + m.get("core.task_cycle_ns")) / 4
	// The record probe includes the event's one clock read (the fused
	// Tee shares it with the profile). A streaming recorder also encodes
	// and ships what it records.
	record := m.get(lr.recordProbe)
	model := coreNs + record
	if lr.recordProbe == "trace.stream_record_ns" {
		model += m.get("sink.client_write_ns_per_event")
	}
	m.set("budget.measured_ns_per_event", "ns", added)
	m.set("budget.modelled_ns_per_event", "ns", model)
	cov := model / added
	m.set("budget.coverage", "ratio", cov)
	fmt.Fprintf(os.Stderr, "  layer budget (ns per event; measured = (inst_run_s - baseline_run_s) x threads / events)\n")
	rows := []struct {
		layer string
		ns    float64
	}{
		{"uninstrumented runtime (omp.nop_enter_exit_ns / 2)", m.get("omp.nop_enter_exit_ns") / 2},
		{"clock read (clock.now_ns)", m.get("clock.now_ns")},
		{"profile update (core, mean of visit and task cycle halves)", coreNs},
		{"trace record without its clock read (" + lr.recordProbe + " - clock.now_ns)", record - m.get("clock.now_ns")},
		{"archive encode (otf2.encode_ns_per_event)", m.get("otf2.encode_ns_per_event")},
		{"file write (otf2.write_file_ms / events)", m.get("otf2.write_file_ms") * 1e6 / events},
		{"encode + socket hop (sink.client_write_ns_per_event)", m.get("sink.client_write_ns_per_event")},
	}
	for _, r := range rows {
		fmt.Fprintf(os.Stderr, "    %-72s %8.1f\n", r.layer, r.ns)
	}
	fmt.Fprintf(os.Stderr, "    %-72s %8.1f\n    %-72s %8.1f\n    %-72s %8.2f\n",
		"modelled: clock + profile + trace record (+ socket when streaming)", model, "measured added cost", added, "budget.coverage = modelled / measured", cov)
	if cov < 0.5 || cov > 1.5 {
		fmt.Fprintf(os.Stderr, "    WARNING: budget coverage outside [0.5, 1.5]: the layer model does not explain this workload's overhead\n")
	}
}

// probes runs everything only a traced run measures.
func probes(e *env, lr lastRound, m *metricSet) error {
	ops := probeOps
	if e.smoke {
		ops /= 10
	}
	hotPathProbes(m, ops)
	tr, err := lr.captured()
	if err != nil {
		return err
	}
	if err := replayProbes(e, tr, m); err != nil {
		return err
	}
	if len(lr.locations) > 0 {
		if err := cubeProbes(lr.locations, m); err != nil {
			return err
		}
	}
	return nil
}
