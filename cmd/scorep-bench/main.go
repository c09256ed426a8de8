// Command scorep-bench is the perf-trajectory harness: it runs the
// paper's Fig. 13/14/15 overhead experiments and microbenchmarks of the
// per-event measurement hot path with warmup and repetitions, and emits
// a machine-readable JSON report (ns/op, allocs/op, bytes/event, deltas
// against a committed baseline).
//
// The committed baseline (bench_baseline.json) pins the perf trajectory:
// CI runs `scorep-bench -quick -check-allocs` on every change and fails
// when a hot-path benchmark allocates more per op than the baseline —
// ns/op is reported but not gated, since wall-clock numbers are not
// comparable across machines, while allocation counts are.
//
// Usage:
//
//	scorep-bench -quick -baseline bench_baseline.json -out BENCH_PR4.json -check-allocs
//	scorep-bench -bench 'fig13/fib' -reps 5
//
// Benchmark names are hierarchical: micro/* exercises the profiling
// engine directly, event/* the full runtime->listener per-event path in
// each listener configuration (uninst, profile, trace, profile+trace,
// profile+filter), stream/* the trace pipeline — the per-event record
// path (stream/record), concurrent archive write throughput
// (stream/write, 1 vs 4 writer threads at GOMAXPROCS 1 and 4, plus the
// v1 and flate-compressed encodings of the single-thread write),
// archive decoding (stream/decode), out-of-core analysis sequential vs
// parallel (stream/analyze, with stream/analyze/bottlenecks measuring
// the automatic bottleneck analysis), index-driven random chunk access
// (stream/seek) and time-window queries (stream/analyze/windowed, with
// a chunk-read-frac metric showing how much of the archive the index
// pruned), all reporting events/sec and bytes/event — clock/* the
// timestamp source, and fig13/14/15 the paper's figure experiments on
// the BOTS codes.
//
// -check-write-gate fails the run when the v2 single-thread write
// throughput drops below 95% of the v1 throughput measured in the same
// run — a machine-independent guard that the footer index and
// time-bound tracking stay (nearly) free on the write path.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bots"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/otf2"
	"repro/internal/pomp"
	"repro/internal/region"
	"repro/internal/sink"
	"repro/internal/trace"
)

// Result is one benchmark measurement: the minimum ns/op over all
// repetitions (the least-noisy estimate of the true cost) and the
// minimum allocs/op (steady-state allocation behaviour; amortized warmup
// allocations can make single repetitions read high).
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	N           int                `json:"n"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Delta compares one benchmark against the baseline file.
type Delta struct {
	Name        string  `json:"name"`
	BaseNsPerOp float64 `json:"base_ns_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsDeltaPct  float64 `json:"ns_delta_pct"`
	BaseAllocs  int64   `json:"base_allocs_per_op"`
	Allocs      int64   `json:"allocs_per_op"`
	Hot         bool    `json:"hot"`
}

// File is the schema of the emitted JSON (and of the committed
// baseline).
type File struct {
	Schema       string   `json:"schema"`
	Quick        bool     `json:"quick"`
	GoVersion    string   `json:"go_version"`
	GOOS         string   `json:"goos"`
	GOARCH       string   `json:"goarch"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"num_cpu"`
	BenchTime    string   `json:"bench_time"`
	Reps         int      `json:"reps"`
	Timestamp    string   `json:"timestamp"`
	Results      []Result `json:"results"`
	BaselineFile string   `json:"baseline_file,omitempty"`
	Deltas       []Delta  `json:"deltas,omitempty"`
}

// spec is one benchmark to run. Hot marks per-event hot-path benches
// whose allocs/op are gated against the baseline by -check-allocs.
type spec struct {
	name  string
	hot   bool
	quick bool // included in -quick mode
	fn    func(b *testing.B)
}

// Shared regions for the micro/event benches, interned once in the
// default registry like OPARI2's generated registration.
var (
	benchPar  = region.MustRegister("bench.parallel", "bench.go", 1, region.Parallel)
	benchWork = region.MustRegister("bench.work", "bench.go", 2, region.UserFunction)
	benchTask = region.MustRegister("bench.task", "bench.go", 3, region.Task)
	benchTw   = region.MustRegister("bench.taskwait", "bench.go", 4, region.Taskwait)
)

func nopTask(*omp.Thread) {}

func nopFn() {}

// discardSink is a zero-cost streaming-trace sink.
type discardSink struct{}

func (discardSink) WriteEvents(int, []trace.Event) error { return nil }

// countingWriter counts bytes written (for bytes/event metrics).
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// newListener builds one listener configuration. The finish func
// finalizes whatever the configuration wired.
func newListener(cfg string) (omp.Listener, func()) {
	switch cfg {
	case "uninst":
		return nil, func() {}
	case "profile":
		m := measure.New()
		return m, func() { m.Finish() }
	case "profile+filter":
		// A filter that excludes nothing but must be consulted per event:
		// the worst case of the filter lookup cost.
		m := measure.New()
		f := measure.NewFilter(m, "zz_never_*", "zz_nomatch")
		return f, func() { m.Finish() }
	case "trace":
		rec := trace.NewStreamingRecorder(clock.NewSystem(), discardSink{}, 0)
		return rec, func() { rec.Finish() }
	case "profile+trace":
		// The canonical WithTracing pair under a Tee — one shared clock,
		// as the Session wires it — streaming so the benchmark loop is
		// bounded-memory.
		clk := clock.NewSystem()
		m := measure.NewWithClock(clk, region.Default)
		rec := trace.NewStreamingRecorder(clk, discardSink{}, 0)
		return trace.NewTee(m, rec), func() { m.Finish(); rec.Finish() }
	case "profile+trace-mem":
		// In-memory recorder (the WithTracing session default); only used
		// by the figure benches, which bound the trace per iteration.
		clk := clock.NewSystem()
		m := measure.NewWithClock(clk, region.Default)
		rec := trace.NewRecorder(clk)
		return trace.NewTee(m, rec), func() { m.Finish(); rec.Finish() }
	}
	panic("scorep-bench: unknown listener config " + cfg)
}

// benchEnterExit measures one instrumented user-region visit through the
// full runtime->listener path.
func benchEnterExit(cfg string) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		l, fin := newListener(cfg)
		rt := omp.NewRuntime(l)
		rt.Parallel(1, benchPar, func(t *omp.Thread) {
			for i := 0; i < 512; i++ { // steady the path before timing
				pomp.Function(t, benchWork, nopFn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pomp.Function(t, benchWork, nopFn)
			}
			b.StopTimer()
		})
		fin()
	}
}

// benchTaskInline measures the full event cost of one undeferred task:
// create-begin/end, begin/end, switch — five events per op.
func benchTaskInline(cfg string) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		l, fin := newListener(cfg)
		rt := omp.NewRuntime(l)
		rt.Parallel(1, benchPar, func(t *omp.Thread) {
			for i := 0; i < 512; i++ {
				t.NewTask(benchTask, nopTask, omp.If(false))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.NewTask(benchTask, nopTask, omp.If(false))
			}
			b.StopTimer()
		})
		fin()
	}
}

// benchTaskSpawn measures deferred task spawn+execute throughput with a
// taskwait every 64 tasks (single thread, so every task runs locally).
func benchTaskSpawn(cfg string) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		l, fin := newListener(cfg)
		rt := omp.NewRuntime(l)
		rt.Parallel(1, benchPar, func(t *omp.Thread) {
			for i := 0; i < 512; i++ {
				t.NewTask(benchTask, nopTask)
				if i%64 == 63 {
					t.Taskwait(benchTw)
				}
			}
			t.Taskwait(benchTw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.NewTask(benchTask, nopTask)
				if i%64 == 63 {
					t.Taskwait(benchTw)
				}
			}
			t.Taskwait(benchTw)
			b.StopTimer()
		})
		fin()
	}
}

// benchMicroEnterExit measures the profiling engine alone (no runtime).
func benchMicroEnterExit(b *testing.B) {
	b.ReportAllocs()
	p := core.NewThreadProfile(0, clock.NewSystem())
	for i := 0; i < 512; i++ {
		p.Enter(benchWork)
		p.Exit(benchWork)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Enter(benchWork)
		p.Exit(benchWork)
	}
}

// benchMicroTask measures the task-instance lifecycle in the profiling
// engine alone: allocation, switch, stub accounting, merge.
func benchMicroTask(b *testing.B) {
	b.ReportAllocs()
	p := core.NewThreadProfile(0, clock.NewSystem())
	p.Enter(benchTw)
	for i := 0; i < 512; i++ {
		p.TaskBegin(benchTask)
		p.TaskEnd()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TaskBegin(benchTask)
		p.TaskEnd()
	}
}

// benchStreamRecord measures the streaming record path end to end
// through the binary archive encoder, reporting bytes/event.
func benchStreamRecord(b *testing.B) {
	b.ReportAllocs()
	cw := &countingWriter{}
	w := otf2.NewWriter(cw)
	rec := trace.NewStreamingRecorder(clock.NewSystem(), w, 0)
	rt := omp.NewRuntime(rec)
	var events int64
	rt.Parallel(1, benchPar, func(t *omp.Thread) {
		for i := 0; i < 512; i++ {
			pomp.Function(t, benchWork, nopFn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pomp.Function(t, benchWork, nopFn)
		}
		b.StopTimer()
		events = 2 * int64(b.N)
	})
	rec.Finish()
	if err := w.Flush(); err != nil {
		b.Fatalf("archive flush: %v", err)
	}
	if events > 0 {
		b.ReportMetric(float64(cw.n)/float64(events), "bytes/event")
	}
}

// benchFlightRecord measures steady-state flight-recorder recording:
// the ring is filled during warmup, so every measured event pays its
// share of the seal-and-evict path (stage and publish, then one encode
// per block into the evicted chunk's buffer) — the price of always-on
// crash-safe measurement.
func benchFlightRecord(b *testing.B) {
	b.ReportAllocs()
	rec := otf2.NewFlight(clock.NewSystem(), 8, 256)
	rt := omp.NewRuntime(rec.Recorder())
	rt.Parallel(1, benchPar, func(t *omp.Thread) {
		for i := 0; i < 4096; i++ { // > ring capacity: reach steady-state eviction
			pomp.Function(t, benchWork, nopFn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pomp.Function(t, benchWork, nopFn)
		}
		b.StopTimer()
	})
	if st := rec.Stats(); st.DroppedEvents == 0 {
		b.Fatal("flight bench never reached steady-state eviction")
	}
	rec.Release()
}

// benchClock measures the timestamp read cost.
func benchClock(zeroValue bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var clk clock.Clock
		if zeroValue {
			clk = &clock.System{}
		} else {
			clk = clock.NewSystem()
		}
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += clk.Now()
		}
		if sink < 0 {
			b.Fatal("clock went backwards")
		}
	}
}

// archiveInput is a prebuilt synthetic recording and its encoded
// archive, shared by the stream/write, stream/decode and stream/analyze
// benches (built once per size, outside all timed regions).
type archiveInput struct {
	tr     *trace.Trace
	data   []byte
	events int
}

type archiveInputKey struct {
	threads, tasks int
	variant        string
}

var (
	archiveInputs   = map[archiveInputKey]*archiveInput{}
	archiveInputsMu sync.Mutex
)

// archiveFor builds (once) a trace of threads x tasksPerThread task
// lifecycles — the event mix of a BOTS run — and its binary archive in
// the default (v2, uncompressed) encoding.
func archiveFor(threads, tasksPerThread int) *archiveInput {
	return archiveVariant(threads, tasksPerThread, "v2")
}

// archiveVariant is archiveFor with an explicit encoding: "v2"
// (default), "v1" (pre-index format) or "flate" (v2 with compressed
// event chunks). The decoded trace is identical across variants; only
// the bytes differ.
func archiveVariant(threads, tasksPerThread int, variant string) *archiveInput {
	archiveInputsMu.Lock()
	defer archiveInputsMu.Unlock()
	key := archiveInputKey{threads, tasksPerThread, variant}
	if in, ok := archiveInputs[key]; ok {
		return in
	}
	tr := buildStreamTrace(threads, tasksPerThread)
	var opts []otf2.WriterOption
	switch variant {
	case "v2":
	case "v1":
		opts = append(opts, otf2.WithVersion(1))
	case "flate":
		opts = append(opts, otf2.WithCompression(otf2.CompressionFlate))
	default:
		panic("scorep-bench: unknown archive variant " + variant)
	}
	var buf bytes.Buffer
	if err := otf2.Write(&buf, tr, opts...); err != nil {
		panic("scorep-bench: building archive input: " + err.Error())
	}
	in := &archiveInput{tr: tr, data: buf.Bytes(), events: tr.NumEvents()}
	archiveInputs[key] = in
	return in
}

// buildStreamTrace synthesizes the threads x tasksPerThread task-
// lifecycle trace the stream benches share.
func buildStreamTrace(threads, tasksPerThread int) *trace.Trace {
	par := region.MustRegister("bench.stream.par", "bench.go", 10, region.Parallel)
	task := region.MustRegister("bench.stream.task", "bench.go", 11, region.Task)
	create := region.MustRegister("bench.stream.create", "bench.go", 11, region.TaskCreate)
	tw := region.MustRegister("bench.stream.tw", "bench.go", 12, region.Taskwait)
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	var id uint64
	for t := 0; t < threads; t++ {
		now := int64(1000 * t)
		tick := func() int64 { now += 740; return now }
		evs := make([]trace.Event, 0, tasksPerThread*4+7)
		evs = append(evs,
			trace.Event{Time: tick(), Type: trace.EvThreadBegin},
			trace.Event{Time: tick(), Type: trace.EvEnter, Region: par},
			trace.Event{Time: tick(), Type: trace.EvEnter, Region: tw})
		for i := 0; i < tasksPerThread; i++ {
			id++
			evs = append(evs,
				trace.Event{Time: tick(), Type: trace.EvTaskCreateBegin, Region: create},
				trace.Event{Time: tick(), Type: trace.EvTaskCreateEnd, Region: task, TaskID: id},
				trace.Event{Time: tick(), Type: trace.EvTaskBegin, Region: task, TaskID: id},
				trace.Event{Time: tick(), Type: trace.EvTaskEnd, Region: task, TaskID: id})
		}
		evs = append(evs,
			trace.Event{Time: tick(), Type: trace.EvExit, Region: tw},
			trace.Event{Time: tick(), Type: trace.EvExit, Region: par},
			trace.Event{Time: tick(), Type: trace.EvThreadEnd})
		tr.Threads[t] = evs
	}
	return tr
}

// benchArchiveWrite measures concurrent archive write throughput: one
// op is one event encoded and streamed into a shared Writer by one of
// `threads` concurrently flushing goroutines at the given GOMAXPROCS.
// The scaling of threads=4 over threads=1 quantifies how far the
// encoding has moved out of the writer lock. opts select the archive
// format (v1, compressed, ...); the default is the v2 indexed format.
func benchArchiveWrite(threads, gomaxprocs, tasksPerThread int, opts ...otf2.WriterOption) func(*testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		b.ReportAllocs()
		in := archiveFor(threads, tasksPerThread)
		cw := &countingWriter{}
		w := otf2.NewWriter(cw, opts...)
		per := (b.N + threads - 1) / threads
		var wg sync.WaitGroup
		b.ResetTimer()
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				evs := in.tr.Threads[t]
				const batch = 512
				for done := 0; done < per; {
					lo := done % len(evs)
					hi := lo + batch
					if hi > len(evs) {
						hi = len(evs)
					}
					if hi-lo > per-done {
						hi = lo + per - done
					}
					if err := w.WriteEvents(t, evs[lo:hi]); err != nil {
						b.Error(err)
						return
					}
					done += hi - lo
				}
			}(t)
		}
		wg.Wait()
		b.StopTimer()
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		written := int64(per) * int64(threads)
		b.ReportMetric(float64(cw.n)/float64(written), "bytes/event")
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(written)/s, "events/sec")
		}
	}
}

// benchArchiveDecode measures whole-archive decoding (ReadAll); one op
// is one full pass, with ns/event and events/sec reported.
func benchArchiveDecode(workers, gomaxprocs, tasksPerThread int) func(*testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		b.ReportAllocs()
		in := archiveFor(4, tasksPerThread)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := otf2.ReadAllParallel(bytes.NewReader(in.data), region.NewRegistry(), workers); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportPerEvent(b, in.events)
	}
}

// benchArchiveAnalyze measures out-of-core analysis of the archive; one
// op is one full pass. workers == 1 is the sequential baseline the
// parallel variants are compared against.
func benchArchiveAnalyze(workers, gomaxprocs, tasksPerThread int) func(*testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		b.ReportAllocs()
		in := archiveFor(4, tasksPerThread)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := otf2.AnalyzeParallel(bytes.NewReader(in.data), workers); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportPerEvent(b, in.events)
	}
}

// benchNetWrite measures end-to-end event shipping throughput: one op
// is one event encoded through the archive writer into either a local
// file sink or a scorep-daemon socket sink (unix domain, in-process
// server), across `streams` concurrent producers — each stream its own
// archive, as in the fleet measurement mode. Client Close (drain + seal
// ack) is inside the timed region, so the socket numbers include the
// full cost of getting the bytes acknowledged on the other side.
func benchNetWrite(streams int, socket bool, tasksPerThread int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		in := archiveFor(streams, tasksPerThread)
		dir, err := os.MkdirTemp("", "scorep-bench-net")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)

		var srv *sink.Server
		var addr string
		if socket {
			if srv, err = sink.NewServer(dir); err != nil {
				b.Fatal(err)
			}
			sock := filepath.Join(dir, "d.sock")
			ln, err := net.Listen("unix", sock)
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			addr = "unix://" + sock
		}

		per := (b.N + streams - 1) / streams
		var wg sync.WaitGroup
		b.ResetTimer()
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				evs := in.tr.Threads[s]
				var write func([]trace.Event) error
				var finish func() error
				if socket {
					cl, err := sink.Dial(addr, sink.WithStreamID(fmt.Sprintf("s%d", s)))
					if err != nil {
						b.Error(err)
						return
					}
					write = func(e []trace.Event) error { return cl.WriteEvents(0, e) }
					finish = cl.Close
				} else {
					f, err := os.Create(filepath.Join(dir, fmt.Sprintf("local-%d.otf2", s)))
					if err != nil {
						b.Error(err)
						return
					}
					w := otf2.NewWriter(f)
					write = func(e []trace.Event) error { return w.WriteEvents(0, e) }
					finish = func() error {
						if err := w.Close(); err != nil {
							return err
						}
						return f.Close()
					}
				}
				const batch = 512
				for done := 0; done < per; {
					lo := done % len(evs)
					hi := lo + batch
					if hi > len(evs) {
						hi = len(evs)
					}
					if hi-lo > per-done {
						hi = lo + per - done
					}
					if err := write(evs[lo:hi]); err != nil {
						b.Error(err)
						return
					}
					done += hi - lo
				}
				if err := finish(); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
		b.StopTimer()
		if socket {
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
		}
		written := int64(per) * int64(streams)
		var archiveBytes int64
		if entries, err := os.ReadDir(dir); err == nil {
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".otf2") {
					if fi, err := e.Info(); err == nil {
						archiveBytes += fi.Size()
					}
				}
			}
		}
		if written > 0 {
			b.ReportMetric(float64(archiveBytes)/float64(written), "bytes/event")
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(written)/s, "events/sec")
			}
		}
	}
}

// benchNetReconnect measures event shipping throughput through one
// mid-stream connection loss per stream: fault injection severs each
// stream's first connection around the midpoint of the expected bytes,
// forcing a reconnect + byte-exact resume inside the timed region. The
// delta against net/write/socket is the reconnect path itself — redial,
// resume handshake, and replay of the unacknowledged suffix. Reported
// resumes confirm the sever actually fired (calibration runs too small
// to reach the sever point ship clean and report 0).
func benchNetReconnect(streams, tasksPerThread int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		in := archiveFor(streams, tasksPerThread)
		dir, err := os.MkdirTemp("", "scorep-bench-net")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)

		srv, err := sink.NewServer(dir)
		if err != nil {
			b.Fatal(err)
		}
		sock := filepath.Join(dir, "d.sock")
		ln, err := net.Listen("unix", sock)
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)

		per := (b.N + streams - 1) / streams
		// ~6 bytes/event on the wire: sever near the midpoint, but never
		// inside the handshake of a tiny calibration run.
		sever := int64(per) * 3
		if sever < 4096 {
			sever = 4096
		}
		var resumes atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				evs := in.tr.Threads[s]
				var dials atomic.Int64
				cl, err := sink.NewClient(func() (net.Conn, error) {
					c, err := net.Dial("unix", sock)
					if err != nil {
						return nil, err
					}
					if dials.Add(1) == 1 {
						// Distinct per-stream sever points keep the
						// reconnect storms from synchronizing.
						return faultinject.NewConn(c, faultinject.SeverWriteAfter(sever+701*int64(s))), nil
					}
					return c, nil
				}, sink.WithStreamID(fmt.Sprintf("r%d", s)),
					sink.WithReconnect(8, time.Millisecond, 10*time.Second))
				if err != nil {
					b.Error(err)
					return
				}
				const batch = 512
				for done := 0; done < per; {
					lo := done % len(evs)
					hi := lo + batch
					if hi > len(evs) {
						hi = len(evs)
					}
					if hi-lo > per-done {
						hi = lo + per - done
					}
					if err := cl.WriteEvents(0, evs[lo:hi]); err != nil {
						b.Error(err)
						return
					}
					done += hi - lo
				}
				if err := cl.Close(); err != nil {
					b.Error(err)
					return
				}
				resumes.Add(cl.Resumes())
			}(s)
		}
		wg.Wait()
		b.StopTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		written := int64(per) * int64(streams)
		if written > 0 {
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(written)/s, "events/sec")
			}
			b.ReportMetric(float64(resumes.Load()), "resumes")
		}
	}
}

// traceTimeBounds returns the earliest and latest event timestamps.
func traceTimeBounds(tr *trace.Trace) (lo, hi int64) {
	first := true
	for _, evs := range tr.Threads {
		for _, ev := range evs {
			if first || ev.Time < lo {
				lo = ev.Time
			}
			if first || ev.Time > hi {
				hi = ev.Time
			}
			first = false
		}
	}
	return lo, hi
}

// benchArchiveBottlenecks measures the out-of-core bottleneck analysis
// (wait-state classification, critical path, what-if savings) over the
// archive; one op is one full pass. workers == 1 is the sequential
// baseline the parallel variant is compared against — the results are
// identical, only the wall clock differs.
func benchArchiveBottlenecks(workers, gomaxprocs, tasksPerThread int) func(*testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		b.ReportAllocs()
		in := archiveFor(4, tasksPerThread)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := otf2.AnalyzeBottlenecks(bytes.NewReader(in.data), otf2.Query{}, workers); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportPerEvent(b, in.events)
	}
}

// benchArchiveSeek measures random access into a v2 archive via the
// footer index: one op is one Seek to an event chunk plus a full decode
// of that chunk — the unit cost a time-window query pays per matching
// chunk. Chunks are visited round-robin so every op re-seeks.
func benchArchiveSeek(tasksPerThread int) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		in := archiveFor(4, tasksPerThread)
		ix, err := otf2.ReadIndex(bytes.NewReader(in.data))
		if err != nil {
			b.Fatal(err)
		}
		type tchunk struct {
			tid int
			ref otf2.ChunkRef
		}
		var chunks []tchunk
		for _, th := range ix.Threads {
			for _, c := range th.Chunks {
				chunks = append(chunks, tchunk{th.Thread, c})
			}
		}
		if len(chunks) == 0 {
			b.Fatal("archive has no indexed event chunks")
		}
		rd, err := otf2.NewReader(bytes.NewReader(in.data), region.NewRegistry())
		if err != nil {
			b.Fatal(err)
		}
		if err := rd.PrimeDefinitions(ix.DefOffsets); err != nil {
			b.Fatal(err)
		}
		var decoded int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := chunks[i%len(chunks)]
			if err := rd.Seek(c.tid, c.ref); err != nil {
				b.Fatal(err)
			}
			for e := uint64(0); e < c.ref.Events; e++ {
				if _, _, err := rd.Next(); err != nil {
					b.Fatal(err)
				}
			}
			decoded += int64(c.ref.Events)
		}
		b.StopTimer()
		if decoded > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(decoded), "ns/event")
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(decoded)/s, "events/sec")
			}
		}
	}
}

// benchArchiveAnalyzeWindowed measures a time-window query over an
// indexed archive: one op is one AnalyzeQuery of the middle decile of
// the trace's time span — the index prunes the non-matching chunks, so
// this should cost a fraction of a full stream/analyze pass. The
// chunk-read-frac metric records how large that fraction was.
func benchArchiveAnalyzeWindowed(workers, gomaxprocs, tasksPerThread int, variant string) func(*testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(gomaxprocs)
		defer runtime.GOMAXPROCS(prev)
		b.ReportAllocs()
		in := archiveVariant(4, tasksPerThread, variant)
		lo, hi := traceTimeBounds(in.tr)
		span := hi - lo
		q := otf2.Query{Windowed: true, MinTime: lo + span*45/100, MaxTime: lo + span*55/100}
		var st otf2.QueryStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, s, err := otf2.AnalyzeQuery(bytes.NewReader(in.data), q, workers)
			if err != nil {
				b.Fatal(err)
			}
			st = s
		}
		b.StopTimer()
		if st.ChunksTotal > 0 {
			b.ReportMetric(float64(st.ChunksRead)/float64(st.ChunksTotal), "chunk-read-frac")
		}
	}
}

// reportPerEvent derives per-event metrics for whole-archive ops.
func reportPerEvent(b *testing.B, events int) {
	if b.N == 0 || events == 0 {
		return
	}
	total := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(total/s, "events/sec")
	}
}

var kernelSink uint64

// benchFigure runs one BOTS kernel per op in the given listener
// configuration — the shape of the paper's Fig. 13/14/15 experiments.
func benchFigure(kernel bots.Kernel, threads int, cfg string) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			l, fin := newListener(cfg)
			rt := omp.NewRuntime(l)
			sink += kernel(rt, threads)
			fin()
		}
		kernelSink += sink
	}
}

// buildSpecs assembles the benchmark list.
func buildSpecs(quick bool) []spec {
	var specs []spec
	add := func(name string, hot, q bool, fn func(*testing.B)) {
		specs = append(specs, spec{name: name, hot: hot, quick: q, fn: fn})
	}

	// Microbenchmarks of the profiling engine.
	add("micro/enter-exit/core", true, true, benchMicroEnterExit)
	add("micro/task/core", true, true, benchMicroTask)

	// Per-event path through the runtime, per listener configuration.
	for _, cfg := range []string{"uninst", "profile", "profile+filter", "trace", "profile+trace"} {
		add("event/enter-exit/"+cfg, cfg != "uninst", true, benchEnterExit(cfg))
	}
	for _, cfg := range []string{"uninst", "profile", "profile+trace"} {
		add("event/task-inline/"+cfg, cfg != "uninst", true, benchTaskInline(cfg))
	}
	for _, cfg := range []string{"uninst", "profile+trace"} {
		add("event/task-spawn/"+cfg, cfg != "uninst", true, benchTaskSpawn(cfg))
	}

	// Streaming record incl. binary encoding, flight-recorder
	// steady-state recording, and the clock.
	add("stream/record", true, true, benchStreamRecord)
	add("flight/record", true, true, benchFlightRecord)
	add("clock/now", false, true, benchClock(false))
	add("clock/now-zero-value", false, true, benchClock(true))

	// Archive pipeline throughput: concurrent writes into one Writer,
	// whole-archive decode, and out-of-core analysis sequential vs
	// parallel, at GOMAXPROCS 1 and 4. The tasks= label pins the input
	// size (quick inputs must not be compared against full baselines);
	// full mode uses a >= 1M-event archive (4 threads x 65536 tasks x 4
	// lifecycle events + envelope).
	streamTasks := 65536
	if quick {
		streamTasks = 4096
	}
	st := fmt.Sprintf("tasks=%d", streamTasks)
	add("stream/write/threads=1/cpu=1/"+st, false, true, benchArchiveWrite(1, 1, streamTasks))
	add("stream/write/threads=4/cpu=1/"+st, false, true, benchArchiveWrite(4, 1, streamTasks))
	add("stream/write/threads=4/cpu=4/"+st, false, true, benchArchiveWrite(4, 4, streamTasks))
	// Format variants of the single-thread write: v1 is the pre-index
	// encoding (the -check-write-gate reference — measured in the same
	// run, so the comparison is machine-independent), compressed is v2
	// with flate event chunks (bytes/event shows the size win, ns/op the
	// CPU price).
	add("stream/write/v1/threads=1/cpu=1/"+st, false, true, benchArchiveWrite(1, 1, streamTasks, otf2.WithVersion(1)))
	add("stream/write/compressed/threads=1/cpu=1/"+st, false, true, benchArchiveWrite(1, 1, streamTasks, otf2.WithCompression(otf2.CompressionFlate)))
	add("stream/decode/seq/cpu=1/"+st, false, true, benchArchiveDecode(1, 1, streamTasks))
	add("stream/decode/par/workers=4/cpu=4/"+st, false, true, benchArchiveDecode(4, 4, streamTasks))
	add("stream/analyze/seq/cpu=1/"+st, false, true, benchArchiveAnalyze(1, 1, streamTasks))
	add("stream/analyze/par/workers=4/cpu=1/"+st, false, true, benchArchiveAnalyze(4, 1, streamTasks))
	add("stream/analyze/par/workers=4/cpu=4/"+st, false, true, benchArchiveAnalyze(4, 4, streamTasks))
	// Out-of-core bottleneck analysis over the same archive (full mode:
	// >= 1M events): per-event cost of the wait-state classification and
	// critical-path construction on top of the plain decode+analyze pass.
	add("stream/analyze/bottlenecks/seq/cpu=1/"+st, false, true, benchArchiveBottlenecks(1, 1, streamTasks))
	add("stream/analyze/bottlenecks/par/workers=4/cpu=4/"+st, false, true, benchArchiveBottlenecks(4, 4, streamTasks))
	// Seekable-archive benches: random chunk access via the footer index
	// and the windowed query path it exists for.
	add("stream/seek/indexed/"+st, false, true, benchArchiveSeek(streamTasks))
	add("stream/analyze/windowed/workers=1/cpu=1/"+st, false, true, benchArchiveAnalyzeWindowed(1, 1, streamTasks, "v2"))
	add("stream/analyze/windowed/workers=4/cpu=4/"+st, false, true, benchArchiveAnalyzeWindowed(4, 4, streamTasks, "v2"))
	add("stream/analyze/windowed/flate/workers=4/cpu=4/"+st, false, true, benchArchiveAnalyzeWindowed(4, 4, streamTasks, "flate"))

	// Network sink throughput: the same encoded event stream, shipped
	// either straight to a local file or framed over a unix socket into
	// the daemon's sharded ingest (one archive per stream). The file
	// variant is the same-run local baseline for the socket overhead;
	// streams=4 shows the sharded ingest scaling without a cross-stream
	// lock.
	netTasks := 16384
	if quick {
		netTasks = 2048
	}
	nt := fmt.Sprintf("tasks=%d", netTasks)
	add("net/write/file/streams=1/"+nt, false, true, benchNetWrite(1, false, netTasks))
	add("net/write/socket/streams=1/"+nt, false, true, benchNetWrite(1, true, netTasks))
	add("net/write/file/streams=4/"+nt, false, true, benchNetWrite(4, false, netTasks))
	add("net/write/socket/streams=4/"+nt, false, true, benchNetWrite(4, true, netTasks))
	add("net/reconnect/streams=1/"+nt, false, true, benchNetReconnect(1, netTasks))
	add("net/reconnect/streams=4/"+nt, false, true, benchNetReconnect(4, netTasks))

	// Figure experiments on the BOTS codes.
	size := bots.SizeSmall
	threads := []int{1, 4}
	fig13Codes := bots.All
	fig1415Codes := bots.CutoffCodes()
	fig15Threads := []int{1, 2, 4, 8}
	if quick {
		size = bots.SizeTiny
		threads = []int{1, 2}
		fig13Codes = []*bots.Spec{bots.FibSpec, bots.NQueensSpec}
		fig1415Codes = []*bots.Spec{bots.FibSpec}
		fig15Threads = []int{1, 2}
	}
	// Figure bench names embed the input size: quick mode (tiny) must
	// not be compared against a full-mode (small) baseline entry.
	for _, sp := range fig13Codes {
		kernel := sp.Prepare(size, sp.HasCutoff)
		for _, th := range threads {
			for _, cfg := range []string{"uninst", "profile", "profile+trace-mem"} {
				label := map[string]string{"uninst": "uninst", "profile": "inst", "profile+trace-mem": "inst+trace"}[cfg]
				add(fmt.Sprintf("fig13/%s/size=%s/threads=%d/%s", sp.Name, size, th, label), false, true,
					benchFigure(kernel, th, cfg))
			}
		}
	}
	for _, sp := range fig1415Codes {
		kernel := sp.Prepare(size, false)
		for _, th := range threads {
			for _, cfg := range []string{"uninst", "profile"} {
				label := map[string]string{"uninst": "uninst", "profile": "inst"}[cfg]
				add(fmt.Sprintf("fig14/%s/size=%s/threads=%d/%s", sp.Name, size, th, label), false, true,
					benchFigure(kernel, th, cfg))
			}
		}
		for _, th := range fig15Threads {
			add(fmt.Sprintf("fig15/%s/size=%s/threads=%d", sp.Name, size, th), false, true,
				benchFigure(kernel, th, "uninst"))
		}
	}
	return specs
}

// runSpec executes one spec reps times and keeps the minimum ns/op and
// minimum allocs/op (see Result). A repetition that fails (b.Fatal,
// which makes testing.Benchmark return N == 0) is skipped; if no
// repetition succeeds, runSpec errors — a zero-value Result would
// otherwise read as a perfect 0 allocs/op score and mask exactly the
// regressions the -check-allocs gate exists to catch.
func runSpec(s spec, reps int) (Result, error) {
	res := Result{Name: s.name}
	valid := false
	for r := 0; r < reps; r++ {
		br := testing.Benchmark(s.fn)
		if br.N == 0 {
			continue
		}
		ns := float64(br.T.Nanoseconds()) / float64(br.N)
		if !valid || ns < res.NsPerOp {
			res.NsPerOp = ns
			res.BytesPerOp = br.AllocedBytesPerOp()
			res.N = br.N
			if len(br.Extra) > 0 {
				res.Metrics = make(map[string]float64, len(br.Extra))
				for k, v := range br.Extra {
					res.Metrics[k] = v
				}
			}
		}
		if !valid || br.AllocsPerOp() < res.AllocsPerOp {
			res.AllocsPerOp = br.AllocsPerOp()
		}
		valid = true
	}
	if !valid {
		return res, fmt.Errorf("benchmark %s produced no valid repetition", s.name)
	}
	return res, nil
}

func main() {
	testing.Init()
	quick := flag.Bool("quick", false, "small inputs, fewer codes/reps (the CI mode)")
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to compute deltas against")
	benchRe := flag.String("bench", "", "only run benchmarks matching this regexp")
	reps := flag.Int("reps", 0, "repetitions per benchmark (default 3, quick 2)")
	benchtime := flag.String("benchtime", "", "per-run duration (default 300ms, quick 60ms)")
	checkAllocs := flag.Bool("check-allocs", false, "exit 1 when a hot-path bench allocates more per op than the baseline")
	checkWriteGate := flag.Bool("check-write-gate", false, "exit 1 when single-thread v2 write throughput falls below 95% of the same-run v1 throughput")
	flag.Parse()

	if *reps == 0 {
		*reps = 3
		if *quick {
			*reps = 2
		}
	}
	if *benchtime == "" {
		*benchtime = "300ms"
		if *quick {
			*benchtime = "60ms"
		}
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "scorep-bench: bad -benchtime: %v\n", err)
		os.Exit(2)
	}

	var filter *regexp.Regexp
	if *benchRe != "" {
		var err error
		if filter, err = regexp.Compile(*benchRe); err != nil {
			fmt.Fprintf(os.Stderr, "scorep-bench: bad -bench: %v\n", err)
			os.Exit(2)
		}
	}

	specs := buildSpecs(*quick)
	file := File{
		Schema:     "scorep-bench/1",
		Quick:      *quick,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		BenchTime:  *benchtime,
		Reps:       *reps,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	hot := make(map[string]bool)
	for _, s := range specs {
		if *quick && !s.quick {
			continue
		}
		if filter != nil && !filter.MatchString(s.name) {
			continue
		}
		r, err := runSpec(s, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scorep-bench: %v\n", err)
			os.Exit(2)
		}
		hot[s.name] = s.hot
		file.Results = append(file.Results, r)
		fmt.Fprintf(os.Stderr, "%-44s %12.1f ns/op %6d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}

	var regressions []string
	if *baseline != "" {
		base, err := readBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scorep-bench: baseline: %v\n", err)
			os.Exit(2)
		}
		file.BaselineFile = *baseline
		byName := make(map[string]Result, len(base.Results))
		for _, r := range base.Results {
			byName[r.Name] = r
		}
		for _, r := range file.Results {
			b, ok := byName[r.Name]
			if !ok {
				continue
			}
			d := Delta{
				Name:        r.Name,
				BaseNsPerOp: b.NsPerOp,
				NsPerOp:     r.NsPerOp,
				BaseAllocs:  b.AllocsPerOp,
				Allocs:      r.AllocsPerOp,
				Hot:         hot[r.Name],
			}
			if b.NsPerOp > 0 {
				d.NsDeltaPct = (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			}
			file.Deltas = append(file.Deltas, d)
			if d.Hot && d.Allocs > d.BaseAllocs {
				regressions = append(regressions,
					fmt.Sprintf("%s: %d allocs/op, baseline %d", d.Name, d.Allocs, d.BaseAllocs))
			}
		}
		sort.Slice(file.Deltas, func(i, j int) bool { return file.Deltas[i].Name < file.Deltas[j].Name })
	}

	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scorep-bench: encode: %v\n", err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "scorep-bench: write %s: %v\n", *out, err)
		os.Exit(2)
	}

	failing := false
	if *checkAllocs && len(regressions) > 0 {
		fmt.Fprintln(os.Stderr, "scorep-bench: hot-path allocation regressions:")
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		failing = true
	}
	if *checkWriteGate {
		gateTasks := 65536
		if *quick {
			gateTasks = 4096
		}
		ratios := runWriteGate(gateTasks, 15)
		if len(ratios) == 0 {
			fmt.Fprintln(os.Stderr, "scorep-bench: write gate produced no valid measurement")
			failing = true
		} else {
			// Gate on the 75th percentile of the paired ratios: noise on a
			// shared runner only drags individual rounds down (a busy
			// neighbour can slow one side of a pair, never speed it up), so
			// a healthy v2 writer shows near-1.0 ratios in its least-noisy
			// rounds, while a genuine encode-path regression shifts every
			// round down — including the upper quartile.
			p75 := ratios[(len(ratios)*3)/4]
			verdict := "ok"
			if p75 < 0.95 {
				verdict = "FAIL (v2 write throughput below 95% of v1)"
				failing = true
			}
			fmt.Fprintf(os.Stderr, "write gate %s: p75 v2:v1 throughput ratio %.3f, median %.3f (rounds sorted:",
				verdict, p75, ratios[len(ratios)/2])
			for _, r := range ratios {
				fmt.Fprintf(os.Stderr, " %.2f", r)
			}
			fmt.Fprintln(os.Stderr, ")")
		}
	}
	if failing {
		os.Exit(1)
	}
}

// runWriteGate measures the single-thread write cost of the v2
// (indexed) and v1 (plain) encodings in paired fixed-work rounds — each
// round times the exact same event sequence through a fresh v1 writer,
// then a fresh v2 writer, back to back — and returns the per-round
// v2:v1 throughput ratios sorted ascending; the caller gates on the
// median. Fixed work keeps the two timings of a round tens of
// milliseconds apart so both sample the same noise window (frequency
// scaling, co-tenant load), and the median over many short rounds
// discards the rounds where noise shifted in between — where a single
// back-to-back block comparison, let alone a wall-clock number
// committed from another machine, flakes.
func runWriteGate(tasks, rounds int) []float64 {
	in := archiveFor(1, tasks)
	const events = 4 << 20
	// One untimed warmup per side: input build, pool and branch state.
	writeGateNs(in, events/4)
	writeGateNs(in, events/4, otf2.WithVersion(1))
	ratios := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		v1ns := writeGateNs(in, events, otf2.WithVersion(1))
		v2ns := writeGateNs(in, events)
		if v1ns > 0 && v2ns > 0 {
			ratios = append(ratios, v1ns/v2ns)
		}
	}
	sort.Float64s(ratios)
	return ratios
}

// writeGateNs times writing `events` events of in's single-thread event
// sequence (batches of 512, cycling) through a fresh Writer configured
// by opts, excluding Close (the footer index write is a per-archive
// cost, not a per-event one). Returns 0 on write failure.
func writeGateNs(in *archiveInput, events int, opts ...otf2.WriterOption) float64 {
	cw := &countingWriter{}
	w := otf2.NewWriter(cw, opts...)
	evs := in.tr.Threads[0]
	const batch = 512
	start := time.Now()
	for done := 0; done < events; {
		lo := done % len(evs)
		hi := lo + batch
		if hi > len(evs) {
			hi = len(evs)
		}
		if hi-lo > events-done {
			hi = lo + events - done
		}
		if err := w.WriteEvents(0, evs[lo:hi]); err != nil {
			return 0
		}
		done += hi - lo
	}
	ns := float64(time.Since(start).Nanoseconds())
	if w.Close() != nil {
		return 0
	}
	return ns
}

func readBaseline(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != "scorep-bench/1" {
		return nil, fmt.Errorf("%s: unknown schema %q", path, f.Schema)
	}
	return &f, nil
}
