// Allocation-regression tests for the per-event hot path: in steady
// state (pools warm, caches populated, chunk buffers at capacity) no
// event may allocate — the zero-alloc contract of doc.go's "Overhead"
// section, one subtest per listener configuration.
package scorep_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/otf2"
	"repro/internal/pomp"
	"repro/internal/region"
	"repro/internal/sink"
	"repro/internal/trace"
)

type zeroAllocSink struct{}

func (zeroAllocSink) WriteEvents(int, []trace.Event) error { return nil }

func zeroAllocNopTask(*omp.Thread) {}

func zeroAllocNopFn() {}

// zeroAllocRegions interns one workload's regions in a fresh registry.
type zeroAllocRegions struct {
	par, work, task, tw *region.Region
}

func newZeroAllocRegions(reg *region.Registry) zeroAllocRegions {
	return zeroAllocRegions{
		par:  reg.Register("za.par", "alloc.go", 1, region.Parallel),
		work: reg.Register("za.work", "alloc.go", 2, region.UserFunction),
		task: reg.Register("za.task", "alloc.go", 3, region.Task),
		tw:   reg.Register("za.tw", "alloc.go", 4, region.Taskwait),
	}
}

// assertZeroAllocs runs the steady-state probes on one listener
// configuration inside a single-thread parallel region.
func assertZeroAllocs(t *testing.T, cfg string, l omp.Listener, reg *region.Registry, rs zeroAllocRegions) {
	t.Helper()
	rt := omp.NewRuntimeWithRegistry(l, reg)
	// What every BOTS kernel's task does: enter a region, spawn a child,
	// wait for it. Its instance tree has a root with three children, so
	// a recycled root that lost its child slice would grow one again.
	busyTask := func(th *omp.Thread) {
		pomp.Function(th, rs.work, zeroAllocNopFn)
		th.NewTask(rs.task, zeroAllocNopTask)
		th.Taskwait(rs.tw)
	}
	rt.Parallel(1, rs.par, func(th *omp.Thread) {
		// Warm every path this test measures: call-tree nodes, the
		// create-region cache, task/instance pools, deque and
		// child-entry capacity, and (streaming) chunk buffers across
		// several flushes.
		for i := 0; i < 1024; i++ {
			pomp.Function(th, rs.work, zeroAllocNopFn)
			th.NewTask(rs.task, zeroAllocNopTask, omp.If(false))
			th.NewTask(rs.task, zeroAllocNopTask)
			th.NewTask(rs.task, busyTask)
			if i%32 == 31 {
				th.Taskwait(rs.tw)
			}
		}
		th.Taskwait(rs.tw)

		if a := testing.AllocsPerRun(512, func() {
			pomp.Function(th, rs.work, zeroAllocNopFn)
		}); a != 0 {
			t.Errorf("%s: steady-state Enter/Exit allocates %v/op, want 0", cfg, a)
		}
		if a := testing.AllocsPerRun(512, func() {
			th.NewTask(rs.task, zeroAllocNopTask, omp.If(false))
		}); a != 0 {
			t.Errorf("%s: undeferred TaskBegin/TaskEnd allocates %v/op, want 0", cfg, a)
		}
		n := 0
		if a := testing.AllocsPerRun(512, func() {
			th.NewTask(rs.task, zeroAllocNopTask)
			n++
			if n%32 == 0 {
				th.Taskwait(rs.tw)
			}
		}); a != 0 {
			t.Errorf("%s: deferred spawn+execute allocates %v/op, want 0", cfg, a)
		}
		th.Taskwait(rs.tw)
		if a := testing.AllocsPerRun(512, func() {
			th.NewTask(rs.task, busyTask)
			n++
			if n%32 == 0 {
				th.Taskwait(rs.tw)
			}
		}); a != 0 {
			t.Errorf("%s: task that enters a region, spawns and waits allocates %v/op, want 0", cfg, a)
		}
		th.Taskwait(rs.tw)
	})
}

// TestHotPathZeroAllocs asserts the zero-alloc contract for the
// profiling listener alone and behind a filter, the streaming trace
// recorder alone (amortized over chunk flushes) and into the archive
// encoder, the flight recorder, and the canonical fused
// profiling+tracing Tees.
func TestHotPathZeroAllocs(t *testing.T) {
	t.Run("profile", func(t *testing.T) {
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		m := measure.NewWithClock(clock.NewSystem(), reg)
		assertZeroAllocs(t, "profile", m, reg, rs)
		m.Finish()
	})
	t.Run("profile+filter", func(t *testing.T) {
		// A filter that excludes nothing but is consulted per event, alone
		// (under a Tee with a recorder it takes the fused path below).
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		m := measure.NewWithClock(clock.NewSystem(), reg)
		assertZeroAllocs(t, "profile+filter", measure.NewFilter(m, "zz_never_*", "zz_nomatch"), reg, rs)
		m.Finish()
	})
	t.Run("stream-trace", func(t *testing.T) {
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		rec := trace.NewStreamingRecorder(clock.NewSystem(), zeroAllocSink{}, 256)
		assertZeroAllocs(t, "stream-trace", rec, reg, rs)
		rec.Finish()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("stream-archive", func(t *testing.T) {
		// The same recorder flushing into the archive encoder, as a local
		// session does: a full block is encoded into the thread's chunk
		// buffer and a sealed chunk appended to the output, with nothing
		// allocated per event (per chunk, the index's entry amortizes).
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		w := otf2.NewWriter(io.Discard)
		rec := trace.NewStreamingRecorder(clock.NewSystem(), w, 256)
		assertZeroAllocs(t, "stream-archive", rec, reg, rs)
		rec.Finish()
		if err := errors.Join(rec.Err(), w.Close()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("flight-trace", func(t *testing.T) {
		// The recorder a flight session runs, ring 4 x 64 events: 1024
		// warmup iterations fill the ring many times over, so the probes
		// measure steady-state eviction — a full block is encoded into
		// the buffer of the chunk it evicts, with no allocation per
		// event.
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		f := otf2.NewFlight(clock.NewSystem(), 4, 64)
		assertZeroAllocs(t, "flight-trace", f.Recorder(), reg, rs)
		if st := f.Stats(); st.DroppedChunks == 0 || st.RetainedBytes == 0 {
			t.Fatalf("the ring never evicted: %+v", st)
		}
		f.Release()
	})
	t.Run("fused-profile+flight", func(t *testing.T) {
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		clk := clock.NewSystem()
		m := measure.NewWithClock(clk, reg)
		f := otf2.NewFlight(clk, 4, 64)
		assertZeroAllocs(t, "fused-profile+flight", trace.NewTee(m, f.Recorder()), reg, rs)
		if st := f.Stats(); st.DroppedChunks == 0 {
			t.Fatalf("the ring never evicted: %+v", st)
		}
		m.Finish()
		f.Release()
	})
	t.Run("fused-profile+trace", func(t *testing.T) {
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		clk := clock.NewSystem()
		m := measure.NewWithClock(clk, reg)
		rec := trace.NewStreamingRecorder(clk, zeroAllocSink{}, 256)
		assertZeroAllocs(t, "fused-profile+trace", trace.NewTee(m, rec), reg, rs)
		m.Finish()
		rec.Finish()
		if err := rec.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fused-profile+filter+trace", func(t *testing.T) {
		reg := region.NewRegistry()
		rs := newZeroAllocRegions(reg)
		clk := clock.NewSystem()
		m := measure.NewWithClock(clk, reg)
		f := measure.NewFilter(m, "zz_never_*", "zz_nomatch")
		rec := trace.NewStreamingRecorder(clk, zeroAllocSink{}, 256)
		assertZeroAllocs(t, "fused-profile+filter+trace", trace.NewTee(f, rec), reg, rs)
		m.Finish()
		rec.Finish()
	})
}

// taskRingTrace is a four-thread trace of tasks tasks in rounds: every
// thread creates eight, runs the eight its left neighbour created from
// a taskwait, and goes round again; all meet in the region's implicit
// barrier.
func taskRingTrace(tasks int) *trace.Trace {
	const threads, batch = 4, 8
	reg := region.NewRegistry()
	rs := newZeroAllocRegions(reg)
	ibar := reg.Register("za.par", "alloc.go", 1, region.ImplicitBarrier)
	tr := &trace.Trace{Threads: make(map[int][]trace.Event, threads)}
	for th := 0; th < threads; th++ {
		now := int64(th)
		ev := func(d int64, typ trace.EventType, r *region.Region, id uint64) trace.Event {
			now += d
			return trace.Event{Time: now, Type: typ, Region: r, TaskID: id}
		}
		evs := []trace.Event{ev(1, trace.EvThreadBegin, nil, 0), ev(1, trace.EvEnter, rs.par, 0)}
		for round := 0; round < tasks/threads/batch; round++ {
			id := func(th, i int) uint64 { return uint64((round*threads+th)*batch + i + 1) }
			for i := 0; i < batch; i++ {
				evs = append(evs, ev(2, trace.EvTaskCreateBegin, rs.task, 0), ev(3, trace.EvTaskCreateEnd, rs.task, id(th, i)))
			}
			evs = append(evs, ev(int64(1+th), trace.EvEnter, rs.tw, 0))
			for i := 0; i < batch; i++ {
				left := id((th+threads-1)%threads, i)
				evs = append(evs, ev(4, trace.EvTaskBegin, rs.task, left), ev(int64(5+i%7), trace.EvTaskEnd, rs.task, left), ev(1, trace.EvTaskSwitch, nil, 0))
			}
			evs = append(evs, ev(int64(5-th), trace.EvExit, rs.tw, 0))
		}
		evs = append(evs, ev(1, trace.EvEnter, ibar, 0), ev(int64(40-10*th), trace.EvExit, ibar, 0),
			ev(1, trace.EvExit, rs.par, 0), ev(1, trace.EvThreadEnd, nil, 0))
		tr.Threads[th] = evs
	}
	return tr
}

// heldPrinter is a fmt.Stringer that, while fmt formats it, holds one of
// fmt's pooled printers until release closes.
type heldPrinter struct {
	held    *sync.WaitGroup
	release <-chan struct{}
}

func (h heldPrinter) String() string {
	h.held.Done()
	<-h.release
	return ""
}

// fillFmtPool leaves about n printers, with room for a long line each,
// in fmt's sync.Pool, by having n goroutines return theirs at once.
func fillFmtPool(n int) {
	var held, done sync.WaitGroup
	release := make(chan struct{})
	held.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			_ = fmt.Sprintf("%v%256s", heldPrinter{&held, release}, "")
		}()
	}
	held.Wait()
	close(release)
	done.Wait()
}

// TestBottleneckAnalysisAllocs is the allocation gate of the offline
// bottleneck analysis: a pass allocates per thread and per buffer, not
// per task, fragment or idle span. Ten times the tasks may change the
// count only by what formatting larger numbers into the findings takes;
// a buffer that grew by doubling would add a fifth.
//
// The findings are formatted with fmt, whose printers come from a
// sync.Pool, and a pool that comes up empty allocates: after a
// collection, which the longer pass sees more of, and under the race
// detector, which drops one Put in four at random. Neither is the
// analysis's doing, so the passes are counted with the collector off
// and the pool holding more printers than they can lose.
func TestBottleneckAnalysisAllocs(t *testing.T) {
	const ceiling = 300
	// A change of GOMAXPROCS empties every pool: make AllocsPerRun's own
	// a no-op.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var allocs [2]float64
	for i, tasks := range []int{2_048, 20_480} {
		tr := taskRingTrace(tasks)
		if a := bottleneck.Analyze(tr); len(a.WaitStates) == 0 || a.CriticalPath.Segments == 0 {
			t.Fatalf("%d tasks: the trace exercises nothing: %+v", tasks, a)
		}
		runtime.GC()
		fillFmtPool(512)
		allocs[i] = testing.AllocsPerRun(5, func() { bottleneck.Analyze(tr) })
		if allocs[i] > ceiling {
			t.Errorf("%d tasks: bottleneck.Analyze allocates %v times, ceiling %d", tasks, allocs[i], ceiling)
		}
	}
	if allocs[1] > 1.05*allocs[0] {
		t.Errorf("bottleneck.Analyze allocates %v times on 2k tasks and %v on 20k: allocations grow with the tasks", allocs[0], allocs[1])
	}
}

// TestArchiveLoadAllocs is the allocation gate of the archive load: a
// full load of an indexed archive allocates the trace it returns — 32
// bytes an event, each thread's slice made once at its final length —
// plus chunk buffers and plan state that together stay below the
// archive's own size, in a number of allocations that depends on the
// threads and workers, not on the chunks. (Before the load went by the
// index it allocated 6.3 times its result, and at least once per chunk.)
func TestArchiveLoadAllocs(t *testing.T) {
	tr := taskRingTrace(38_400)
	events := tr.NumEvents()
	if events < 200_000 {
		t.Fatalf("the trace has %d events, want 200k", events)
	}
	var allocs, chunks [2]float64
	for i, chunkBytes := range []int{32 << 10, 1 << 10} {
		var archive bytes.Buffer
		if err := otf2.Write(&archive, tr, otf2.WithChunkBytes(chunkBytes)); err != nil {
			t.Fatal(err)
		}
		ix, err := otf2.ReadIndex(bytes.NewReader(archive.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = float64(ix.NumChunks())
		load := func() {
			got, err := otf2.ReadAllParallel(bytes.NewReader(archive.Bytes()), region.NewRegistry(), 2)
			if err != nil || got.NumEvents() != events {
				t.Fatalf("load: %d events, err %v", got.NumEvents(), err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load()
		runtime.ReadMemStats(&after)
		if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(1.15*32*float64(events))+uint64(archive.Len()); got > ceiling {
			t.Errorf("%d-byte chunks: the load allocates %d bytes for %d events in a %d-byte archive, ceiling %d", chunkBytes, got, events, archive.Len(), ceiling)
		}
		allocs[i] = testing.AllocsPerRun(5, load)
	}
	if chunks[1] < 20*chunks[0] {
		t.Fatalf("%v and %v chunks: the two archives do not differ enough in chunk count", chunks[0], chunks[1])
	}
	if allocs[1] > allocs[0]+2 {
		t.Errorf("the load allocates %v times over %v chunks and %v times over %v: allocations grow with the chunks", allocs[0], chunks[0], allocs[1], chunks[1])
	}
}

// footprintRun records events events on two threads (enter/exit pairs of
// one function, a task per 64 of them) under a session made from opts,
// and returns the results with the growth of the live heap from before
// NewSession until after End, each measured after a forced collection.
func footprintRun(t *testing.T, events int, opts ...scorep.Option) (*scorep.Results, int64) {
	t.Helper()
	rs := newZeroAllocRegions(region.Default)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := scorep.NewSession(opts...)
	s.Parallel(2, rs.par, func(th *scorep.Thread) {
		for i := 0; i < events/4; i++ {
			pomp.Function(th, rs.work, zeroAllocNopFn)
			if i%64 == 63 {
				th.NewTask(rs.task, zeroAllocNopTask)
			}
		}
		th.Taskwait(rs.tw)
	})
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return res, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestFlightSessionFootprint is the memory gate of a flight recorder
// session at the benchmark's shape, two threads with rings of 16 chunks
// of 4096 events: what the full rings and staging blocks hold while the
// session records, and what End leaves in the Results once it has let
// them go, are each at most 12 bytes per retained event — encoded chunks,
// where rings of events held 32 and End's copy of them 32 more — in a
// number of heap objects that depends on the ring's depth, not on its
// events: no pointer per event for the collector to follow.
func TestFlightSessionFootprint(t *testing.T) {
	const events = 600_000 // four times what the rings hold
	rs := newZeroAllocRegions(region.Default)
	work := func(s *scorep.Session) {
		s.Parallel(2, rs.par, func(th *scorep.Thread) {
			for i := 0; i < events/4; i++ {
				pomp.Function(th, rs.work, zeroAllocNopFn)
			}
		})
	}
	heap := func() (bytes, objects int64) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc), int64(ms.HeapObjects)
	}
	flight := []scorep.Option{scorep.WithFlightRecorder(16), scorep.WithDumpSignal(nil), scorep.WithoutProfiling()}
	// The same run without the recorder, for what is not the window's.
	b0, o0 := heap()
	base := scorep.NewSession(scorep.WithoutProfiling())
	work(base)
	b1, o1 := heap()
	runtime.KeepAlive(base)
	baseBytes, baseObjects := b1-b0, o1-o0

	b0, o0 = heap()
	s := scorep.NewSession(flight...)
	work(s)
	b1, o1 = heap()
	st := s.FlightRecorderStats()
	if st.DroppedChunks == 0 || st.RetainedEvents < 2*16*4096 {
		t.Fatalf("the rings are not full: %+v", st)
	}
	if st.RetainedBytes == 0 || st.RetainedBytes > int64(8*st.RetainedEvents) {
		t.Fatalf("the rings hold %d encoded bytes for %d events", st.RetainedBytes, st.RetainedEvents)
	}
	if held, ceiling := b1-b0-baseBytes, int64(12*st.RetainedEvents); held > ceiling {
		t.Errorf("recording, the session holds %d bytes for a window of %d events, ceiling %d", held, st.RetainedEvents, ceiling)
	}
	if objects := o1 - o0 - baseObjects; objects > 200 {
		t.Errorf("recording, the session holds %d heap objects more than without the recorder: they grow with the events", objects)
	}
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	b2, o2 := heap()
	fr := res.FlightRecorder()
	if fr.RetainedEvents != st.RetainedEvents || s.FlightRecorderStats().RetainedBytes != 0 {
		t.Fatalf("End kept %d of %d events, and the rings still hold %d bytes", fr.RetainedEvents, st.RetainedEvents, s.FlightRecorderStats().RetainedBytes)
	}
	if n := len(bytes.Join(res.TraceArchive(), nil)); n == 0 || n > 8*fr.RetainedEvents {
		t.Fatalf("the results retain an archive of %d bytes for %d events", n, fr.RetainedEvents)
	}
	if held, ceiling := b2-b0-baseBytes, int64(12*fr.RetainedEvents); held > ceiling {
		t.Errorf("ended, session and results hold %d bytes for a window of %d events, ceiling %d", held, fr.RetainedEvents, ceiling)
	}
	if objects := o2 - o0 - baseObjects; objects > 200 {
		t.Errorf("ended, session and results hold %d heap objects more than without the recorder", objects)
	}
	if got := res.Trace().NumEvents(); got != fr.RetainedEvents {
		t.Errorf("the results decode to %d events, the accounting says %d", got, fr.RetainedEvents)
	}
	runtime.KeepAlive(s)
}

// TestLocalSessionFootprint is the memory gate of a local tracing
// session: what End leaves reachable for the trace is its archive — a
// few bytes an event, not 32 — and saving it is a copy, whose
// allocations do not depend on how many events there are. (A session
// that kept []trace.Event held 6.4 MB here, and a save that encodes
// allocates per chunk.)
func TestLocalSessionFootprint(t *testing.T) {
	const events = 200_000
	_, base := footprintRun(t, events)
	res, traced := footprintRun(t, events, scorep.WithTracing())
	if n := len(bytes.Join(res.TraceArchive(), nil)); n == 0 || n > 8*events {
		t.Fatalf("the session retains an archive of %d bytes for %d events", n, events)
	}
	if grown, ceiling := traced-base, int64(8*events+512<<10); grown > ceiling {
		t.Errorf("tracing %d events leaves %d bytes more on the heap than not tracing, ceiling %d", events, grown, ceiling)
	}

	// Without the profile, whose JSON is not what this gate is about.
	small, _ := footprintRun(t, events/10, scorep.WithTracing(), scorep.WithoutProfiling())
	large, _ := footprintRun(t, events, scorep.WithTracing(), scorep.WithoutProfiling())
	dir := t.TempDir()
	// A save formats its metadata with fmt and encoding/json, whose
	// buffers come from sync.Pools, and a pool that comes up empty
	// allocates, three times or more: after a collection, and under the
	// race detector, which drops one Put in four at random. That is not
	// the save's doing, so each size counts as its cheapest of 16 saves,
	// the one that found every pool filled (four in ten do).
	var allocs [2]float64
	for i, r := range []*scorep.Results{small, large} {
		allocs[i] = math.Inf(1)
		for round := 0; round < 16; round++ {
			allocs[i] = min(allocs[i], testing.AllocsPerRun(1, func() {
				if err := r.SaveExperiment(dir); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	if d := allocs[1] - allocs[0]; d > 5 || d < -5 {
		t.Errorf("SaveExperiment allocates %v times for %d events and %v times for %d: a save is a copy", allocs[0], events/10, allocs[1], events)
	}
}

// TestStreamingSessionFootprint is the memory gate of a session that
// streams its trace to a daemon (WithRemoteTrace), here an in-process
// server on a unix socket. The send window keeps the stream in fixed
// segments, each allocated once and filled again when the daemon has
// acknowledged it, and gives them up when the stream ends: streaming BOTS
// fib small (3.4 MB of trace, below the replay window, so every byte is
// kept until the end) allocates, client and server together, little more
// than recording the same trace locally, and after End the Results pin
// next to nothing of it; a stream far longer than the window allocates
// the window, once. (A window that grew one contiguous slice allocated
// 14 MB more than the local session and left 3.7 MB reachable from the
// Results.)
func TestStreamingSessionFootprint(t *testing.T) {
	dir := t.TempDir()
	srv, err := scorep.NewTraceSinkServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	addr := "unix://" + filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", filepath.Join(dir, "d.sock"))
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	kernel := bots.FibSpec.Prepare(bots.SizeSmall, false)
	// session runs the kernel on one thread under opts and returns what
	// the process allocated from NewSession until End returned, and what
	// the Results alone still held once the session was gone.
	session := func(opts ...scorep.Option) (allocated, pinned uint64) {
		var before, ended, held, freed runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := scorep.NewSession(append(opts, scorep.WithoutProfiling())...)
		kernel(s.Runtime(), 1)
		res, err := s.End()
		runtime.ReadMemStats(&ended)
		if err != nil {
			t.Fatal(err)
		}
		s = nil
		runtime.GC()
		runtime.GC() // twice: what End left in a sync.Pool is nobody's, and goes with the second
		runtime.ReadMemStats(&held)
		runtime.KeepAlive(res)
		res = nil
		runtime.GC()
		runtime.ReadMemStats(&freed)
		return ended.TotalAlloc - before.TotalAlloc, held.HeapAlloc - min(held.HeapAlloc, freed.HeapAlloc)
	}
	session(scorep.WithTracing()) // warm the pools both kinds of session draw on
	local, _ := session(scorep.WithTracing())
	streamed, pinned := session(scorep.WithRemoteTrace(addr), scorep.WithRemoteTraceStream("fib"))
	if local < 3<<20 {
		t.Fatalf("the local session allocated %d bytes: the trace is not the 3.4 MB this gate is about", local)
	}
	if more, ceiling := int64(streamed)-int64(local), int64(2<<20); more > ceiling {
		t.Errorf("streaming the trace allocates %d bytes, recording it locally %d: %d more, ceiling %d", streamed, local, more, ceiling)
	}
	if pinned >= 64<<10 {
		t.Errorf("after End the streaming session's Results pin %d bytes", pinned)
	}

	// 64 MiB through a client at its defaults. Its window: 4 MiB kept for
	// replay; what is sent and not yet acknowledged, which is the daemon's
	// 256 KiB between acks, the frame of up to 256 KiB that crosses them
	// and the one being written; 1 MiB of backlog before a producer waits,
	// and the chunk that crosses it; a segment's rounding at either end.
	const long, window = 64 << 20, 4<<20 + 3*256<<10 + 1<<20 + 32<<10 + 2*otf2.MemorySegment
	task := region.Default.Register("za.long", "alloc.go", 5, region.Task)
	batch := make([]trace.Event, 4096)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cl, err := sink.Dial(addr, sink.WithStreamID("long"))
	if err != nil {
		t.Fatal(err)
	}
	now, events := int64(0), 0
	for sent := 0; sent < long; sent += 17 * len(batch) { // 17 bytes an event, see below
		for i := range batch {
			now += 1 << 40 // six bytes of time, ten of task id delta: fewer events to the megabyte
			batch[i] = trace.Event{Time: now, Type: trace.EvTaskBegin + trace.EventType(i&1), Region: task, TaskID: uint64(events+1) * 0x9e3779b97f4a7c15}
			events++
		}
		if err := cl.WriteEvents(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-served
	for _, st := range srv.Streams() {
		if !st.Complete || st.DroppedEvents != 0 || st.Resumes != 0 {
			t.Errorf("stream %+v", st)
		}
		if st.ID == "long" && st.Bytes < long {
			t.Fatalf("the long stream is %d bytes, want %d", st.Bytes, long)
		}
	}
	// Nothing bounds the second term but the ack reader's getting to run,
	// and the writer's index grows with the stream: two megabytes for both.
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(window+2<<20); got > ceiling && !raceDetector {
		t.Errorf("streaming %d bytes allocates %d, client and server together; ceiling %d, the window and two megabytes", long, got, ceiling)
	}
}
