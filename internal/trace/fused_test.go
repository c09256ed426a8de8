package trace

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/cube"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
)

// TestTeeFusesCanonicalPair verifies when the fused fast path engages:
// exactly (Measurement, Recorder) on one shared clock, the measurement
// filtered or not.
func TestTeeFusesCanonicalPair(t *testing.T) {
	clk := clock.NewSystem()
	reg := region.NewRegistry()
	m := measure.NewWithClock(clk, reg)
	rec, _ := newCollectingRecorder(clk)

	if te := NewTee(m, rec); te.fr == nil || te.fm != m {
		t.Error("measurement+recorder on a shared clock must fuse")
	}
	fm := measure.NewWithClock(clk, reg)
	if te := NewTee(measure.NewFilter(fm, "x_*"), rec); te.fr == nil || te.fm != fm {
		t.Error("filtered measurement+recorder on a shared clock must fuse")
	}
	if te := NewTee(m, NewStreamingRecorder(clock.NewSystem(), dropSink{}, 0)); te.fr != nil {
		t.Error("different clocks must not fuse")
	}
	if te := NewTee(m, rec, omp.NopListener{}); te.fr != nil {
		t.Error("three listeners must not fuse")
	}
	if te := NewTee(rec, m); te.fr != nil {
		t.Error("recorder-first order must not fuse")
	}
	cm := measure.NewWithClock(clock.Func(func() int64 { return 0 }), reg)
	if te := NewTee(cm, NewStreamingRecorder(clock.Func(func() int64 { return 0 }), dropSink{}, 0)); te.fr != nil {
		t.Error("non-comparable clocks must not fuse")
	}
}

// fusedRegions interns the regions of the equivalence workload once, so
// both runs (and their traces) share region identity.
type fusedRegions struct {
	par, fn, task, tw *region.Region
}

func newFusedRegions(reg *region.Registry) fusedRegions {
	return fusedRegions{
		par:  reg.Register("eq.par", "fused.go", 1, region.Parallel),
		fn:   reg.Register("eq.fn", "fused.go", 2, region.UserFunction),
		task: reg.Register("eq.task", "fused.go", 3, region.Task),
		tw:   reg.Register("eq.tw", "fused.go", 4, region.Taskwait),
	}
}

// runEquivalenceWorkload executes a deterministic single-thread tasking
// workload (recursive deferred tasks, user functions, taskwaits) on a
// manual clock advanced at fixed points, so two runs produce identical
// event sequences and timestamps.
func runEquivalenceWorkload(l omp.Listener, reg *region.Registry, rs fusedRegions, clk *clock.Manual) {
	rt := omp.NewRuntimeWithRegistry(l, reg)
	rt.Parallel(1, rs.par, func(t *omp.Thread) {
		var recurse func(t *omp.Thread, d int)
		recurse = func(t *omp.Thread, d int) {
			clk.Advance(1)
			instrument(t, rs.fn, func() { clk.Advance(2) })
			if d == 0 {
				return
			}
			for i := 0; i < 2; i++ {
				t.NewTask(rs.task, func(c *omp.Thread) {
					recurse(c, d-1)
				})
			}
			clk.Advance(3)
			t.Taskwait(rs.tw)
		}
		recurse(t, 4)
		// One undeferred task exercises the inline create+begin path.
		t.NewTask(rs.task, func(c *omp.Thread) { clk.Advance(5) }, omp.If(false))
		t.Taskwait(rs.tw)
	})
}

// instrument wraps fn in enter/exit events (pomp.Function equivalent,
// avoiding the import just for this).
func instrument(t *omp.Thread, r *region.Region, fn func()) {
	l := t.Runtime().Listener()
	if l != nil {
		l.Enter(t, r)
	}
	fn()
	if l != nil {
		l.Exit(t, r)
	}
}

// TestFusedTeeMatchesGenericTee runs the same deterministic workload
// once under the fused Tee and once under the generic dispatch loop (a
// third nop listener disables fusing) and requires byte-identical
// profile report JSON, a deeply equal trace, and deeply equal trace
// analysis — for a plain measurement and for one whose filter excludes
// the workload's user function, which must then be absent from the
// profile and present in the trace. Run with -race -cpu 1,4 in CI.
func TestFusedTeeMatchesGenericTee(t *testing.T) {
	reg := region.NewRegistry()
	rs := newFusedRegions(reg)

	run := func(generic bool, filter []string) ([]byte, *Trace, *Analysis) {
		clk := clock.NewManual(0)
		m := measure.NewFilter(measure.NewWithClock(clk, reg), filter...)
		rec, sink := newCollectingRecorder(clk)
		var te *Tee
		if generic {
			te = NewTee(m, rec, omp.NopListener{})
			if te.fr != nil {
				t.Fatal("generic tee unexpectedly fused")
			}
		} else {
			te = NewTee(m, rec)
			if te.fr == nil {
				t.Fatal("canonical pair did not fuse")
			}
		}
		runEquivalenceWorkload(te, reg, rs, clk)
		m.Finish()
		rec.Finish()
		tr := sink.trace()
		rep := cube.Aggregate(m.Locations())
		if profiled := rep.Main.Find("eq.par").Find("eq.fn") != nil; profiled != (filter == nil) {
			t.Errorf("filter %v, generic %v: eq.fn in the profile: %v", filter, generic, profiled)
		}
		traced := false
		for _, ev := range tr.Threads[0] {
			traced = traced || ev.Type == EvEnter && ev.Region == rs.fn
		}
		if !traced {
			t.Errorf("filter %v, generic %v: eq.fn is absent from the trace", filter, generic)
		}
		var buf bytes.Buffer
		if err := cube.WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tr, Analyze(tr)
	}

	for _, filter := range [][]string{nil, {"eq.f*"}} {
		fusedJSON, fusedTrace, fusedAn := run(false, filter)
		genericJSON, genericTrace, genericAn := run(true, filter)

		if !bytes.Equal(fusedJSON, genericJSON) {
			t.Errorf("filter %v: report JSON differs between fused and generic tee:\nfused:   %s\ngeneric: %s",
				filter, fusedJSON, genericJSON)
		}
		if !reflect.DeepEqual(fusedTrace, genericTrace) {
			t.Errorf("filter %v: recorded traces differ between fused and generic tee", filter)
		}
		if !reflect.DeepEqual(fusedAn, genericAn) {
			t.Errorf("filter %v: trace analysis differs between fused and generic tee:\nfused:   %+v\ngeneric: %+v",
				filter, fusedAn, genericAn)
		}
		if fusedTrace.NumEvents() == 0 {
			t.Errorf("filter %v: equivalence workload recorded no events", filter)
		}
	}
}

// TestFusedTeeRace is the concurrent-registration race test on the
// *fused* path (shared clock), complementing TestRecorderRaceUnderTee
// which exercises the generic path. Event conservation is checked; the
// interesting part runs under -race.
func TestFusedTeeRace(t *testing.T) {
	reg := region.NewRegistry()
	clk := clock.NewSystem()
	m := measure.NewWithClock(clk, reg)
	rec, sink := newCollectingRecorder(clk)
	te := NewTee(m, rec)
	if te.fr == nil {
		t.Fatal("canonical pair did not fuse")
	}
	rt := omp.NewRuntimeWithRegistry(te, reg)
	par := reg.Register("fpar", "fused.go", 10, region.Parallel)
	task := reg.Register("ftask", "fused.go", 11, region.Task)
	tw := reg.Register("ftw", "fused.go", 12, region.Taskwait)

	const producers = 4
	const tasksPer = 100
	rt.Parallel(producers, par, func(th *omp.Thread) {
		for i := 0; i < tasksPer; i++ {
			th.NewTask(task, func(*omp.Thread) {})
		}
		th.Taskwait(tw)
	})
	m.Finish()
	rec.Finish()
	tr := sink.trace()
	counts := map[EventType]int{}
	for _, evs := range tr.Threads {
		for _, ev := range evs {
			counts[ev.Type]++
		}
	}
	want := producers * tasksPer
	if counts[EvTaskBegin] != want || counts[EvTaskEnd] != want {
		t.Fatalf("task begin/end = %d/%d, want %d/%d",
			counts[EvTaskBegin], counts[EvTaskEnd], want, want)
	}
}

// errSinkFull is what a failingSink returns once it fails.
var errSinkFull = errors.New("sink full")

// failingSink fails every write after the first n.
type failingSink struct {
	mu     sync.Mutex
	okLeft int
	calls  int
	wrote  int // events accepted
}

func (s *failingSink) WriteEvents(thread int, evs []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.okLeft > 0 {
		s.okLeft--
		s.wrote += len(evs)
		return nil
	}
	return errSinkFull
}

// TestStreamingErrorLatch verifies the atomic sink-error latch: the
// first failure is latched, later chunks are discarded without calling
// the sink again, and Err wraps the first error and counts every event
// that did not reach the sink — the refused batch included — for a sink
// failing on its first, second and fourth call.
func TestStreamingErrorLatch(t *testing.T) {
	reg := region.NewRegistry()
	work := reg.Register("lw", "fused.go", 20, region.UserFunction)
	par := reg.Register("lpar", "fused.go", 21, region.Parallel)
	run := func(rec *Recorder) {
		rt := omp.NewRuntimeWithRegistry(rec, reg)
		rt.Parallel(1, par, func(th *omp.Thread) {
			for i := 0; i < 40; i++ { // 80+ events -> many chunk flushes
				instrument(th, work, func() {})
			}
		})
		rec.Finish()
	}
	all, sink0 := newCollectingRecorder(clock.NewManual(0))
	run(all)
	total := sink0.trace().NumEvents()
	for _, ok := range []int{0, 1, 3} {
		sink := &failingSink{okLeft: ok}
		rec := NewStreamingRecorder(clock.NewManual(0), sink, 4)
		run(rec)
		err := rec.Err()
		want := fmt.Sprintf("sink full (%d events discarded)", total-sink.wrote)
		if !errors.Is(err, errSinkFull) || err.Error() != want {
			t.Fatalf("failing on call %d: Err = %v, want %q wrapping the sink's error", ok+1, err, want)
		}
		if sink.wrote != 4*ok {
			t.Errorf("failing on call %d: sink accepted %d events, want %d", ok+1, sink.wrote, 4*ok)
		}
		// Everything after the latch must be dropped without touching
		// the sink.
		if sink.calls != ok+1 {
			t.Errorf("sink called %d times, want %d (the successes and the first failure)", sink.calls, ok+1)
		}
	}
}
