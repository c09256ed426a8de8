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
	"repro/internal/pomp"
	"repro/internal/region"
)

// eqRegions interns the regions of the equivalence workload once, so
// both runs (and their traces) share region identity.
type eqRegions struct {
	par, fn, task, tw *region.Region
}

func newEqRegions(reg *region.Registry) eqRegions {
	return eqRegions{
		par:  reg.Register("eq.par", "listeners.go", 1, region.Parallel),
		fn:   reg.Register("eq.fn", "listeners.go", 2, region.UserFunction),
		task: reg.Register("eq.task", "listeners.go", 3, region.Task),
		tw:   reg.Register("eq.tw", "listeners.go", 4, region.Taskwait),
	}
}

// runEquivalenceWorkload executes a deterministic single-thread tasking
// workload (recursive deferred tasks, user functions, taskwaits) on a
// manual clock advanced at fixed points, so two runs produce identical
// event sequences and timestamps.
func runEquivalenceWorkload(l omp.Listener, reg *region.Registry, rs eqRegions, clk *clock.Manual) {
	rt := omp.NewRuntimeWithRegistry(l, reg)
	rt.Parallel(1, rs.par, func(t *omp.Thread) {
		var recurse func(t *omp.Thread, d int)
		recurse = func(t *omp.Thread, d int) {
			clk.Advance(1)
			pomp.Function(t, rs.fn, func() { clk.Advance(2) })
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

// TestRecorderLeavesProfileUnchanged runs the same deterministic
// workload with the profile alone, the recorder alone and both on one
// runtime, and requires that adding the recorder leaves the profile
// report JSON byte-identical and adding the measurement leaves the
// trace and its analysis deeply equal — for a plain measurement and for
// one whose filter excludes the workload's user function, which must
// then be absent from the profile and present in the trace. Run with
// -race -cpu 1,4 in CI.
func TestRecorderLeavesProfileUnchanged(t *testing.T) {
	reg := region.NewRegistry()
	rs := newEqRegions(reg)

	run := func(profile, record bool, filter []string) ([]byte, *Trace) {
		clk := clock.NewManual(0)
		m := measure.NewFilter(measure.NewWithClock(clk, reg), filter...)
		rec, sink := newCollectingRecorder(clk)
		var ls omp.Listeners
		if profile {
			ls = append(ls, m)
		}
		if record {
			ls = append(ls, rec)
		}
		runEquivalenceWorkload(ls, reg, rs, clk)
		if !profile {
			rec.Finish()
			return nil, sink.trace()
		}
		m.Finish()
		rep := cube.Aggregate(m.Locations())
		if profiled := rep.Main.Find("eq.par").Find("eq.fn") != nil; profiled != (filter == nil) {
			t.Errorf("filter %v, recorder %v: eq.fn in the profile: %v", filter, record, profiled)
		}
		var buf bytes.Buffer
		if err := cube.WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if !record {
			return buf.Bytes(), nil
		}
		rec.Finish()
		return buf.Bytes(), sink.trace()
	}

	for _, filter := range [][]string{nil, {"eq.f*"}} {
		aloneJSON, _ := run(true, false, filter)
		_, aloneTrace := run(false, true, filter)
		bothJSON, bothTrace := run(true, true, filter)

		if !bytes.Equal(aloneJSON, bothJSON) {
			t.Errorf("filter %v: the recorder changes the report JSON:\nalone: %s\nboth:  %s",
				filter, aloneJSON, bothJSON)
		}
		if !reflect.DeepEqual(aloneTrace, bothTrace) {
			t.Errorf("filter %v: the measurement changes the recorded trace", filter)
		}
		if a, b := Analyze(aloneTrace), Analyze(bothTrace); !reflect.DeepEqual(a, b) {
			t.Errorf("filter %v: the measurement changes the trace analysis:\nalone: %+v\nboth:  %+v", filter, a, b)
		}
		traced := false
		for _, ev := range bothTrace.Threads[0] {
			traced = traced || ev.Type == EvEnter && ev.Region == rs.fn
		}
		if !traced {
			t.Errorf("filter %v: eq.fn is absent from the trace", filter)
		}
	}
}

// TestFanOutRace is the concurrent-registration race test of a runtime
// fanning each event out to the measurement and the recorder on one
// shared clock. Event conservation is checked; the interesting part
// runs under -race.
func TestFanOutRace(t *testing.T) {
	reg := region.NewRegistry()
	clk := clock.NewSystem()
	m := measure.NewWithClock(clk, reg)
	rec, sink := newCollectingRecorder(clk)
	rt := omp.NewRuntimeWithRegistry(omp.Listeners{m, rec}, reg)
	par := reg.Register("fpar", "listeners.go", 10, region.Parallel)
	task := reg.Register("ftask", "listeners.go", 11, region.Task)
	tw := reg.Register("ftw", "listeners.go", 12, region.Taskwait)

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
	work := reg.Register("lw", "listeners.go", 20, region.UserFunction)
	par := reg.Register("lpar", "listeners.go", 21, region.Parallel)
	run := func(rec *Recorder) {
		rt := omp.NewRuntimeWithRegistry(rec, reg)
		rt.Parallel(1, par, func(th *omp.Thread) {
			for i := 0; i < 40; i++ { // 80+ events -> many chunk flushes
				pomp.Function(th, work, func() {})
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
