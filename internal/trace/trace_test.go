package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
)

// collectSink keeps every event a recorder flushes to it: the
// recording, through no codec.
type collectSink struct {
	mu sync.Mutex
	tr Trace
}

func (c *collectSink) WriteEvents(thread int, evs []Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tr.Threads == nil {
		c.tr.Threads = make(map[int][]Event)
	}
	c.tr.Threads[thread] = append(c.tr.Threads[thread], evs...)
	return nil
}

// trace returns what was collected.
func (c *collectSink) trace() *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &c.tr
}

// newCollectingRecorder is a recorder on clk whose recording the
// returned sink collects.
func newCollectingRecorder(clk clock.Clock) (*Recorder, *collectSink) {
	sink := new(collectSink)
	return NewStreamingRecorder(clk, sink, 0), sink
}

func setupTrace(t *testing.T) (*Recorder, *collectSink, *omp.Runtime, *region.Registry) {
	t.Helper()
	reg := region.NewRegistry()
	rec, sink := newCollectingRecorder(clock.NewSystem())
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	return rec, sink, rt, reg
}

func TestRecorderCapturesEventStream(t *testing.T) {
	rec, sink, rt, reg := setupTrace(t)
	par := reg.Register("par", "t.go", 1, region.Parallel)
	task := reg.Register("work", "t.go", 2, region.Task)
	tw := reg.Register("tw", "t.go", 3, region.Taskwait)

	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 5; i++ {
				th.NewTask(task, func(*omp.Thread) {})
			}
			th.Taskwait(tw)
		}
	})
	rec.Finish()
	tr := sink.trace()

	if len(tr.Threads) != 2 {
		t.Fatalf("threads in trace = %d", len(tr.Threads))
	}
	counts := map[EventType]int{}
	for _, evs := range tr.Threads {
		prev := int64(-1)
		for _, ev := range evs {
			counts[ev.Type]++
			if ev.Time < prev {
				t.Fatal("per-thread timestamps not monotonic")
			}
			prev = ev.Time
		}
	}
	if counts[EvThreadBegin] != 2 || counts[EvThreadEnd] != 2 {
		t.Errorf("thread begin/end = %d/%d", counts[EvThreadBegin], counts[EvThreadEnd])
	}
	if counts[EvTaskBegin] != 5 || counts[EvTaskEnd] != 5 {
		t.Errorf("task begin/end = %d/%d, want 5/5", counts[EvTaskBegin], counts[EvTaskEnd])
	}
	if counts[EvTaskCreateBegin] != 5 || counts[EvTaskCreateEnd] != 5 {
		t.Errorf("create events = %d/%d", counts[EvTaskCreateBegin], counts[EvTaskCreateEnd])
	}
	if counts[EvEnter] != counts[EvExit] {
		t.Errorf("enter %d != exit %d", counts[EvEnter], counts[EvExit])
	}
	if tr.NumEvents() == 0 || len(tr.ThreadIDs()) != 2 {
		t.Error("trace accessors broken")
	}
}

func TestRecorderFinishResets(t *testing.T) {
	rec, sink, rt, reg := setupTrace(t)
	par := reg.Register("par", "t.go", 1, region.Parallel)
	rt.Parallel(1, par, func(*omp.Thread) {})
	rec.Finish()
	first := sink.trace().NumEvents()
	if first == 0 {
		t.Fatal("no events recorded")
	}
	rec.Finish()
	if n := sink.trace().NumEvents(); n != first {
		t.Errorf("a second Finish flushed %d events again", n-first)
	}
}

func TestTeeCombinesProfileAndTrace(t *testing.T) {
	reg := region.NewRegistry()
	m := measure.NewWithClock(clock.NewSystem(), reg)
	rec, sink := newCollectingRecorder(clock.NewSystem())
	rt := omp.NewRuntimeWithRegistry(omp.Listeners{m, rec}, reg)

	par := reg.Register("par", "t.go", 1, region.Parallel)
	task := reg.Register("work", "t.go", 2, region.Task)
	tw := reg.Register("tw", "t.go", 3, region.Taskwait)
	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 10; i++ {
				th.NewTask(task, func(*omp.Thread) {})
			}
			th.Taskwait(tw)
		}
	})
	m.Finish()
	rec.Finish()
	tr := sink.trace()

	// Both sides must have seen the run.
	locs := m.Locations()
	if len(locs) != 2 {
		t.Fatalf("profile locations = %d", len(locs))
	}
	var instances int64
	for _, l := range locs {
		instances += l.InstancesEnded()
	}
	if instances != 10 {
		t.Errorf("profile saw %d instances, want 10", instances)
	}
	begins := 0
	for _, evs := range tr.Threads {
		for _, ev := range evs {
			if ev.Type == EvTaskBegin {
				begins++
			}
		}
	}
	if begins != 10 {
		t.Errorf("trace saw %d task begins, want 10", begins)
	}
}

func TestNewTeeDropsNil(t *testing.T) {
	te := NewTee(nil, NewStreamingRecorder(clock.NewSystem(), dropSink{}, 0), nil)
	if len(te) != 1 {
		t.Errorf("NewTee kept %d listeners, want 1", len(te))
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ev := EvEnter; ev <= EvThreadEnd; ev++ {
		if strings.HasPrefix(ev.String(), "EV(") {
			t.Errorf("event type %d unnamed", ev)
		}
	}
	if EventType(99).String() != "EV(99)" {
		t.Error("fallback broken")
	}
}

// manualListener drives the analysis with a hand-built trace.
func TestAnalyzeDispatchLatencyAndRatio(t *testing.T) {
	reg := region.NewRegistry()
	task := reg.Register("work", "t.go", 1, region.Task)
	bar := reg.Register("bar", "t.go", 2, region.ImplicitBarrier)

	// Thread 0: enters barrier at t=0; dispatch latency 5; task runs
	// 10..30; ready again at 30, second task at 34 (latency 4), runs
	// 34..40; exits barrier at 45 (idle 5).
	tr := &Trace{Threads: map[int][]Event{
		0: {
			{Time: 0, Type: EvThreadBegin},
			{Time: 0, Type: EvEnter, Region: bar},
			{Time: 5, Type: EvTaskBegin, Region: task, TaskID: 1},
			{Time: 30, Type: EvTaskEnd, Region: task, TaskID: 1},
			{Time: 34, Type: EvTaskBegin, Region: task, TaskID: 2},
			{Time: 40, Type: EvTaskEnd, Region: task, TaskID: 2},
			{Time: 45, Type: EvExit, Region: bar},
			{Time: 45, Type: EvThreadEnd},
		},
	}}
	a := Analyze(tr)
	ta := a.PerThread[0]
	if ta.DispatchLatency.Count != 2 || ta.DispatchLatency.Sum != 5+4 {
		t.Errorf("dispatch latency = %+v, want count 2 sum 9", ta.DispatchLatency)
	}
	if ta.TaskExecution.Count != 2 || ta.TaskExecution.Sum != 25+6 {
		t.Errorf("task execution = %+v, want count 2 sum 31", ta.TaskExecution)
	}
	if ta.SyncRegionTime != 45 {
		t.Errorf("sync time = %d, want 45", ta.SyncRegionTime)
	}
	if ta.IdleInSync != 45-31-9 {
		t.Errorf("idle = %d, want 5", ta.IdleInSync)
	}
	wantRatio := float64(9) / float64(31)
	if a.ManagementRatio < wantRatio-1e-9 || a.ManagementRatio > wantRatio+1e-9 {
		t.Errorf("ratio = %f, want %f", a.ManagementRatio, wantRatio)
	}
}

func TestAnalyzeSuspendedTaskFragments(t *testing.T) {
	reg := region.NewRegistry()
	task := reg.Register("work", "t.go", 1, region.Task)
	tw := reg.Register("tw", "t.go", 2, region.Taskwait)
	bar := reg.Register("bar", "t.go", 3, region.ImplicitBarrier)

	// Task 1 runs 0..10, suspends at its taskwait, task 2 runs 10..20,
	// switch resumes task 1 which runs 20..25.
	tr := &Trace{Threads: map[int][]Event{
		0: {
			{Time: 0, Type: EvEnter, Region: bar},
			{Time: 0, Type: EvTaskBegin, Region: task, TaskID: 1},
			{Time: 8, Type: EvEnter, Region: tw},
			{Time: 10, Type: EvTaskBegin, Region: task, TaskID: 2},
			{Time: 20, Type: EvTaskEnd, Region: task, TaskID: 2},
			{Time: 20, Type: EvTaskSwitch, Region: task, TaskID: 1},
			{Time: 21, Type: EvExit, Region: tw},
			{Time: 25, Type: EvTaskEnd, Region: task, TaskID: 1},
			{Time: 26, Type: EvExit, Region: bar},
		},
	}}
	a := Analyze(tr)
	ta := a.PerThread[0]
	// Fragments: task1 [0,10) ended by task2's begin (suspension
	// boundary), task2 [10,20), task1 resumed [20,25).
	if ta.Fragments != 3 {
		t.Errorf("fragments = %d, want 3", ta.Fragments)
	}
	if ta.TaskExecution.Sum != 10+10+5 {
		t.Errorf("task execution sum = %d, want 25", ta.TaskExecution.Sum)
	}
	var buf bytes.Buffer
	a.Format(&buf)
	if !strings.Contains(buf.String(), "management/execution ratio") {
		t.Error("format output incomplete")
	}
}
