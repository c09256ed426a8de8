package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
)

// buildHandTrace: thread 0 computes 0..40, enters a barrier 40..100,
// executes one task 50..90 within it.
func buildHandTrace() (*Trace, *region.Registry) {
	reg := region.NewRegistry()
	bar := reg.Register("bar", "tl.go", 1, region.ImplicitBarrier)
	task := reg.Register("work", "tl.go", 2, region.Task)
	tr := &Trace{Threads: map[int][]Event{
		0: {
			{Time: 0, Type: EvThreadBegin},
			{Time: 40, Type: EvEnter, Region: bar},
			{Time: 50, Type: EvTaskBegin, Region: task, TaskID: 1},
			{Time: 90, Type: EvTaskEnd, Region: task, TaskID: 1},
			{Time: 100, Type: EvExit, Region: bar},
			{Time: 100, Type: EvThreadEnd},
		},
	}}
	return tr, reg
}

func TestThreadIntervals(t *testing.T) {
	tr, _ := buildHandTrace()
	ivs := threadIntervals(tr.Threads[0])
	want := []interval{
		{0, 40, laneCompute},
		{40, 50, laneSync},
		{50, 90, laneTask},
		{90, 100, laneSync},
	}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %+v", ivs)
	}
	for i, w := range want {
		if ivs[i] != w {
			t.Errorf("interval %d = %+v, want %+v", i, ivs[i], w)
		}
	}
}

func TestRenderTimelineGlyphs(t *testing.T) {
	tr, _ := buildHandTrace()
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, tr, TimelineOptions{Width: 10, ShowLegend: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// 100 time units over 10 buckets: 0-3 compute '-', 4 sync '.',
	// 5-8 task '#', 9 sync '.'.
	if !strings.Contains(out, "|----.####.|") {
		t.Errorf("unexpected lane:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Error("legend missing")
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, &Trace{Threads: map[int][]Event{}}, TimelineOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty trace") {
		t.Error("empty trace not handled")
	}
}

func TestComputeUtilization(t *testing.T) {
	tr, _ := buildHandTrace()
	us := ComputeUtilization(tr)
	if len(us) != 1 {
		t.Fatalf("utilization rows = %d", len(us))
	}
	u := us[0]
	if u.TotalNs != 100 {
		t.Errorf("total = %d", u.TotalNs)
	}
	if u.TaskPct != 40 {
		t.Errorf("task%% = %f, want 40", u.TaskPct)
	}
	if u.SyncPct != 20 {
		t.Errorf("sync%% = %f, want 20", u.SyncPct)
	}
	if u.OtherPct != 40 {
		t.Errorf("other%% = %f, want 40", u.OtherPct)
	}
	var buf bytes.Buffer
	FormatUtilization(&buf, us)
	if !strings.Contains(buf.String(), "thread") {
		t.Error("format broken")
	}
}

func TestTimelineFromLiveRun(t *testing.T) {
	reg := region.NewRegistry()
	rec, sink := newCollectingRecorder(clock.NewSystem())
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	par := reg.Register("par", "tl.go", 1, region.Parallel)
	task := reg.Register("work", "tl.go", 2, region.Task)
	rt.Parallel(4, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 64; i++ {
				th.NewTask(task, func(*omp.Thread) {
					s := 0
					for j := 0; j < 50000; j++ {
						s += j
					}
					_ = s
				})
			}
		}
	})
	rec.Finish()
	tr := sink.trace()
	var buf bytes.Buffer
	if err := RenderTimeline(&buf, tr, TimelineOptions{Width: 60}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#") {
		t.Error("no task execution visible in timeline")
	}
	lanes := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "thread ") {
			lanes++
		}
	}
	if lanes != 4 {
		t.Errorf("lanes = %d, want 4", lanes)
	}
	us := ComputeUtilization(tr)
	var taskSum float64
	for _, u := range us {
		taskSum += u.TaskPct
	}
	if taskSum <= 0 {
		t.Error("no task utilization measured")
	}
}

func TestNestedTaskIntervalsStayTask(t *testing.T) {
	reg := region.NewRegistry()
	bar := reg.Register("bar", "tl.go", 1, region.ImplicitBarrier)
	tw := reg.Register("tw", "tl.go", 2, region.Taskwait)
	task := reg.Register("work", "tl.go", 3, region.Task)
	tr := &Trace{Threads: map[int][]Event{
		0: {
			{Time: 0, Type: EvEnter, Region: bar},
			{Time: 0, Type: EvTaskBegin, Region: task, TaskID: 1},
			{Time: 10, Type: EvEnter, Region: tw},
			{Time: 10, Type: EvTaskBegin, Region: task, TaskID: 2},
			{Time: 30, Type: EvTaskEnd, Region: task, TaskID: 2},
			{Time: 30, Type: EvTaskSwitch, Region: task, TaskID: 1},
			{Time: 35, Type: EvExit, Region: tw},
			{Time: 40, Type: EvTaskEnd, Region: task, TaskID: 1},
			{Time: 45, Type: EvExit, Region: bar},
		},
	}}
	ivs := threadIntervals(tr.Threads[0])
	// 0..40 must be laneTask throughout (nested execution), 40..45 sync.
	for _, iv := range ivs {
		if iv.start < 40 && iv.state != laneTask {
			t.Errorf("interval %+v should be task", iv)
		}
		if iv.start >= 40 && iv.state != laneSync {
			t.Errorf("interval %+v should be sync", iv)
		}
	}
}
