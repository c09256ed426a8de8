package analyze

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cube"
	"repro/internal/region"
)

// buildProfile constructs a deterministic profile: nThreads locations,
// tasksPerThread instances of taskNs each with createNs creation time,
// plus idleNs of pure barrier waiting per thread.
func buildProfile(nThreads, tasksPerThread int, taskNs, createNs, idleNs int64, singleCreator bool) *cube.Report {
	reg := region.NewRegistry()
	par := reg.Register("par", "a.go", 1, region.Parallel)
	bar := reg.Register("bar", "a.go", 2, region.ImplicitBarrier)
	task := reg.Register("work", "a.go", 3, region.Task)
	create := reg.Register("work (create)", "a.go", 3, region.TaskCreate)

	var locs []*core.ThreadProfile
	for tid := 0; tid < nThreads; tid++ {
		clk := clock.NewManual(0)
		p := core.NewThreadProfile(tid, clk)
		p.EnterAt(par, clk.Now())
		if !singleCreator || tid == 0 {
			creations := tasksPerThread
			if singleCreator {
				creations = tasksPerThread * nThreads
			}
			for i := 0; i < creations; i++ {
				p.EnterAt(create, clk.Now())
				clk.Advance(createNs)
				p.ExitAt(create, clk.Now())
			}
		}
		p.EnterAt(bar, clk.Now())
		for i := 0; i < tasksPerThread; i++ {
			p.TaskBeginAt(task, clk.Now())
			clk.Advance(taskNs)
			p.TaskEndAt(clk.Now())
		}
		clk.Advance(idleNs)
		p.ExitAt(bar, clk.Now())
		p.ExitAt(par, clk.Now())
		p.Finish()
		locs = append(locs, p)
	}
	return cube.Aggregate(locs)
}

func kinds(fs []Finding) map[Kind]bool {
	m := make(map[Kind]bool)
	for _, f := range fs {
		m[f.Kind] = true
	}
	return m
}

func TestHealthyProfileHasNoFindings(t *testing.T) {
	// Coarse tasks (1ms), cheap creation (1µs), little idling.
	rep := buildProfile(4, 50, 1_000_000, 1_000, 10_000, false)
	fs := Analyze(rep, Thresholds{})
	if len(fs) != 0 {
		var buf bytes.Buffer
		Format(&buf, fs)
		t.Errorf("unexpected findings:\n%s", buf.String())
	}
}

func TestSmallTasksDetected(t *testing.T) {
	// Tiny tasks (1µs) with creation cost of the same order, inside the
	// task construct tree (creation inside tasks like nqueens would be;
	// here creation is on the implicit path so SmallTasks relies on
	// taskwait/create inside the tree — emulate with create inside task).
	reg := region.NewRegistry()
	bar := reg.Register("bar", "a.go", 1, region.ImplicitBarrier)
	task := reg.Register("work", "a.go", 2, region.Task)
	create := reg.Register("work (create)", "a.go", 2, region.TaskCreate)
	clk := clock.NewManual(0)
	p := core.NewThreadProfile(0, clk)
	p.EnterAt(bar, clk.Now())
	for i := 0; i < 1000; i++ {
		p.TaskBeginAt(task, clk.Now())
		p.EnterAt(create, clk.Now()) // tasks creating children, paying creation cost
		clk.Advance(900)
		p.ExitAt(create, clk.Now())
		clk.Advance(1000) // own work
		p.TaskEndAt(clk.Now())
	}
	p.ExitAt(bar, clk.Now())
	p.Finish()
	rep := cube.Aggregate([]*core.ThreadProfile{p})

	fs := Analyze(rep, Thresholds{})
	k := kinds(fs)
	if !k[SmallTasks] {
		var buf bytes.Buffer
		Format(&buf, fs)
		t.Errorf("SmallTasks not detected:\n%s", buf.String())
	}
	if !k[CreationDominates] {
		t.Error("CreationDominates not detected (47% creation share)")
	}
}

func TestSingleCreatorDetected(t *testing.T) {
	rep := buildProfile(8, 20, 1_000_000, 1_000, 0, true)
	fs := Analyze(rep, Thresholds{})
	if !kinds(fs)[SingleCreator] {
		t.Error("SingleCreator not detected for 1-of-8 creator")
	}
}

func TestBarrierWaitingDetected(t *testing.T) {
	// 50µs of tasks vs 200µs idle per thread.
	rep := buildProfile(4, 5, 10_000, 100, 200_000, false)
	fs := Analyze(rep, Thresholds{})
	if !kinds(fs)[BarrierWaiting] {
		t.Error("BarrierWaiting not detected")
	}
}

func TestLargeTasksDetected(t *testing.T) {
	// One coarse task per thread for 8 threads.
	rep := buildProfile(8, 1, 5_000_000, 1_000, 0, false)
	fs := Analyze(rep, Thresholds{})
	if !kinds(fs)[LargeTasks] {
		t.Error("LargeTasks not detected for 1 task/thread")
	}
}

func TestDeepConcurrencyDetected(t *testing.T) {
	reg := region.NewRegistry()
	bar := reg.Register("bar", "a.go", 1, region.ImplicitBarrier)
	task := reg.Register("work", "a.go", 2, region.Task)
	clk := clock.NewManual(0)
	p := core.NewThreadProfile(0, clk)
	p.EnterAt(bar, clk.Now())
	// Nest 100 suspended instances.
	var open []*core.TaskInstance
	for i := 0; i < 100; i++ {
		open = append(open, p.TaskBeginAt(task, clk.Now()))
		clk.Advance(10)
	}
	for i := len(open) - 1; i >= 0; i-- {
		p.TaskEndAt(clk.Now())
		if i > 0 {
			p.TaskSwitchToAt(open[i-1], clk.Now())
		}
	}
	p.ExitAt(bar, clk.Now())
	p.Finish()
	rep := cube.Aggregate([]*core.ThreadProfile{p})
	fs := Analyze(rep, Thresholds{})
	if !kinds(fs)[DeepConcurrency] {
		t.Error("DeepConcurrency not detected at 100 nested instances")
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	rep := buildProfile(8, 1, 5_000_000, 1_000, 50_000_000, true)
	fs := Analyze(rep, Thresholds{})
	for i := 1; i < len(fs); i++ {
		if fs[i].Severity > fs[i-1].Severity {
			t.Errorf("findings not sorted: %f after %f", fs[i].Severity, fs[i-1].Severity)
		}
	}
}

func TestFormatOutput(t *testing.T) {
	var buf bytes.Buffer
	Format(&buf, nil)
	if !strings.Contains(buf.String(), "no tasking inefficiencies") {
		t.Error("empty findings text wrong")
	}
	buf.Reset()
	Format(&buf, []Finding{{
		Kind: SmallTasks, Severity: 0.9, Construct: "fib.task",
		Evidence: "e", Hint: "h",
	}})
	out := buf.String()
	for _, want := range []string{"SMALL_TASKS", "fib.task", "evidence: e", "hint:     h"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q in %q", want, out)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := SmallTasks; k <= DeepConcurrency; k++ {
		if strings.HasPrefix(k.String(), "KIND(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if Kind(42).String() != "KIND(42)" {
		t.Error("fallback broken")
	}
}
