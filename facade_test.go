package scorep_test

import (
	"bytes"
	"strings"
	"testing"

	scorep "repro"
	"repro/internal/trace"
)

// TestFacadeTraceAndTimeline exercises what the tools do with a
// session's recording: analysis, JSONL dump, timeline,
// utilization.
func TestFacadeTraceAndTimeline(t *testing.T) {
	par := scorep.RegisterRegion("fa.parallel", "facade_test.go", 1, scorep.RegionParallel)
	task := scorep.RegisterRegion("fa.task", "facade_test.go", 2, scorep.RegionTask)
	tw := scorep.RegisterRegion("fa.taskwait", "facade_test.go", 3, scorep.RegionTaskwait)

	s := scorep.NewSession(scorep.WithTracing())
	s.Parallel(2, par, func(th *scorep.Thread) {
		if th.ID == 0 {
			for i := 0; i < 16; i++ {
				th.NewTask(task, func(c *scorep.Thread) {
					scorep.ParameterString(c, "kind", "unit")
					s := 0
					for j := 0; j < 5000; j++ {
						s += j
					}
					_ = s
				})
			}
			th.Taskwait(tw)
		}
	})
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace()

	a := res.TraceAnalysis()
	if a.TaskExecution.Count != 16 {
		t.Errorf("trace analysis fragments = %d, want 16", a.TaskExecution.Count)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != tr.NumEvents() {
		t.Errorf("trace JSONL dump has %d lines for %d events", lines, tr.NumEvents())
	}

	var tl bytes.Buffer
	if err := trace.RenderTimeline(&tl, tr, trace.TimelineOptions{Width: 40, ShowLegend: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl.String(), "#") {
		t.Error("timeline shows no task execution")
	}
	us := trace.ComputeUtilization(tr)
	if len(us) != 2 {
		t.Errorf("utilization rows = %d", len(us))
	}
}

// TestFacadeFilterAndDiff exercises WithFilter, DiffReports and
// AnalyzeReport through the facade.
func TestFacadeFilterAndDiff(t *testing.T) {
	par := scorep.RegisterRegion("fb.parallel", "facade_test.go", 10, scorep.RegionParallel)
	task := scorep.RegisterRegion("fb.task", "facade_test.go", 11, scorep.RegionTask)
	tw := scorep.RegisterRegion("fb.taskwait", "facade_test.go", 12, scorep.RegionTaskwait)
	noisy := scorep.RegisterRegion("noisy_helper", "facade_test.go", 13, scorep.RegionFunction)

	runOnce := func(tasks int, filtered bool) *scorep.Report {
		var opts []scorep.Option
		if filtered {
			opts = append(opts, scorep.WithFilter("noisy_*"))
		}
		s := scorep.NewSession(opts...)
		s.Parallel(2, par, func(th *scorep.Thread) {
			if th.ID == 0 {
				for i := 0; i < tasks; i++ {
					th.NewTask(task, func(c *scorep.Thread) {
						scorep.InstrumentFunction(c, noisy, func() {})
					})
				}
				th.Taskwait(tw)
			}
		})
		res, err := s.End()
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}

	unfiltered := runOnce(8, false)
	filtered := runOnce(8, true)
	if unfiltered.TaskTree("fb.task").Find("noisy_helper") == nil {
		t.Error("unfiltered run missing helper region")
	}
	if filtered.TaskTree("fb.task").Find("noisy_helper") != nil {
		t.Error("filter did not exclude helper region")
	}

	bigger := runOnce(32, false)
	rd := scorep.DiffReports(unfiltered, bigger)
	found := false
	for _, d := range rd.TopRegressions(10) {
		if d.Name == "fb.task" && d.DeltaVisits() == 24 {
			found = true
		}
	}
	if !found {
		t.Error("diff did not surface the 24 extra task visits")
	}
	var buf bytes.Buffer
	if err := scorep.RenderReportDiff(&buf, rd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "TASK TREE DIFFS") {
		t.Error("diff render incomplete")
	}

	findings := scorep.AnalyzeReport(unfiltered)
	var fbuf bytes.Buffer
	scorep.FormatFindings(&fbuf, findings)
	if fbuf.Len() == 0 {
		t.Error("findings formatting produced nothing")
	}
}

// TestFacadeSchedulerKinds checks the scheduler re-exports.
func TestFacadeSchedulerKinds(t *testing.T) {
	par := scorep.RegisterRegion("fc.parallel", "facade_test.go", 20, scorep.RegionParallel)
	task := scorep.RegisterRegion("fc.task", "facade_test.go", 21, scorep.RegionTask)
	for _, sched := range []scorep.SchedulerKind{scorep.SchedCentralQueue, scorep.SchedWorkStealing} {
		s := scorep.NewSession(scorep.WithoutProfiling(), scorep.WithScheduler(sched))
		ran := 0
		s.Parallel(2, par, func(th *scorep.Thread) {
			if th.ID == 0 {
				th.NewTask(task, func(*scorep.Thread) { ran++ })
			}
		})
		if ran != 1 {
			t.Errorf("sched=%v: task did not run", sched)
		}
	}
}

// TestFacadeTeamStats checks that the scheduler-observability counters
// surface through the facade's TeamStats re-export.
func TestFacadeTeamStats(t *testing.T) {
	par := scorep.RegisterRegion("fs.parallel", "facade_test.go", 30, scorep.RegionParallel)
	task := scorep.RegisterRegion("fs.task", "facade_test.go", 31, scorep.RegionTask)
	s := scorep.NewSession(scorep.WithoutProfiling(), scorep.WithScheduler(scorep.SchedWorkStealing))
	s.Parallel(2, par, func(th *scorep.Thread) {
		for i := 0; i < 10; i++ {
			th.NewTask(task, func(*scorep.Thread) {})
		}
	})
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	var st scorep.TeamStats = res.TeamStats()
	if st.TasksCreated != 20 {
		t.Errorf("TasksCreated = %d, want 20", st.TasksCreated)
	}
	if len(st.ThreadSteals) != 2 {
		t.Errorf("ThreadSteals has %d entries, want one per thread (2)", len(st.ThreadSteals))
	}
	if st.StealAttempts < st.Steals {
		t.Errorf("StealAttempts = %d < Steals = %d", st.StealAttempts, st.Steals)
	}
}
