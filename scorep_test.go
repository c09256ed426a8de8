package scorep_test

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	scorep "repro"
	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// analyzeTrace is the reference trace analysis of the part of tr
// matching q on workers goroutines, which every analysis accessor of
// Results and Experiment must equal.
func analyzeTrace(tr *scorep.Trace, q scorep.TraceQuery, workers int) *scorep.TraceAnalysis {
	a := trace.NewAnalyzer()
	trace.Scan(tr, q, workers, a)
	return a.Finish()
}

// analyzeBottlenecks is analyzeTrace's twin for the bottleneck analysis.
func analyzeBottlenecks(tr *scorep.Trace, q scorep.TraceQuery, workers int) *scorep.BottleneckAnalysis {
	c := bottleneck.NewCollector()
	trace.Scan(tr, q, workers, c)
	return c.Finish()
}

// loadArchive decodes a whole binary trace archive held in memory.
func loadArchive(t *testing.T, b []byte) *scorep.Trace {
	t.Helper()
	tr, _, err := otf2.Load(bytes.NewReader(b), region.NewRegistry(), scorep.TraceQuery{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestPublicAPIEndToEnd exercises the documented quickstart flow through
// the facade only: session, instrumentation, report, serialization.
func TestPublicAPIEndToEnd(t *testing.T) {
	par := scorep.RegisterRegion("api.parallel", "api_test.go", 1, scorep.RegionParallel)
	task := scorep.RegisterRegion("api.task", "api_test.go", 2, scorep.RegionTask)
	tw := scorep.RegisterRegion("api.taskwait", "api_test.go", 3, scorep.RegionTaskwait)
	work := scorep.RegisterRegion("api.work", "api_test.go", 4, scorep.RegionFunction)

	s := scorep.NewSession()
	var done atomic.Int64
	s.Parallel(4, par, func(th *scorep.Thread) {
		if th.ID != 0 {
			return
		}
		for i := 0; i < 32; i++ {
			i := i
			th.NewTask(task, func(c *scorep.Thread) {
				scorep.ParameterInt(c, "bucket", int64(i%4))
				scorep.InstrumentFunction(c, work, func() {
					s := 0
					for j := 0; j < 1000; j++ {
						s += j
					}
					_ = s
					done.Add(1)
				})
			})
		}
		th.Taskwait(tw)
	})
	if done.Load() != 32 {
		t.Fatalf("tasks done = %d", done.Load())
	}
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	rep := scorep.AggregateReport(res.Locations())

	tree := rep.TaskTree("api.task")
	if tree == nil || tree.Dur.Count != 32 {
		t.Fatalf("task tree wrong: %+v", tree)
	}

	var text bytes.Buffer
	if err := scorep.RenderReport(&text, rep, scorep.RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "api.task") {
		t.Error("render missing task construct")
	}

	var js bytes.Buffer
	if err := scorep.WriteReportJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	back, err := scorep.ReadReportJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if back.TaskTree("api.task") == nil || back.TaskTree("api.task").Dur.Count != 32 {
		t.Error("JSON round trip lost task tree")
	}

	var csv bytes.Buffer
	if err := scorep.WriteReportCSV(&csv, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "api.work") {
		t.Error("CSV missing instrumented function")
	}
}

// TestTaskClausesThroughFacade checks If/Final/Untied re-exports.
func TestTaskClausesThroughFacade(t *testing.T) {
	par := scorep.RegisterRegion("api2.parallel", "api_test.go", 10, scorep.RegionParallel)
	task := scorep.RegisterRegion("api2.task", "api_test.go", 11, scorep.RegionTask)

	s := scorep.NewSession(scorep.WithoutProfiling())
	rt := s.Runtime()
	ran := 0
	rt.Parallel(1, par, func(th *scorep.Thread) {
		th.NewTask(task, func(*scorep.Thread) { ran++ }, scorep.If(false))
		if ran != 1 {
			t.Error("if(false) task not undeferred")
		}
		th.NewTask(task, func(c *scorep.Thread) {
			c.NewTask(task, func(*scorep.Thread) { ran++ })
			if ran != 2 {
				t.Error("final-context child not inline")
			}
		}, scorep.Final(true), scorep.Untied())
	})
	if rt.UntiedCount() != 1 {
		t.Errorf("untied demotions = %d", rt.UntiedCount())
	}
}

// TestManualClockMeasurement verifies deterministic measurement through
// the session's clock injection.
func TestManualClockMeasurement(t *testing.T) {
	clk := clock.NewManual(0)
	s := scorep.NewSession(scorep.WithClock(clk))
	par := scorep.RegisterRegion("api3.parallel", "api_test.go", 20, scorep.RegionParallel)
	work := scorep.RegisterRegion("api3.work", "api_test.go", 21, scorep.RegionFunction)
	s.Parallel(1, par, func(th *scorep.Thread) {
		scorep.InstrumentFunction(th, work, func() { clk.Advance(123) })
	})
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	n := res.Report().Main.FindPath("api3.parallel", "api3.work")
	if n == nil || n.Dur.Sum != 123 {
		t.Fatalf("manual-clock work time wrong: %+v", n)
	}
}
