package pomp

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/cube"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
)

func setup(t *testing.T) (*measure.Measurement, *omp.Runtime, *region.Registry) {
	t.Helper()
	reg := region.NewRegistry()
	m := measure.NewWithClock(clock.NewSystem(), reg)
	rt := omp.NewRuntimeWithRegistry(m, reg)
	return m, rt, reg
}

func TestFunctionWrapperRecordsRegion(t *testing.T) {
	m, rt, reg := setup(t)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	fn := reg.Register("compute", "p.go", 2, region.UserFunction)
	calls := 0
	rt.Parallel(1, par, func(th *omp.Thread) {
		for i := 0; i < 3; i++ {
			Function(th, fn, func() { calls++ })
		}
	})
	m.Finish()
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	rep := cube.Aggregate(m.Locations())
	n := rep.Main.FindPath("par", "compute")
	if n == nil || n.Visits != 3 {
		t.Errorf("compute node missing or wrong visits: %+v", n)
	}
}

func TestFunctionWrapperUninstrumentedIsTransparent(t *testing.T) {
	reg := region.NewRegistry()
	rt := omp.NewRuntimeWithRegistry(nil, reg)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	fn := reg.Register("compute", "p.go", 2, region.UserFunction)
	calls := 0
	rt.Parallel(1, par, func(th *omp.Thread) {
		Function(th, fn, func() { calls++ })
		th.Enter(fn) // raw events must be no-ops without a listener
		th.Exit(fn)
		ParameterInt(th, "x", 1)
	})
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

func TestTaskAndTaskwaitWrappers(t *testing.T) {
	m, rt, reg := setup(t)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	task := reg.Register("t", "p.go", 2, region.Task)
	tw := reg.Register("tw", "p.go", 3, region.Taskwait)
	ran := 0
	rt.Parallel(1, par, func(th *omp.Thread) {
		th.NewTask(task, func(*omp.Thread) { ran++ })
		th.Taskwait(tw)
	})
	m.Finish()
	if ran != 1 {
		t.Fatalf("task did not run")
	}
	rep := cube.Aggregate(m.Locations())
	if rep.TaskTree("t") == nil {
		t.Error("no task tree via wrapper")
	}
	if rep.Main.FindPath("par", "tw") == nil {
		t.Error("no taskwait node via wrapper")
	}
}

func TestParameterWrapperInsideTask(t *testing.T) {
	m, rt, reg := setup(t)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	task := reg.Register("t", "p.go", 2, region.Task)
	tw := reg.Register("tw", "p.go", 3, region.Taskwait)
	rt.Parallel(1, par, func(th *omp.Thread) {
		for i := 0; i < 4; i++ {
			v := int64(i % 2)
			th.NewTask(task, func(c *omp.Thread) { ParameterInt(c, "lvl", v) })
		}
		th.Taskwait(tw)
	})
	m.Finish()
	rep := cube.Aggregate(m.Locations())
	ps := cube.ParamChildren(rep.TaskTree("t"), "lvl")
	if len(ps) != 2 || ps[0].Dur.Count != 2 || ps[1].Dur.Count != 2 {
		t.Errorf("parameter split wrong: %d children", len(ps))
	}
}

func TestConstructWrappers(t *testing.T) {
	m, rt, reg := setup(t)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	bar := reg.Register("bar", "p.go", 2, region.Barrier)
	single := reg.Register("sgl", "p.go", 3, region.Single)
	master := reg.Register("mst", "p.go", 4, region.Master)
	crit := reg.Register("crt", "p.go", 5, region.Critical)
	loop := reg.Register("lp", "p.go", 6, region.Loop)

	var singles, masters, iters int64
	rt.Parallel(2, par, func(th *omp.Thread) {
		th.Single(single, func(*omp.Thread) { singles++ })
		th.Barrier(bar)
		th.Master(master, func(*omp.Thread) { masters++ })
		th.Critical(crit, func(*omp.Thread) { iters++ })
		th.For(loop, 10, func(_ *omp.Thread, i int) {
			th.Critical(crit, func(*omp.Thread) { iters++ })
		})
		th.Barrier(bar)
	})
	m.Finish()
	if singles != 1 || masters != 1 || iters != 12 {
		t.Errorf("singles=%d masters=%d iters=%d", singles, masters, iters)
	}
	rep := cube.Aggregate(m.Locations())
	parN := rep.Main.Find("par")
	for _, name := range []string{"bar", "sgl", "crt", "lp"} {
		if parN.Find(name) == nil {
			t.Errorf("main tree missing %s node", name)
		}
	}
	// master runs on thread 0 only.
	if mst := parN.Find("mst"); mst == nil || mst.PerThreadVisits[0] != 1 || mst.PerThreadVisits[1] != 0 {
		t.Error("master visits wrong")
	}
}

func TestRawEnterExitAndStringParam(t *testing.T) {
	m, rt, reg := setup(t)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	fn := reg.Register("manual", "p.go", 2, region.UserFunction)
	task := reg.Register("t", "p.go", 3, region.Task)
	tw := reg.Register("tw", "p.go", 4, region.Taskwait)
	rt.Parallel(1, par, func(th *omp.Thread) {
		th.Enter(fn)
		th.Exit(fn)
		th.NewTask(task, func(c *omp.Thread) { ParameterString(c, "mode", "fast") })
		th.Taskwait(tw)
	})
	m.Finish()
	rep := cube.Aggregate(m.Locations())
	if rep.Main.FindPath("par", "manual") == nil {
		t.Error("raw enter/exit not recorded")
	}
	if rep.TaskTree("t").Find("mode=fast") == nil {
		t.Error("string parameter not recorded")
	}
}

func TestTaskyieldWrapper(t *testing.T) {
	m, rt, reg := setup(t)
	par := reg.Register("par", "p.go", 1, region.Parallel)
	task := reg.Register("t", "p.go", 2, region.Task)
	ty := reg.Register("yield", "p.go", 3, region.Taskwait)
	ran := 0
	rt.Parallel(1, par, func(th *omp.Thread) {
		th.NewTask(task, func(c *omp.Thread) {
			c.NewTask(task, func(*omp.Thread) { ran++ })
			c.Taskyield(ty)
		})
	})
	m.Finish()
	if ran != 1 {
		t.Errorf("taskyield did not run queued child")
	}
	rep := cube.Aggregate(m.Locations())
	tree := rep.TaskTree("t")
	if tree == nil || tree.Find("yield") == nil {
		t.Error("taskyield region missing from task tree")
	}
}
