package measure

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/cube"
	"repro/internal/omp"
	"repro/internal/pomp"
	"repro/internal/region"
)

func TestFilterExcludesUserRegions(t *testing.T) {
	reg := region.NewRegistry()
	m := NewWithClock(clock.NewSystem(), reg)
	f := NewFilter(m, "tiny_*", "exact_fn")
	rt := omp.NewRuntimeWithRegistry(f, reg)

	par := reg.Register("par", "f.go", 1, region.Parallel)
	keep := reg.Register("keep_me", "f.go", 2, region.UserFunction)
	tiny := reg.Register("tiny_helper", "f.go", 3, region.UserFunction)
	exact := reg.Register("exact_fn", "f.go", 4, region.UserFunction)

	rt.Parallel(1, par, func(th *omp.Thread) {
		pomp.Function(th, keep, func() {})
		pomp.Function(th, tiny, func() {})
		pomp.Function(th, exact, func() {})
	})
	m.Finish()
	rep := cube.Aggregate(m.Locations())
	parN := rep.Main.Find("par")
	if parN.Find("keep_me") == nil {
		t.Error("kept region missing")
	}
	if parN.Find("tiny_helper") != nil {
		t.Error("prefix-excluded region recorded")
	}
	if parN.Find("exact_fn") != nil {
		t.Error("exactly-excluded region recorded")
	}
}

func TestFilterNeverExcludesConstructs(t *testing.T) {
	reg := region.NewRegistry()
	m := NewWithClock(clock.NewSystem(), reg)
	// A pathological filter matching everything by prefix.
	f := NewFilter(m, "*")
	rt := omp.NewRuntimeWithRegistry(f, reg)

	par := reg.Register("par", "f.go", 1, region.Parallel)
	task := reg.Register("work", "f.go", 2, region.Task)
	tw := reg.Register("tw", "f.go", 3, region.Taskwait)
	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			th.NewTask(task, func(*omp.Thread) {})
			th.Taskwait(tw)
		}
	})
	m.Finish()
	rep := cube.Aggregate(m.Locations())
	if rep.Main.Find("par") == nil {
		t.Error("parallel region filtered (must never be)")
	}
	if rep.TaskTree("work") == nil {
		t.Error("task construct filtered (must never be)")
	}
	if rep.Main.FindPath("par", "tw") == nil {
		t.Error("taskwait filtered (must never be)")
	}
}

func TestFilterExcludedPredicate(t *testing.T) {
	reg := region.NewRegistry()
	m := NewWithClock(clock.NewSystem(), reg)
	if NewFilter(m, "a*", "b") != m {
		t.Fatal("NewFilter returned another listener than the measurement")
	}
	cases := []struct {
		name string
		typ  region.Type
		want bool
	}{
		{"abc", region.UserFunction, true},
		{"a", region.UserFunction, true},
		{"b", region.UserFunction, true},
		{"bc", region.UserFunction, false},
		{"abc", region.Task, false}, // constructs never excluded
	}
	for _, c := range cases {
		r := reg.Register(c.name, "f.go", 1, c.typ)
		if got := m.excluded(r); got != c.want {
			t.Errorf("Excluded(%s %s) = %v, want %v", c.name, c.typ, got, c.want)
		}
		if NewFilter(NewWithClock(clock.NewSystem(), reg)).excluded(r) {
			t.Errorf("a measurement given no patterns excludes %s", c.name)
		}
	}
}

func TestFilterKeepsProfileConsistent(t *testing.T) {
	// Filtering a function that wraps task creation must not disturb the
	// task profiling algorithm (events inside remain balanced).
	reg := region.NewRegistry()
	m := NewWithClock(clock.NewSystem(), reg)
	f := NewFilter(m, "wrapper")
	rt := omp.NewRuntimeWithRegistry(f, reg)

	par := reg.Register("par", "f.go", 1, region.Parallel)
	wrapper := reg.Register("wrapper", "f.go", 2, region.UserFunction)
	task := reg.Register("work", "f.go", 3, region.Task)
	tw := reg.Register("tw", "f.go", 4, region.Taskwait)

	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			pomp.Function(th, wrapper, func() {
				for i := 0; i < 10; i++ {
					th.NewTask(task, func(c *omp.Thread) {
						pomp.Function(c, wrapper, func() {})
					})
				}
				th.Taskwait(tw)
			})
		}
	})
	m.Finish() // would panic on unbalanced events
	rep := cube.Aggregate(m.Locations())
	if tree := rep.TaskTree("work"); tree == nil || tree.Dur.Count != 10 {
		t.Errorf("task tree wrong under filtering: %+v", tree)
	}
}
