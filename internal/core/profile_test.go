package core

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/region"
)

func TestParameterSplitsSubtree(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk

	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	// Three instances at depth 1, two at depth 2, with different runtimes.
	for i, d := range []int64{1, 1, 1, 2, 2} {
		p.TaskBeginAt(f.task, clk.Now())
		p.ParameterInt("depth", d)
		clk.Advance(int64(10 * (i + 1)))
		p.TaskEndAt(clk.Now())
	}
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	tree := p.TaskRoot(f.task)
	d1 := tree.FindParam("depth", 1)
	d2 := tree.FindParam("depth", 2)
	if d1 == nil || d2 == nil {
		t.Fatal("missing parameter nodes")
	}
	if d1.Dur.Count != 3 || d1.Dur.Sum != 10+20+30 {
		t.Errorf("depth=1: count=%d sum=%d, want 3/60", d1.Dur.Count, d1.Dur.Sum)
	}
	if d2.Dur.Count != 2 || d2.Dur.Sum != 40+50 {
		t.Errorf("depth=2: count=%d sum=%d, want 2/90", d2.Dur.Count, d2.Dur.Sum)
	}
	if d1.Dur.Min != 10 || d1.Dur.Max != 30 {
		t.Errorf("depth=1 min/max = %d/%d, want 10/30", d1.Dur.Min, d1.Dur.Max)
	}
}

func TestParameterNestsChildren(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	p.TaskBeginAt(f.task, clk.Now())
	p.ParameterInt("depth", 7)
	p.EnterAt(f.foo, clk.Now()) // must land under the parameter node
	clk.Advance(4)
	p.ExitAt(f.foo, clk.Now())
	p.TaskEndAt(clk.Now())
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	d7 := p.TaskRoot(f.task).FindParam("depth", 7)
	if d7 == nil {
		t.Fatal("no parameter node")
	}
	fooN := d7.FindChild(f.foo)
	if fooN == nil || fooN.Dur.Sum != 4 {
		t.Fatalf("foo not nested under parameter node: %+v", fooN)
	}
}

func TestParameterStringSplitsSubtree(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.barR, clk.Now())
	for i, phase := range []string{"init", "solve", "init", "solve", "solve"} {
		p.TaskBeginAt(f.task, clk.Now())
		p.ParameterString("phase", phase)
		clk.Advance(int64(10 * (i + 1)))
		p.TaskEndAt(clk.Now())
	}
	p.ExitAt(f.barR, clk.Now())
	p.Finish()

	tree := p.TaskRoot(f.task)
	var initN, solveN *Node
	for _, c := range tree.Children {
		if c.Kind == KindParameter && c.ParamStr == "init" {
			initN = c
		}
		if c.Kind == KindParameter && c.ParamStr == "solve" {
			solveN = c
		}
	}
	if initN == nil || solveN == nil {
		t.Fatal("missing string parameter nodes")
	}
	if initN.Dur.Count != 2 || initN.Dur.Sum != 10+30 {
		t.Errorf("init: %+v", initN.Dur)
	}
	if solveN.Dur.Count != 3 || solveN.Dur.Sum != 20+40+50 {
		t.Errorf("solve: %+v", solveN.Dur)
	}
	if initN.Name() != "phase=init" {
		t.Errorf("name = %q", initN.Name())
	}
}

func TestMixedParameterTypesStayDistinct(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.barR, clk.Now())
	p.TaskBeginAt(f.task, clk.Now())
	p.ParameterInt("x", 0)
	clk.Advance(5)
	p.TaskEndAt(clk.Now())
	p.TaskBeginAt(f.task, clk.Now())
	p.ParameterString("x", "0")
	clk.Advance(7)
	p.TaskEndAt(clk.Now())
	p.ExitAt(f.barR, clk.Now())
	p.Finish()
	tree := p.TaskRoot(f.task)
	if len(tree.Children) != 2 {
		t.Fatalf("children = %d, want 2 (int and string params distinct)", len(tree.Children))
	}
}

func TestMaxActiveInstancesCounting(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	// Nest three suspended instances (recursion depth 3), like the
	// recursive BOTS codes; max concurrent instance trees = 3 (Table II).
	a := p.TaskBeginAt(f.task, clk.Now())
	b := p.TaskBeginAt(f.task, clk.Now())
	c := p.TaskBeginAt(f.task, clk.Now())
	_ = a
	if p.ActiveInstances() != 3 {
		t.Errorf("active = %d, want 3", p.ActiveInstances())
	}
	p.TaskEndAt(clk.Now()) // c
	_ = c
	p.TaskSwitchToAt(b, clk.Now())
	p.TaskEndAt(clk.Now()) // b
	p.TaskSwitchToAt(a, clk.Now())
	p.TaskEndAt(clk.Now()) // a
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	if p.MaxActiveInstances() != 3 {
		t.Errorf("max active = %d, want 3", p.MaxActiveInstances())
	}
	perPar := p.MaxActivePerParallel()
	if perPar[f.par] != 3 {
		t.Errorf("per-parallel max = %d, want 3", perPar[f.par])
	}
	if p.InstancesBegun() != 3 || p.InstancesEnded() != 3 {
		t.Errorf("instances begun/ended = %d/%d", p.InstancesBegun(), p.InstancesEnded())
	}
}

func TestInstanceRecyclingBoundsAllocation(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	// An instance whose root has two children: the recycled root must
	// come back with room for both.
	cycle := func() {
		p.TaskBeginAt(f.task, clk.Now())
		p.EnterAt(f.foo, clk.Now())
		clk.Advance(1)
		p.ExitAt(f.foo, clk.Now())
		p.EnterAt(f.bar, clk.Now())
		clk.Advance(1)
		p.ExitAt(f.bar, clk.Now())
		p.TaskEndAt(clk.Now())
	}
	for i := 0; i < 10000; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a steady-state task cycle allocates %v times, want 0", a)
	}
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	if p.InstancesAllocated() != 1 {
		t.Errorf("instances allocated = %d, want 1 (recycled)", p.InstancesAllocated())
	}
	// Nodes: thread root + par + barrier + stub + merged tree(3) + one
	// working set for the live instance (3). Anything near the task count
	// means pooling is broken.
	if p.NodesAllocated() > 16 {
		t.Errorf("nodes allocated = %d, want bounded by tree size, not task count", p.NodesAllocated())
	}
}

func TestVisitsVersusSamples(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.foo, clk.Now())
	clk.Advance(5)
	p.ExitAt(f.foo, clk.Now())
	p.EnterAt(f.foo, clk.Now())
	clk.Advance(7)
	p.ExitAt(f.foo, clk.Now())
	p.Finish()
	n := p.Root().FindChild(f.foo)
	if n.Visits != 2 || n.Dur.Count != 2 || n.Dur.Sum != 12 {
		t.Errorf("visits=%d samples=%d sum=%d, want 2/2/12", n.Visits, n.Dur.Count, n.Dur.Sum)
	}
}

func TestRecursionCreatesChain(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.foo, clk.Now())
	clk.Advance(1)
	p.EnterAt(f.foo, clk.Now()) // recursive call: child node, not re-entry
	clk.Advance(1)
	p.ExitAt(f.foo, clk.Now())
	clk.Advance(1)
	p.ExitAt(f.foo, clk.Now())
	p.Finish()
	outer := p.Root().FindChild(f.foo)
	inner := outer.FindChild(f.foo)
	if inner == nil {
		t.Fatal("recursion did not create a child node")
	}
	if outer.Dur.Sum != 3 || inner.Dur.Sum != 1 {
		t.Errorf("outer/inner = %d/%d, want 3/1", outer.Dur.Sum, inner.Dur.Sum)
	}
}

func TestMisuseDetection(t *testing.T) {
	cases := []struct {
		name string
		fn   func(f *fixture)
		want string
	}{
		{"exit-without-enter", func(f *fixture) {
			f.p.ExitAt(f.foo, f.clk.Now())
		}, "does not match"},
		{"mismatched-exit", func(f *fixture) {
			f.p.EnterAt(f.foo, f.clk.Now())
			f.p.ExitAt(f.bar, f.clk.Now())
		}, "does not match"},
		{"task-end-without-task", func(f *fixture) {
			f.p.TaskEndAt(f.clk.Now())
		}, "without active task"},
		{"task-end-with-open-region", func(f *fixture) {
			f.p.EnterAt(f.barR, f.clk.Now())
			f.p.TaskBeginAt(f.task, f.clk.Now())
			f.p.EnterAt(f.foo, f.clk.Now())
			f.p.TaskEndAt(f.clk.Now())
		}, "open region"},
		{"finish-with-open-region", func(f *fixture) {
			f.p.EnterAt(f.foo, f.clk.Now())
			f.p.Finish()
		}, "open region"},
		{"finish-with-active-task", func(f *fixture) {
			f.p.EnterAt(f.barR, f.clk.Now())
			f.p.TaskBeginAt(f.task, f.clk.Now())
			f.p.Finish()
		}, "active explicit task"},
		{"enter-after-finish", func(f *fixture) {
			f.p.Finish()
			f.p.EnterAt(f.foo, f.clk.Now())
		}, "after Finish"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("expected panic containing %q", tc.want)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %v, want substring %q", r, tc.want)
				}
			}()
			tc.fn(f)
		})
	}
}

func TestDoubleFinishIsIdempotent(t *testing.T) {
	f := newFixture(t)
	f.p.Finish()
	f.p.Finish() // must not panic
	if !f.p.Finished() {
		t.Error("profile not finished")
	}
}

func TestRootTimeSpansLifetime(t *testing.T) {
	clk := clock.NewManual(100)
	p := NewThreadProfile(3, clk)
	clk.Advance(900)
	p.Finish()
	if p.Root().Dur.Sum != 900 {
		t.Errorf("root time = %d, want 900", p.Root().Dur.Sum)
	}
	if p.RootLabel() != "THREAD 3" {
		t.Errorf("root label = %q", p.RootLabel())
	}
}

func TestTaskRootsOrderIsFirstCompletion(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	tB := f.reg.Register("taskB", "f.go", 30, region.Task)
	p.EnterAt(f.barR, clk.Now())
	p.TaskBeginAt(tB, clk.Now())
	p.TaskEndAt(clk.Now())
	p.TaskBeginAt(f.task, clk.Now())
	p.TaskEndAt(clk.Now())
	p.TaskBeginAt(tB, clk.Now())
	p.TaskEndAt(clk.Now())
	p.ExitAt(f.barR, clk.Now())
	p.Finish()
	roots := p.TaskRoots()
	if len(roots) != 2 || roots[0].Region != tB || roots[1].Region != f.task {
		t.Errorf("task root order wrong: %v", roots)
	}
}

// TestTimeConservation: on a single thread, the root's inclusive time
// must equal task-tree time plus implicit-tree time excluding stubs...
// more precisely: every instant is attributed to exactly one running
// node chain, and stub time equals merged task-tree root time.
func TestTimeConservation(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	for i := 0; i < 3; i++ {
		outer := p.TaskBeginAt(f.task, clk.Now())
		clk.Advance(10)
		p.EnterAt(f.tw, clk.Now())
		p.TaskBeginAt(f.task, clk.Now())
		clk.Advance(5)
		p.TaskEndAt(clk.Now())
		p.TaskSwitchToAt(outer, clk.Now()) // runtime resumes the suspended task
		clk.Advance(2)
		p.ExitAt(f.tw, clk.Now())
		p.TaskEndAt(clk.Now())
		clk.Advance(1)
	}
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	barN := p.Root().FindChild(f.par).FindChild(f.barR)
	stub := barN.FindStub(f.task)
	tree := p.TaskRoot(f.task)
	if stub.Dur.Sum != tree.Dur.Sum {
		t.Errorf("stub total %d != task tree total %d", stub.Dur.Sum, tree.Dur.Sum)
	}
	// Wall time inside barrier = task time + waiting.
	if barN.Dur.Sum != stub.Dur.Sum+barN.ExclusiveSum() {
		t.Error("barrier time does not decompose into stub + exclusive")
	}
}
