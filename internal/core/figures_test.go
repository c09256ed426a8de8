package core

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/region"
)

// These tests replay the event streams of the paper's design figures with
// a manual clock and check the exact profile the algorithm must produce.

type fixture struct {
	clk  *clock.Manual
	p    *ThreadProfile
	reg  *region.Registry
	main *region.Region
	foo  *region.Region
	bar  *region.Region
	par  *region.Region
	barR *region.Region
	tw   *region.Region
	crt  *region.Region
	task *region.Region
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := region.NewRegistry()
	f := &fixture{
		clk:  clock.NewManual(0),
		reg:  reg,
		main: reg.Register("main", "f.go", 1, region.UserFunction),
		foo:  reg.Register("foo", "f.go", 2, region.UserFunction),
		bar:  reg.Register("bar", "f.go", 3, region.UserFunction),
		par:  reg.Register("parallel", "f.go", 4, region.Parallel),
		barR: reg.Register("barrier", "f.go", 5, region.ImplicitBarrier),
		tw:   reg.Register("taskwait", "f.go", 6, region.Taskwait),
		crt:  reg.Register("task0 (create)", "f.go", 7, region.TaskCreate),
		task: reg.Register("task0", "f.go", 7, region.Task),
	}
	f.p = NewThreadProfile(0, f.clk)
	return f
}

// TestFigure1EventStreamToProfile: the basic nested event stream of
// Fig. 1 — foo() and bar() entered and exited inside main without overlap
// — must produce the classic call tree with correct inclusive times.
func TestFigure1EventStreamToProfile(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk

	p.EnterAt(f.main, clk.Now()) // t=0
	clk.Advance(10)
	p.EnterAt(f.foo, clk.Now()) // t=10
	clk.Advance(20)
	p.ExitAt(f.foo, clk.Now()) // t=30
	clk.Advance(5)
	p.EnterAt(f.bar, clk.Now()) // t=35
	clk.Advance(40)
	p.ExitAt(f.bar, clk.Now()) // t=75
	clk.Advance(25)
	p.ExitAt(f.main, clk.Now()) // t=100
	p.Finish()

	mainN := p.Root().FindChild(f.main)
	if mainN == nil {
		t.Fatal("no node for main")
	}
	if mainN.Dur.Sum != 100 || mainN.Visits != 1 {
		t.Errorf("main: incl=%d visits=%d, want 100/1", mainN.Dur.Sum, mainN.Visits)
	}
	fooN := mainN.FindChild(f.foo)
	barN := mainN.FindChild(f.bar)
	if fooN == nil || barN == nil {
		t.Fatal("missing foo/bar children")
	}
	if fooN.Dur.Sum != 20 {
		t.Errorf("foo incl = %d, want 20", fooN.Dur.Sum)
	}
	if barN.Dur.Sum != 40 {
		t.Errorf("bar incl = %d, want 40", barN.Dur.Sum)
	}
	if excl := mainN.ExclusiveSum(); excl != 40 {
		t.Errorf("main excl = %d, want 40 (100-20-40)", excl)
	}
}

// TestFigure2InterleavedTaskFragments: Fig. 2's stream — two task
// instances of the same construct both enter foo(), are suspended, and
// later resumed — is exactly what breaks classic profiling. With task
// instance identification the profile must attribute each foo() visit to
// its instance and merge both into one task tree.
func TestFigure2InterleavedTaskFragments(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk

	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())

	// task1 starts, enters foo
	t1 := p.TaskBeginAt(f.task, clk.Now()) // t=0
	clk.Advance(10)
	p.EnterAt(f.foo, clk.Now()) // t=10
	clk.Advance(5)
	// task1 suspended (taskwait inside foo omitted for stream parity),
	// task2 starts and enters foo as well.
	t2 := p.TaskBeginAt(f.task, clk.Now()) // t=15: switch suspends t1
	clk.Advance(3)
	p.EnterAt(f.foo, clk.Now()) // t=18
	clk.Advance(7)
	p.ExitAt(f.foo, clk.Now()) // t=25: this exit must close t2's foo, not t1's
	clk.Advance(5)
	p.TaskEndAt(clk.Now()) // t=30: t2 done (ran 15)
	p.TaskSwitchToAt(t1, clk.Now())
	clk.Advance(10)
	p.ExitAt(f.foo, clk.Now()) // t=40
	clk.Advance(2)
	p.TaskEndAt(clk.Now()) // t=42
	_ = t2

	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	tree := p.TaskRoot(f.task)
	if tree == nil {
		t.Fatal("no merged task tree")
	}
	if tree.Dur.Count != 2 {
		t.Fatalf("task instances merged = %d, want 2", tree.Dur.Count)
	}
	// t1 executed 0..15 and 30..42 -> 27; t2 executed 15..30 -> 15.
	if tree.Dur.Sum != 27+15 {
		t.Errorf("task tree sum = %d, want 42", tree.Dur.Sum)
	}
	if tree.Dur.Min != 15 || tree.Dur.Max != 27 {
		t.Errorf("task tree min/max = %d/%d, want 15/27", tree.Dur.Min, tree.Dur.Max)
	}
	fooN := tree.FindChild(f.foo)
	if fooN == nil {
		t.Fatal("no foo under task tree")
	}
	// t1's foo: open 10..15 suspended 15..30 resumed 30..40 -> 15.
	// t2's foo: 18..25 -> 7.
	if fooN.Dur.Sum != 22 || fooN.Dur.Count != 2 {
		t.Errorf("foo in task tree: sum=%d count=%d, want 22/2", fooN.Dur.Sum, fooN.Dur.Count)
	}
	if fooN.Dur.Min != 7 || fooN.Dur.Max != 15 {
		t.Errorf("foo min/max = %d/%d, want 7/15", fooN.Dur.Min, fooN.Dur.Max)
	}
}

// TestFigure3ExecutingNodeAttribution: Fig. 3 — the task's execution time
// must be attributed under the scheduling point where it executes (the
// barrier), via a stub node, not to the creating node. The barrier's
// *exclusive* time is then pure waiting, and no negative exclusive values
// appear anywhere.
func TestFigure3ExecutingNodeAttribution(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk

	p.EnterAt(f.par, clk.Now()) // t=0, parallel region
	clk.Advance(1)
	p.EnterAt(f.crt, clk.Now()) // create task, t=1
	clk.Advance(1)
	p.ExitAt(f.crt, clk.Now())       // t=2
	p.EnterAt(f.barR, clk.Now())     // t=2 barrier
	clk.Advance(2)                   // waiting 2
	p.TaskBeginAt(f.task, clk.Now()) // t=4
	clk.Advance(5)                   // task works 5
	p.TaskEndAt(clk.Now())           // t=9
	clk.Advance(1)                   // waiting 1
	p.ExitAt(f.barR, clk.Now())      // t=10
	p.ExitAt(f.par, clk.Now())       // t=10
	p.Finish()

	parN := p.Root().FindChild(f.par)
	barN := parN.FindChild(f.barR)
	crtN := parN.FindChild(f.crt)
	if barN == nil || crtN == nil {
		t.Fatal("missing barrier/create nodes")
	}
	if crtN.Dur.Sum != 1 || crtN.ExclusiveSum() != 1 {
		t.Errorf("create: incl=%d excl=%d, want 1/1 (never negative)", crtN.Dur.Sum, crtN.ExclusiveSum())
	}
	if barN.Dur.Sum != 8 {
		t.Errorf("barrier incl = %d, want 8", barN.Dur.Sum)
	}
	stub := barN.FindStub(f.task)
	if stub == nil {
		t.Fatal("no stub node under barrier")
	}
	if stub.Dur.Sum != 5 {
		t.Errorf("stub time = %d, want 5 (task execution inside barrier)", stub.Dur.Sum)
	}
	if excl := barN.ExclusiveSum(); excl != 3 {
		t.Errorf("barrier excl = %d, want 3 (pure waiting)", excl)
	}
	// The task tree carries the task's own 5 units.
	if tree := p.TaskRoot(f.task); tree == nil || tree.Dur.Sum != 5 {
		t.Errorf("task tree sum wrong: %+v", tree)
	}
	// No node anywhere may have negative exclusive time in this scenario.
	p.Root().Walk(func(n *Node, _ int) {
		if n.ExclusiveSum() < 0 {
			t.Errorf("negative exclusive time on %s: %d", n.Name(), n.ExclusiveSum())
		}
	})
}

// TestFigure4SuspendResumeAtTaskwait replays Fig. 4/9/10/11: task1
// suspends at its taskwait, task2 runs to completion, task1 resumes and
// completes. Checks stub fragment counts and suspension subtraction.
func TestFigure4SuspendResumeAtTaskwait(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk

	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now()) // implicit barrier; tasks execute inside

	t1 := p.TaskBeginAt(f.task, clk.Now()) // t=0
	clk.Advance(10)                        // t1 works 10
	p.EnterAt(f.tw, clk.Now())             // t1 enters taskwait, t=10
	clk.Advance(2)                         // waits 2 inside taskwait before switch
	t2 := p.TaskBeginAt(f.task, clk.Now()) // t=12; t1 suspended
	clk.Advance(20)                        // t2 works 20
	p.TaskEndAt(clk.Now())                 // t=32
	_ = t2
	p.TaskSwitchToAt(t1, clk.Now()) // resume t1
	clk.Advance(3)                  // 3 more in taskwait
	p.ExitAt(f.tw, clk.Now())       // t=35
	clk.Advance(5)                  // 5 more work
	p.TaskEndAt(clk.Now())          // t=40

	clk.Advance(1)
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	tree := p.TaskRoot(f.task)
	if tree.Dur.Count != 2 {
		t.Fatalf("instances = %d, want 2", tree.Dur.Count)
	}
	// t1 executes 0..12 and 32..40 = 20; t2 executes 12..32 = 20.
	if tree.Dur.Sum != 40 || tree.Dur.Min != 20 || tree.Dur.Max != 20 {
		t.Errorf("task tree sum/min/max = %d/%d/%d, want 40/20/20",
			tree.Dur.Sum, tree.Dur.Min, tree.Dur.Max)
	}
	twN := tree.FindChild(f.tw)
	if twN == nil {
		t.Fatal("no taskwait node in task tree")
	}
	// t1's taskwait: 10..12 running + suspended 12..32 + 32..35 running = 5.
	if twN.Dur.Sum != 5 {
		t.Errorf("taskwait incl = %d, want 5 (suspension subtracted)", twN.Dur.Sum)
	}
	// Stub under the barrier: fragments t1(2: begin + resume) + t2(1) = 3 visits,
	// total stub time 0..40, split into fragments 0..12, 12..32, 32..40.
	barN := p.Root().FindChild(f.par).FindChild(f.barR)
	stub := barN.FindStub(f.task)
	if stub == nil {
		t.Fatal("no stub under barrier")
	}
	if stub.Visits != 3 {
		t.Errorf("stub fragment visits = %d, want 3", stub.Visits)
	}
	if stub.Dur.Sum != 40 {
		t.Errorf("stub total = %d, want 40", stub.Dur.Sum)
	}
	// Barrier: incl 41, task execution 40, waiting 1.
	if barN.ExclusiveSum() != 1 {
		t.Errorf("barrier excl = %d, want 1", barN.ExclusiveSum())
	}
}

// TestFig12TaskEndSwitchesToImplicit verifies that after TaskEnd the
// implicit task is current (per the pseudocode), and a redundant
// TaskSwitchToAt(nil, …) is a no-op.
func TestFig12TaskEndSwitchesToImplicit(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	p.TaskBeginAt(f.task, clk.Now())
	if p.CurrentTask() == nil {
		t.Fatal("task not current after TaskBegin")
	}
	p.TaskEndAt(clk.Now())
	if p.CurrentTask() != nil {
		t.Fatal("implicit task not current after TaskEnd")
	}
	sw := p.Switches()
	p.TaskSwitchToAt(nil, clk.Now()) // the implicit task is already current
	if p.Switches() != sw {
		t.Error("redundant TaskSwitchToAt(nil) was counted as a switch")
	}
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()
}

// TestNestedTaskStubsStayUnderSchedulingPoint: when task A suspends and
// task B runs, B's stub must appear under the implicit task's scheduling
// point (the barrier), NOT under A's taskwait — only the implicit task's
// tree contains stub children (Section IV-C).
func TestNestedTaskStubsStayUnderSchedulingPoint(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	taskB := f.reg.Register("taskB", "f.go", 9, region.Task)

	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	tA := p.TaskBeginAt(f.task, clk.Now())
	clk.Advance(5)
	p.EnterAt(f.tw, clk.Now())
	tB := p.TaskBeginAt(taskB, clk.Now()) // nested switch
	clk.Advance(7)
	p.TaskEndAt(clk.Now())
	_ = tB
	p.TaskSwitchToAt(tA, clk.Now())
	p.ExitAt(f.tw, clk.Now())
	p.TaskEndAt(clk.Now())
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	barN := p.Root().FindChild(f.par).FindChild(f.barR)
	if barN.FindStub(f.task) == nil || barN.FindStub(taskB) == nil {
		t.Error("both stubs must be children of the barrier")
	}
	// A's instance tree must not contain stub children under its taskwait.
	treeA := p.TaskRoot(f.task)
	twN := treeA.FindChild(f.tw)
	if twN == nil {
		t.Fatal("no taskwait in A's tree")
	}
	for _, c := range twN.Children {
		if c.Kind == KindStub {
			t.Errorf("stub node %s found inside explicit task tree", c.Name())
		}
	}
	// A's taskwait exclusive time: B's 7 units were subtracted (suspended).
	if twN.Dur.Sum != 0 {
		t.Errorf("A taskwait incl = %d, want 0", twN.Dur.Sum)
	}
}

// TestSameConstructSharesStubNode: "If both instances are created by the
// same task construct, it will be the same node."
func TestSameConstructSharesStubNode(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.par, clk.Now())
	p.EnterAt(f.barR, clk.Now())
	for i := 0; i < 5; i++ {
		p.TaskBeginAt(f.task, clk.Now())
		clk.Advance(2)
		p.TaskEndAt(clk.Now())
	}
	p.ExitAt(f.barR, clk.Now())
	p.ExitAt(f.par, clk.Now())
	p.Finish()

	barN := p.Root().FindChild(f.par).FindChild(f.barR)
	stubs := 0
	for _, c := range barN.Children {
		if c.Kind == KindStub {
			stubs++
			if c.Visits != 5 {
				t.Errorf("stub visits = %d, want 5", c.Visits)
			}
			if c.Dur.Sum != 10 {
				t.Errorf("stub sum = %d, want 10", c.Dur.Sum)
			}
		}
	}
	if stubs != 1 {
		t.Errorf("%d stub nodes for one construct, want 1", stubs)
	}
	if tree := p.TaskRoot(f.task); tree.Dur.Count != 5 || tree.Dur.Min != 2 || tree.Dur.Max != 2 {
		t.Errorf("merged tree stats wrong: %v", tree.Dur)
	}
}
