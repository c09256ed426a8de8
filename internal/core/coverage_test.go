package core

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/region"
)

// These tests close the remaining behavioural gaps: accessors used by
// downstream packages, parameter instrumentation on the implicit task,
// double-enter detection, pooling toggle, and kind names.

func TestNodeKindStrings(t *testing.T) {
	if KindRegion.String() != "region" || KindStub.String() != "stub" ||
		KindParameter.String() != "parameter" {
		t.Error("kind names wrong")
	}
	if !strings.HasPrefix(NodeKind(9).String(), "kind(") {
		t.Error("unknown kind fallback wrong")
	}
}

func TestAccessors(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	if p.Current() != p.Root() {
		t.Error("Current should start at the root")
	}
	p.EnterAt(f.barR, clk.Now())
	if p.Current().Region != f.barR || !p.Current().Open() || !p.Current().Running() {
		t.Error("current node state wrong after Enter")
	}
	ti := p.TaskBeginAt(f.task, clk.Now())
	if ti.Root() == nil || ti.Current() != ti.Root() {
		t.Error("instance accessors wrong after TaskBegin")
	}
	if p.Current() != ti.Root() {
		t.Error("profile Current should be the instance position")
	}
	p.EnterAt(f.foo, clk.Now())
	if ti.Current().Region != f.foo {
		t.Error("instance current not advanced")
	}
	p.ExitAt(f.foo, clk.Now())
	p.TaskEndAt(f.clk.Now())
	p.ExitAt(f.barR, clk.Now())
	p.Finish()
}

func TestParameterOnImplicitTask(t *testing.T) {
	// Parameter instrumentation outside any explicit task lands in the
	// implicit task's tree and closes with the surrounding region.
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.EnterAt(f.foo, clk.Now())
	p.ParameterInt("phase", 2)
	clk.Advance(9)
	p.ExitAt(f.foo, clk.Now()) // closes the parameter node implicitly
	p.EnterAt(f.foo, clk.Now())
	p.ParameterString("phase", "two")
	clk.Advance(4)
	p.ExitAt(f.foo, clk.Now())
	p.Finish()

	fooN := p.Root().FindChild(f.foo)
	d := fooN.FindParam("phase", 2)
	if d == nil || d.Dur.Sum != 9 {
		t.Fatalf("implicit int parameter wrong: %+v", d)
	}
	var sNode *Node
	for _, c := range fooN.Children {
		if c.Kind == KindParameter && c.ParamStr == "two" {
			sNode = c
		}
	}
	if sNode == nil || sNode.Dur.Sum != 4 {
		t.Fatalf("implicit string parameter wrong: %+v", sNode)
	}
	if fooN.FindParam("phase", 99) != nil {
		t.Error("FindParam found a ghost")
	}
	if fooN.FindStub(f.task) != nil {
		t.Error("FindStub found a ghost")
	}
}

func TestDoubleEnterPanics(t *testing.T) {
	clk := clock.NewManual(0)
	reg := region.NewRegistry()
	bar := reg.Register("b", "c.go", 1, region.ImplicitBarrier)
	task := reg.Register("t", "c.go", 2, region.Task)
	p := NewThreadProfile(0, clk)
	p.EnterAt(bar, clk.Now())
	ti := p.TaskBeginAt(task, clk.Now())
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "double enter") {
			t.Fatalf("expected double-enter panic, got %v", r)
		}
	}()
	ti.root.openVisit(clk.Now()) // the root is already open
}

func TestPoolingDisabledStillCorrect(t *testing.T) {
	f := newFixture(t)
	p, clk := f.p, f.clk
	p.SetNodePooling(false)
	p.EnterAt(f.barR, clk.Now())
	for i := 0; i < 100; i++ {
		p.TaskBeginAt(f.task, clk.Now())
		clk.Advance(3)
		p.TaskEndAt(clk.Now())
	}
	p.ExitAt(f.barR, clk.Now())
	p.Finish()
	tree := p.TaskRoot(f.task)
	if tree.Dur.Count != 100 || tree.Dur.Sum != 300 {
		t.Errorf("pooling-off results wrong: %+v", tree.Dur)
	}
	// Without pooling every instance allocates a fresh root node.
	if p.NodesAllocated() < 100 {
		t.Errorf("expected >=100 node allocations without pooling, got %d", p.NodesAllocated())
	}
}

func TestSwitchAfterFinishPanics(t *testing.T) {
	f := newFixture(t)
	f.p.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.p.TaskBeginAt(f.task, f.clk.Now())
}

func TestParamNodeNameRendering(t *testing.T) {
	n := &Node{Kind: KindParameter, ParamName: "depth", ParamValue: 7}
	if n.Name() != "depth=7" {
		t.Errorf("int param name = %q", n.Name())
	}
	s := &Node{Kind: KindParameter, ParamName: "phase", ParamStr: "solve"}
	if s.Name() != "phase=solve" {
		t.Errorf("string param name = %q", s.Name())
	}
	r := &Node{Kind: KindRegion}
	if r.Name() != "<root>" {
		t.Errorf("root name = %q", r.Name())
	}
}
