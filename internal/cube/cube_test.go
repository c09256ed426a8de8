package cube

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/region"
)

// buildTwoThreadProfiles constructs two deterministic thread profiles
// with a shared call-path structure and a task construct.
func buildTwoThreadProfiles(t *testing.T) ([]*core.ThreadProfile, *region.Registry) {
	t.Helper()
	reg := region.NewRegistry()
	par := reg.Register("par", "x.go", 1, region.Parallel)
	bar := reg.Register("bar", "x.go", 2, region.ImplicitBarrier)
	task := reg.Register("work", "x.go", 3, region.Task)

	mk := func(tid int, taskTimes []int64) *core.ThreadProfile {
		clk := clock.NewManual(0)
		p := core.NewThreadProfile(tid, clk)
		p.EnterAt(par, clk.Now())
		p.EnterAt(bar, clk.Now())
		for _, d := range taskTimes {
			p.TaskBeginAt(task, clk.Now())
			clk.Advance(d)
			p.TaskEndAt(clk.Now())
		}
		clk.Advance(5) // waiting
		p.ExitAt(bar, clk.Now())
		p.ExitAt(par, clk.Now())
		p.Finish()
		return p
	}
	return []*core.ThreadProfile{
		mk(0, []int64{10, 20}),
		mk(1, []int64{30}),
	}, reg
}

func TestAggregateMergesAcrossThreads(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	if rep.NumThreads != 2 {
		t.Fatalf("NumThreads = %d", rep.NumThreads)
	}
	par := rep.Main.Find("par")
	if par == nil {
		t.Fatal("no par node")
	}
	bar := par.Find("bar")
	if bar == nil {
		t.Fatal("no bar node")
	}
	// Thread 0: 10+20+5=35 in barrier; thread 1: 30+5=35.
	if bar.Dur.Sum != 70 {
		t.Errorf("barrier sum = %d, want 70", bar.Dur.Sum)
	}
	if bar.PerThreadDur[0].Sum != 35 || bar.PerThreadDur[1].Sum != 35 {
		t.Errorf("per-thread barrier sums wrong: %+v", bar.PerThreadDur)
	}
	stub := bar.Find("task work")
	if stub == nil || stub.Kind != core.KindStub {
		t.Fatal("no stub under barrier")
	}
	if stub.Dur.Sum != 60 || stub.Visits != 3 {
		t.Errorf("stub: sum=%d visits=%d, want 60/3", stub.Dur.Sum, stub.Visits)
	}
	// Waiting = exclusive barrier time: 5 per thread.
	if bar.ExclusiveSum() != 10 {
		t.Errorf("barrier excl = %d, want 10", bar.ExclusiveSum())
	}
	if bar.ExclusiveSumThread(0) != 5 {
		t.Errorf("thread0 barrier excl = %d, want 5", bar.ExclusiveSumThread(0))
	}

	if len(rep.Tasks) != 1 {
		t.Fatalf("task trees = %d", len(rep.Tasks))
	}
	tree := rep.Tasks[0]
	if tree.Dur.Count != 3 || tree.Dur.Sum != 60 || tree.Dur.Min != 10 || tree.Dur.Max != 30 {
		t.Errorf("task tree stats wrong: %+v", tree.Dur)
	}
}

func TestAggregatePanicsOnUnfinished(t *testing.T) {
	clk := clock.NewManual(0)
	p := core.NewThreadProfile(0, clk)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unfinished profile")
		}
	}()
	Aggregate([]*core.ThreadProfile{p})
}

func TestFindPathAndPath(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	stub := rep.Main.FindPath("par", "bar", "task work")
	if stub == nil {
		t.Fatal("FindPath failed")
	}
	path := stub.Path()
	want := []string{"PROGRAM", "par", "bar", "task work"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if rep.Main.FindPath("par", "nothing") != nil {
		t.Error("FindPath found a ghost")
	}
}

func TestSumHelpers(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	if got := SumExclusiveByType(rep.Main, region.ImplicitBarrier); got != 10 {
		t.Errorf("SumExclusiveByType(barrier) = %d, want 10", got)
	}
	if got := SumInclusiveByType(rep.Main, region.ImplicitBarrier); got != 70 {
		t.Errorf("SumInclusiveByType(barrier) = %d, want 70", got)
	}
	if got := SumStubTime(rep.Main); got != 60 {
		t.Errorf("SumStubTime = %d, want 60", got)
	}
}

func TestTaskTreeLookup(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	if rep.TaskTree("work") == nil {
		t.Error("TaskTree(work) nil")
	}
	if rep.TaskTree("none") != nil {
		t.Error("TaskTree(none) should be nil")
	}
}

func TestRenderOutput(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	var buf bytes.Buffer
	if err := Render(&buf, rep, RenderOptions{PerThread: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"MAIN TREE", "TASK TREES", "task work [stub]",
		"[thread 0]", "[thread 1]", "max concurrently active",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestRenderMinSumFilters(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	var buf bytes.Buffer
	if err := Render(&buf, rep, RenderOptions{MinSumNs: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "task work [stub]") {
		t.Error("MinSumNs did not prune small nodes")
	}
}

func TestCSVOutput(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 5 {
		t.Fatalf("CSV too short: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "tree,path,kind,type,visits") {
		t.Errorf("CSV header = %q", lines[0])
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "PROGRAM/par/bar/task work") && strings.Contains(l, "stub") {
			found = true
		}
	}
	if !found {
		t.Error("CSV missing stub row with full path")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	locs, _ := buildTwoThreadProfiles(t)
	rep := Aggregate(locs)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumThreads != rep.NumThreads || got.MaxConcurrent != rep.MaxConcurrent {
		t.Errorf("round trip lost metadata")
	}
	// Compare tree structure and metrics recursively.
	var cmp func(a, b *Node) bool
	cmp = func(a, b *Node) bool {
		if a.Kind != b.Kind || a.Visits != b.Visits || a.Dur != b.Dur ||
			a.Name() != b.Name() || len(a.Children) != len(b.Children) {
			return false
		}
		for i := range a.Children {
			if !cmp(a.Children[i], b.Children[i]) {
				return false
			}
		}
		return true
	}
	if !cmp(rep.Main, got.Main) {
		t.Error("main tree changed in round trip")
	}
	if len(got.Tasks) != len(rep.Tasks) || !cmp(rep.Tasks[0], got.Tasks[0]) {
		t.Error("task trees changed in round trip")
	}
	// Per-thread data must survive.
	bar := got.Main.FindPath("par", "bar")
	if bar == nil || bar.PerThreadDur[1].Sum != 35 {
		t.Error("per-thread data lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json"), region.NewRegistry()); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader("{}"), region.NewRegistry()); err == nil {
		t.Error("empty report accepted")
	}
}

func TestParamChildrenSorted(t *testing.T) {
	reg := region.NewRegistry()
	task := reg.Register("t", "x.go", 1, region.Task)
	bar := reg.Register("b", "x.go", 2, region.ImplicitBarrier)
	clk := clock.NewManual(0)
	p := core.NewThreadProfile(0, clk)
	p.EnterAt(bar, clk.Now())
	for _, d := range []int64{5, 3, 9, 3} {
		p.TaskBeginAt(task, clk.Now())
		p.ParameterInt("depth", d)
		clk.Advance(1)
		p.TaskEndAt(clk.Now())
	}
	p.ExitAt(bar, clk.Now())
	p.Finish()
	rep := Aggregate([]*core.ThreadProfile{p})
	ps := ParamChildren(rep.Tasks[0], "depth")
	if len(ps) != 3 {
		t.Fatalf("param children = %d, want 3", len(ps))
	}
	if ps[0].ParamValue != 3 || ps[1].ParamValue != 5 || ps[2].ParamValue != 9 {
		t.Errorf("not sorted: %d %d %d", ps[0].ParamValue, ps[1].ParamValue, ps[2].ParamValue)
	}
	if ps[0].Dur.Count != 2 {
		t.Errorf("depth=3 count = %d, want 2", ps[0].Dur.Count)
	}
}
