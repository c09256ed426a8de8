package cube

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/region"
)

// buildReport creates a one-thread report with a par->bar->task shape
// where the task runs taskNs and the barrier idles idleNs.
func buildReport(t *testing.T, reg *region.Registry, taskNs, idleNs int64, extraRegion bool) *Report {
	t.Helper()
	par := reg.Register("par", "d.go", 1, region.Parallel)
	bar := reg.Register("bar", "d.go", 2, region.ImplicitBarrier)
	task := reg.Register("work", "d.go", 3, region.Task)
	extra := reg.Register("extra", "d.go", 4, region.UserFunction)

	clk := clock.NewManual(0)
	p := core.NewThreadProfile(0, clk)
	p.EnterAt(par, clk.Now())
	if extraRegion {
		p.EnterAt(extra, clk.Now())
		clk.Advance(7)
		p.ExitAt(extra, clk.Now())
	}
	p.EnterAt(bar, clk.Now())
	p.TaskBeginAt(task, clk.Now())
	clk.Advance(taskNs)
	p.TaskEndAt(clk.Now())
	clk.Advance(idleNs)
	p.ExitAt(bar, clk.Now())
	p.ExitAt(par, clk.Now())
	p.Finish()
	return Aggregate([]*core.ThreadProfile{p})
}

func TestDiffMatchesByPath(t *testing.T) {
	reg := region.NewRegistry()
	a := buildReport(t, reg, 100, 10, false)
	b := buildReport(t, reg, 250, 10, false)
	rd := Diff(a, b)

	bar := rd.Main.Children[0].Children[0] // PROGRAM -> par -> bar
	if bar.Name != "bar" {
		t.Fatalf("unexpected child order: %s", bar.Name)
	}
	if bar.DeltaSum() != 150 {
		t.Errorf("bar delta = %d, want 150", bar.DeltaSum())
	}
	if len(rd.Tasks) != 1 || rd.Tasks[0].DeltaSum() != 150 {
		t.Errorf("task tree delta wrong: %+v", rd.Tasks)
	}
	if r := rd.Tasks[0].Ratio(); r < 2.49 || r > 2.51 {
		t.Errorf("ratio = %f, want 2.5", r)
	}
}

func TestDiffDetectsMissingNodes(t *testing.T) {
	regA := region.NewRegistry()
	regB := region.NewRegistry()
	a := buildReport(t, regA, 100, 10, true)  // has "extra"
	b := buildReport(t, regB, 100, 10, false) // does not
	rd := Diff(a, b)

	parD := rd.Main.Children[0]
	var extraD *DiffNode
	for _, c := range parD.Children {
		if c.Name == "extra" {
			extraD = c
		}
	}
	if extraD == nil {
		t.Fatal("extra node missing from diff")
	}
	if extraD.B != nil || extraD.A == nil {
		t.Error("extra should be only-in-A")
	}
	var buf bytes.Buffer
	if err := RenderDiff(&buf, rd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[only in A]") {
		t.Error("render missing only-in-A marker")
	}
}

func TestDiffOnlyInBTaskTree(t *testing.T) {
	regA := region.NewRegistry()
	a := buildReport(t, regA, 100, 10, false)

	// B has an additional task construct.
	regB := region.NewRegistry()
	par := regB.Register("par", "d.go", 1, region.Parallel)
	bar := regB.Register("bar", "d.go", 2, region.ImplicitBarrier)
	task := regB.Register("work", "d.go", 3, region.Task)
	other := regB.Register("other", "d.go", 9, region.Task)
	clk := clock.NewManual(0)
	p := core.NewThreadProfile(0, clk)
	p.EnterAt(par, clk.Now())
	p.EnterAt(bar, clk.Now())
	p.TaskBeginAt(task, clk.Now())
	clk.Advance(100)
	p.TaskEndAt(clk.Now())
	p.TaskBeginAt(other, clk.Now())
	clk.Advance(5)
	p.TaskEndAt(clk.Now())
	p.ExitAt(bar, clk.Now())
	p.ExitAt(par, clk.Now())
	p.Finish()
	b := Aggregate([]*core.ThreadProfile{p})

	rd := Diff(a, b)
	if len(rd.Tasks) != 2 {
		t.Fatalf("task diffs = %d, want 2", len(rd.Tasks))
	}
	found := false
	for _, td := range rd.Tasks {
		if td.Name == "other" && td.A == nil && td.B != nil {
			found = true
		}
	}
	if !found {
		t.Error("only-in-B task tree not reported")
	}
}

func TestTopRegressions(t *testing.T) {
	reg := region.NewRegistry()
	a := buildReport(t, reg, 100, 10, false)
	b := buildReport(t, reg, 600, 10, false)
	rd := Diff(a, b)
	top := rd.TopRegressions(3)
	if len(top) != 3 {
		t.Fatalf("top = %d entries", len(top))
	}
	// Largest absolute delta must come first and be >= the next.
	if rd.abs(top[0].DeltaSum()) < rd.abs(top[1].DeltaSum()) {
		t.Error("regressions not sorted by |delta|")
	}
	if top[0].DeltaSum() != 500 {
		t.Errorf("top regression delta = %d, want 500", top[0].DeltaSum())
	}
}

func TestDiffIdentityIsZero(t *testing.T) {
	reg := region.NewRegistry()
	a := buildReport(t, reg, 100, 10, false)
	rd := Diff(a, a)
	rd.Main.Walk(func(d *DiffNode, _ int) {
		if d.DeltaSum() != 0 || d.DeltaVisits() != 0 {
			t.Errorf("self-diff nonzero at %s", d.Name)
		}
	})
}
