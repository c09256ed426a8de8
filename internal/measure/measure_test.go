package measure

import (
	"sync/atomic"
	"testing"

	"repro/internal/clock"
	"repro/internal/cube"
	"repro/internal/omp"
	"repro/internal/region"
)

func testSetup(t *testing.T) (*Measurement, *omp.Runtime, *region.Registry) {
	t.Helper()
	reg := region.NewRegistry()
	m := NewWithClock(clock.NewSystem(), reg)
	rt := omp.NewRuntimeWithRegistry(m, reg)
	return m, rt, reg
}

func TestEndToEndProfile(t *testing.T) {
	m, rt, reg := testSetup(t)
	par := reg.Register("par", "m.go", 1, region.Parallel)
	task := reg.Register("work", "m.go", 2, region.Task)
	tw := reg.Register("wait", "m.go", 3, region.Taskwait)

	var ran atomic.Int64
	rt.Parallel(4, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 100; i++ {
				th.NewTask(task, func(c *omp.Thread) {
					c.NewTask(task, func(*omp.Thread) { ran.Add(1) })
					c.Taskwait(tw)
					ran.Add(1)
				})
			}
			th.Taskwait(tw)
		}
	})
	m.Finish()

	if ran.Load() != 200 {
		t.Fatalf("tasks ran = %d", ran.Load())
	}
	locs := m.Locations()
	if len(locs) != 4 {
		t.Fatalf("locations = %d, want 4", len(locs))
	}
	rep := cube.Aggregate(locs)
	tree := rep.TaskTree("work")
	if tree == nil {
		t.Fatal("no task tree")
	}
	if tree.Dur.Count != 200 {
		t.Errorf("task instances = %d, want 200", tree.Dur.Count)
	}
	// The instrumented task construct has create and taskwait children.
	if tree.Find("work (create)") == nil {
		t.Error("no create-region child in task tree")
	}
	if tree.Find("wait") == nil {
		t.Error("no taskwait child in task tree")
	}
	// All events balanced: every location finished without panic, and the
	// main tree contains the parallel region with an implicit barrier.
	parN := rep.Main.Find("par")
	if parN == nil || parN.Find("par (implicit barrier)") == nil {
		t.Error("main tree missing parallel region/implicit barrier")
	}
}

func TestLocationsPersistAcrossParallelRegions(t *testing.T) {
	m, rt, reg := testSetup(t)
	par := reg.Register("par", "m.go", 1, region.Parallel)
	rt.Parallel(2, par, func(*omp.Thread) {})
	rt.Parallel(4, par, func(*omp.Thread) {})
	m.Finish()
	locs := m.Locations()
	if len(locs) != 4 {
		t.Fatalf("locations = %d, want 4 (reused across regions)", len(locs))
	}
	rep := cube.Aggregate(locs)
	parN := rep.Main.Find("par")
	if parN == nil {
		t.Fatal("no parallel node")
	}
	// Threads 0 and 1 entered twice, threads 2 and 3 once -> 6 visits.
	if parN.Visits != 6 {
		t.Errorf("parallel visits = %d, want 6", parN.Visits)
	}
}

func TestCreateRegionInterned(t *testing.T) {
	m, _, reg := testSetup(t)
	task := reg.Register("work", "m.go", 2, region.Task)
	c1 := m.CreateRegion(task)
	c2 := m.CreateRegion(task)
	if c1 != c2 {
		t.Error("create region not interned")
	}
	if c1.Type != region.TaskCreate || c1.Name != "work (create)" {
		t.Errorf("create region wrong: %s", c1)
	}
}

func TestUninstrumentedThreadHasNilProfile(t *testing.T) {
	reg := region.NewRegistry()
	rt := omp.NewRuntimeWithRegistry(nil, reg)
	par := reg.Register("par", "m.go", 1, region.Parallel)
	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.Profile != nil {
			t.Error("uninstrumented thread has a profile")
		}
	})
}

func TestFinishIsIdempotent(t *testing.T) {
	m, rt, reg := testSetup(t)
	par := reg.Register("par", "m.go", 1, region.Parallel)
	rt.Parallel(1, par, func(*omp.Thread) {})
	m.Finish()
	m.Finish() // must not panic
	if m.Location(0) == nil || !m.Location(0).Finished() {
		t.Error("location not finished")
	}
}

func TestStubAndTaskTreeConsistency(t *testing.T) {
	// Total stub time across the main tree must equal total task tree
	// time: every nanosecond of task execution is inside some scheduling
	// point of some implicit task.
	m, rt, reg := testSetup(t)
	par := reg.Register("par", "m.go", 1, region.Parallel)
	task := reg.Register("work", "m.go", 2, region.Task)
	tw := reg.Register("wait", "m.go", 3, region.Taskwait)
	rt.Parallel(4, par, func(th *omp.Thread) {
		for i := 0; i < 25; i++ {
			th.NewTask(task, func(c *omp.Thread) {
				s := 0
				for j := 0; j < 10000; j++ {
					s += j
				}
				_ = s
			})
		}
		th.Taskwait(tw)
	})
	m.Finish()
	rep := cube.Aggregate(m.Locations())
	stub := cube.SumStubTime(rep.Main)
	var taskTotal int64
	for _, tr := range rep.Tasks {
		taskTotal += tr.Dur.Sum
	}
	if stub != taskTotal {
		t.Errorf("stub total %d != task tree total %d", stub, taskTotal)
	}
}
