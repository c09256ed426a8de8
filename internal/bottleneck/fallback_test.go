package bottleneck

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/trace"
)

// The two traces below ask the critical-path walk for a suspension time
// that links cannot tell, so the fragment table must answer it. In
// each, thread 0 runs task 1, which creates task 2 and suspends at a
// taskwait to run it.

// movedTaskTrace resumes task 1 on thread 1, which ends last: its
// resumed fragment, the walk's first, is linked to nothing on thread 1,
// and task 1's first fragment lies on thread 0.
func movedTaskTrace() *trace.Trace {
	rs := fuzzRegions()
	par, tw, taskA, taskB := rs[1], rs[2], rs[6], rs[7]
	return &trace.Trace{Threads: map[int][]trace.Event{
		0: {
			{Time: 0, Type: trace.EvThreadBegin},
			{Time: 1, Type: trace.EvEnter, Region: par},
			{Time: 2, Type: trace.EvTaskCreateBegin, Region: taskA},
			{Time: 3, Type: trace.EvTaskCreateEnd, Region: taskA, TaskID: 1},
			{Time: 4, Type: trace.EvEnter, Region: tw},
			{Time: 5, Type: trace.EvTaskBegin, Region: taskA, TaskID: 1},
			{Time: 6, Type: trace.EvTaskCreateBegin, Region: taskB, TaskID: 1},
			{Time: 7, Type: trace.EvTaskCreateEnd, Region: taskB, TaskID: 2},
			{Time: 8, Type: trace.EvEnter, Region: tw, TaskID: 1},
			{Time: 9, Type: trace.EvTaskBegin, Region: taskB, TaskID: 2},
			{Time: 40, Type: trace.EvTaskEnd, Region: taskB, TaskID: 2},
			{Time: 41, Type: trace.EvTaskSwitch},
			{Time: 42, Type: trace.EvExit, Region: tw},
			{Time: 43, Type: trace.EvExit, Region: par},
			{Time: 44, Type: trace.EvThreadEnd},
		},
		1: {
			{Time: 0, Type: trace.EvThreadBegin},
			{Time: 1, Type: trace.EvEnter, Region: par},
			{Time: 2, Type: trace.EvEnter, Region: tw},
			{Time: 45, Type: trace.EvTaskSwitch, TaskID: 1},
			{Time: 60, Type: trace.EvTaskEnd, Region: taskA, TaskID: 1},
			{Time: 61, Type: trace.EvTaskSwitch},
			{Time: 62, Type: trace.EvExit, Region: tw},
			{Time: 63, Type: trace.EvExit, Region: par},
			{Time: 70, Type: trace.EvThreadEnd},
		},
	}}
}

// backwardResumeTrace runs thread 0 alone and resumes task 1 at t=30,
// before task 2 ended at t=40: the thread's clock ran backwards, and the
// walk asks when task 1 was suspended at that resume.
func backwardResumeTrace() *trace.Trace {
	rs := fuzzRegions()
	par, tw, taskA, taskB := rs[1], rs[2], rs[6], rs[7]
	return &trace.Trace{Threads: map[int][]trace.Event{
		0: {
			{Time: 0, Type: trace.EvThreadBegin},
			{Time: 1, Type: trace.EvEnter, Region: par},
			{Time: 2, Type: trace.EvTaskCreateBegin, Region: taskA},
			{Time: 3, Type: trace.EvTaskCreateEnd, Region: taskA, TaskID: 1},
			{Time: 4, Type: trace.EvEnter, Region: tw},
			{Time: 5, Type: trace.EvTaskBegin, Region: taskA, TaskID: 1},
			{Time: 6, Type: trace.EvTaskCreateBegin, Region: taskB, TaskID: 1},
			{Time: 7, Type: trace.EvTaskCreateEnd, Region: taskB, TaskID: 2},
			{Time: 8, Type: trace.EvEnter, Region: tw, TaskID: 1},
			{Time: 9, Type: trace.EvTaskBegin, Region: taskB, TaskID: 2},
			{Time: 40, Type: trace.EvTaskEnd, Region: taskB, TaskID: 2},
			{Time: 30, Type: trace.EvTaskSwitch, TaskID: 1},
			{Time: 35, Type: trace.EvExit, Region: tw, TaskID: 1},
			{Time: 50, Type: trace.EvTaskEnd, Region: taskA, TaskID: 1},
			{Time: 51, Type: trace.EvTaskSwitch},
			{Time: 52, Type: trace.EvExit, Region: tw},
			{Time: 53, Type: trace.EvExit, Region: par},
			{Time: 60, Type: trace.EvThreadEnd},
		},
	}}
}

// TestFragmentTableFallback analyses the two traces whose suspension
// times links cannot tell: each must lay out the fragment table once,
// answer every fragment's suspension time as the brute-force reference
// does, and give the Analysis written to
// testdata/fallback-seeds.golden by the analysis that laid out the
// table for every recording.
func TestFragmentTableFallback(t *testing.T) {
	golden, err := os.ReadFile("testdata/fallback-seeds.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	traces := []*trace.Trace{movedTaskTrace(), backwardResumeTrace()}
	if len(want) != len(traces) {
		t.Fatalf("%d golden analyses for %d traces", len(want), len(traces))
	}
	for i, name := range []string{"moved-task", "backward-resume"} {
		t.Run(name, func(t *testing.T) {
			tr := traces[i]
			if bad := joinMismatches(tr, trace.Query{}, 1); len(bad) > 0 {
				t.Errorf("suspension times or joins differ from the references: %v", bad)
			}
			before := fragTables.Load()
			a := Analyze(tr)
			if n := fragTables.Load() - before; n != 1 {
				t.Errorf("%d fragment tables laid out, want 1", n)
			}
			if a.CriticalPath.JoinWait == 0 && name == "moved-task" {
				t.Error("the walk took no join edge")
			}
			got, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("Analysis\n got %s\nwant %s", got, want[i])
			}
		})
	}
}
