package bottleneck

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/trace"
)

// The join search as it stood before each thread's task ends were
// searched where they lie: every task end of every thread copied into
// one list in (time, thread, task) order, and walked back from the
// resume to the first end of another task. It is the definition
// joinEdge is held to.

// completion is one observed task end. Threads are positions in the
// sorted thread list.
type completion struct {
	time   int64
	task   uint64
	thread int32
}

func compareCompletions(a, b completion) int {
	return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.thread, b.thread), cmp.Compare(a.task, b.task))
}

// completions lists every task end of tcs in (time, thread, task) order.
func completions(tcs []*threadCollector) []completion {
	var flat []completion
	for ti, tc := range tcs {
		for _, i := range tc.ends {
			flat = append(flat, completion{tc.frags[i].end, tc.frags[i].task, int32(ti)})
		}
		for _, e := range tc.strayEnds {
			flat = append(flat, completion{e.time, e.id, int32(ti)})
		}
	}
	slices.SortFunc(flat, compareCompletions)
	return flat
}

// referenceLatestEnd is the walk's join search over the merged list:
// the latest end in [from, to] of a task other than task.
func referenceLatestEnd(ends []completion, from, to int64, task uint64) (completion, bool) {
	i, _ := slices.BinarySearchFunc(ends, to, func(c completion, t int64) int {
		if c.time > t {
			return 1
		}
		return -1
	})
	for i--; i >= 0 && ends[i].time >= from; i-- {
		if ends[i].task != task {
			return ends[i], true
		}
	}
	return completion{}, false
}

// referenceSuspensions is, for every fragment of tcs by thread and
// place, when its task was suspended before it by brute force: the
// latest end at or before the fragment's start of the task's closed
// fragments on any thread, or -1.
func referenceSuspensions(tcs []*threadCollector) [][]int64 {
	ends := map[uint64][]int64{}
	for _, tc := range tcs {
		for _, f := range tc.closedFrags() {
			ends[f.task] = append(ends[f.task], f.end)
		}
	}
	out := make([][]int64, len(tcs))
	for ti, tc := range tcs {
		out[ti] = make([]int64, len(tc.frags))
		for i, f := range tc.frags {
			latest, found := int64(-1), false
			for _, e := range ends[f.task] {
				if e <= f.start && (!found || e > latest) {
					latest, found = e, true
				}
			}
			out[ti][i] = latest
		}
	}
	return out
}

// checkJoins lays out the records of tcs as finish does, holds the
// suspension time the walk looks up at every fragment to
// referenceSuspensions and joinEdge to referenceLatestEnd over them, and
// returns what differs. The query the walk makes at a resumed fragment
// depends on the fragment alone — its task, its start, and when the
// task was suspended before it — so every fragment's is asked, those
// the walk meets among them; then 200 random queries drawn from seed,
// over the ends' own times and tasks, to hit every tie.
func checkJoins(tcs []*threadCollector, seed int64) []string {
	tasks, _ := mergeTasks(tcs, newRegionNames())
	pt := newPathTables(tcs, tasks)
	rng := rand.New(rand.NewSource(seed))
	ref := completions(tcs)
	var bad []string
	check := func(from, to int64, task uint64) {
		want, wantOK := referenceLatestEnd(ref, from, to, task)
		end, thread, ok := joinEdge(tcs, from, to, task)
		got := completion{end.time, end.id, int32(thread)}
		if ok != wantOK || ok && got != want {
			bad = append(bad, fmt.Sprintf("join into task %d in [%d, %d]: got %+v (%v), want %+v (%v)", task, from, to, got, ok, want, wantOK))
		}
	}
	for ti, suspended := range referenceSuspensions(tcs) {
		for i, want := range suspended {
			f := &tcs[ti].frags[i]
			if got := pt.suspendedAt(ti, i, f.start); got != want {
				bad = append(bad, fmt.Sprintf("task %d resumed at %d on thread %d: suspended at %d, want %d", f.task, f.start, tcs[ti].tid, got, want))
			}
			check(want, f.start, f.task)
		}
	}
	if len(ref) == 0 {
		return bad
	}
	at := func() int64 { return ref[rng.Intn(len(ref))].time + rng.Int63n(3) - 1 }
	for range 200 {
		from, to, task := at(), at(), ref[rng.Intn(len(ref))].task
		if from > to {
			from, to = to, from
		}
		switch rng.Intn(4) {
		case 0:
			from = -1 // a task never suspended before
		case 1:
			task = 0
		}
		check(from, to, task)
	}
	return bad
}

// joinMismatches checks the join search over the threads of tr that
// match q.
func joinMismatches(tr *trace.Trace, q trace.Query, seed int64) []string {
	return checkJoins(collect(tr, q), seed)
}

// The three traces below plant the ties and the disorder the search
// must resolve as the merged list did. In each, thread 0 runs task 1,
// which creates tasks 2 and 3, suspends at a taskwait to run task 2 and
// resumes at t=60; thread 1 runs task 3 meanwhile. The walk starts on
// thread 0, which ends last, and at the resume looks for the join edge
// among the ends in [11, 60].

// joinTrace is that shape, with thread 1's stream after task 3's begin
// given by tail.
func joinTrace(tail ...trace.Event) *trace.Trace {
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
			{Time: 8, Type: trace.EvTaskCreateBegin, Region: taskB, TaskID: 1},
			{Time: 9, Type: trace.EvTaskCreateEnd, Region: taskB, TaskID: 3},
			{Time: 10, Type: trace.EvEnter, Region: tw, TaskID: 1},
			{Time: 11, Type: trace.EvTaskBegin, Region: taskB, TaskID: 2},
			{Time: 50, Type: trace.EvTaskEnd, Region: taskB, TaskID: 2},
			{Time: 60, Type: trace.EvTaskSwitch, TaskID: 1},
			{Time: 61, Type: trace.EvExit, Region: tw, TaskID: 1},
			{Time: 70, Type: trace.EvTaskEnd, Region: taskA, TaskID: 1},
			{Time: 71, Type: trace.EvTaskSwitch},
			{Time: 72, Type: trace.EvExit, Region: tw},
			{Time: 73, Type: trace.EvExit, Region: par},
			{Time: 80, Type: trace.EvThreadEnd},
		},
		1: append([]trace.Event{
			{Time: 0, Type: trace.EvThreadBegin},
			{Time: 1, Type: trace.EvEnter, Region: par},
			{Time: 2, Type: trace.EvEnter, Region: tw},
			{Time: 12, Type: trace.EvTaskBegin, Region: taskB, TaskID: 3},
		}, tail...),
	}}
}

// equalTimeEndsTrace ends task 3 on thread 1 at t=50, when task 2 ends
// on thread 0: of the equal times the later thread's end is the edge.
func equalTimeEndsTrace() *trace.Trace {
	rs := fuzzRegions()
	return joinTrace(
		trace.Event{Time: 50, Type: trace.EvTaskEnd, Region: rs[7], TaskID: 3},
		trace.Event{Time: 51, Type: trace.EvTaskSwitch},
		trace.Event{Time: 52, Type: trace.EvExit, Region: rs[2]},
		trace.Event{Time: 53, Type: trace.EvExit, Region: rs[1]},
		trace.Event{Time: 54, Type: trace.EvThreadEnd},
	)
}

// strayEndTieTrace ends task 3 on thread 1 at t=40 and then, its clock
// standing still at t=50, closes a fragment of task 4 and records an
// end of task 9, which is not running: a stray end tied with a fragment
// end on its own thread and with task 2's end on thread 0.
func strayEndTieTrace() *trace.Trace {
	rs := fuzzRegions()
	return joinTrace(
		trace.Event{Time: 40, Type: trace.EvTaskEnd, Region: rs[7], TaskID: 3},
		trace.Event{Time: 41, Type: trace.EvTaskBegin, Region: rs[6], TaskID: 4},
		trace.Event{Time: 50, Type: trace.EvTaskEnd, Region: rs[6], TaskID: 4},
		trace.Event{Time: 50, Type: trace.EvTaskEnd, Region: rs[6], TaskID: 9},
		trace.Event{Time: 52, Type: trace.EvExit, Region: rs[2]},
		trace.Event{Time: 53, Type: trace.EvExit, Region: rs[1]},
		trace.Event{Time: 54, Type: trace.EvThreadEnd},
	)
}

// backwardsEndsTrace ends task 3 on thread 1 at t=55 and then runs its
// clock back, so that task 4 ends after it at t=45: the thread's ends do
// not ascend, and only once they are sorted is t=55 the edge.
func backwardsEndsTrace() *trace.Trace {
	rs := fuzzRegions()
	return joinTrace(
		trace.Event{Time: 55, Type: trace.EvTaskEnd, Region: rs[7], TaskID: 3},
		trace.Event{Time: 30, Type: trace.EvTaskBegin, Region: rs[6], TaskID: 4},
		trace.Event{Time: 45, Type: trace.EvTaskEnd, Region: rs[6], TaskID: 4},
		trace.Event{Time: 46, Type: trace.EvTaskSwitch},
		trace.Event{Time: 47, Type: trace.EvExit, Region: rs[2]},
		trace.Event{Time: 48, Type: trace.EvExit, Region: rs[1]},
		trace.Event{Time: 49, Type: trace.EvThreadEnd},
	)
}

// joinSeeds are the three traces as FuzzAnalyze seeds them, through the
// fuzzer's own encoding.
func joinSeeds() (names []string, traces []*trace.Trace) {
	for _, s := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"equal-time-ends", equalTimeEndsTrace()},
		{"stray-end-tie", strayEndTieTrace()},
		{"backwards-ends", backwardsEndsTrace()},
	} {
		names = append(names, s.name)
		traces = append(traces, decodeFuzzTrace(encodeFuzzTrace(s.tr)))
	}
	return names, traces
}
