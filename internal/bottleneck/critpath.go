package bottleneck

import (
	"cmp"
	"slices"
	"sort"
)

// pathTables answers what the critical-path walk looks up at a resumed
// fragment besides the threads' own task ends: when its task was
// suspended, which opens the window the join must fall in. Links answer
// it; where they cannot, every task's fragment ends by task slot
// (fragEnds[fragOffsets[s]:fragOffsets[s+1]], ascending), laid out at
// the first such question.
type pathTables struct {
	tcs         []*threadCollector
	tasks       []taskInfo
	fragOffsets []int32
	fragEnds    []int64
}

// newPathTables puts every thread's task ends in the order joinEdge
// searches them in.
func newPathTables(tcs []*threadCollector, tasks []taskInfo) *pathTables {
	for _, tc := range tcs {
		tc.orderEnds()
	}
	return &pathTables{tcs: tcs, tasks: tasks}
}

// suspendedAt is when the task of fragment fi of thread w, resumed at
// start, was suspended: the latest end of the task's closed fragments
// at or before start, or -1.
//
// Where the thread's fragments ascend from its first event on and the
// task's are linked, start is the fragment's own, the task's fragment
// ends ascend in stream order, and no later fragment ends before this
// one starts unless this one took no time: the answer is then start,
// and otherwise the end of the fragment linked before it.
func (pt *pathTables) suspendedAt(w, fi int, start int64) int64 {
	tc := pt.tcs[w]
	f := &tc.frags[fi]
	if tc.unordered || pt.tasks[f.slot].stray {
		if pt.fragOffsets == nil {
			fragTables.Add(1)
			pt.fragOffsets, pt.fragEnds = fragmentEnds(pt.tcs, pt.tasks)
		}
		mine := pt.fragEnds[pt.fragOffsets[f.slot]:pt.fragOffsets[f.slot+1]]
		if i := sort.Search(len(mine), func(i int) bool { return mine[i] > start }); i > 0 {
			return mine[i-1]
		}
		return -1
	}
	if f.end == f.start && fi < len(tc.closedFrags()) {
		return f.start
	}
	if prev := tc.links[fi]; prev >= 0 {
		return tc.frags[prev].end
	}
	return -1
}

func compareStamps(a, b taskStamp) int {
	return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.id, b.id))
}

// orderEnds puts both lists of the thread's task ends in (time, task)
// order. Stream order is that unless the clock ran backwards, or stood
// still over two ends out of id order, as observe noted: only then is a
// list sorted, counted by sortFallbacks.
func (tc *threadCollector) orderEnds() {
	if tc.endsUnsorted {
		sortFallbacks.Add(1)
		slices.SortFunc(tc.ends, func(x, y int32) int {
			return compareStamps(taskStamp{tc.frags[x].task, tc.frags[x].end}, taskStamp{tc.frags[y].task, tc.frags[y].end})
		})
		tc.endsUnsorted = false
	}
	if tc.strayUnsorted {
		sortFallbacks.Add(1)
		slices.SortFunc(tc.strayEnds, compareStamps)
		tc.strayUnsorted = false
	}
}

// latestEnd returns the greatest (time, task) of the thread's task ends
// in [from, to] whose task is not task. Each list is searched for the
// last end at or before to and walked back from there, past the ends of
// task itself.
func (tc *threadCollector) latestEnd(from, to int64, task uint64) (best taskStamp, ok bool) {
	ends := tc.ends
	for i := sort.Search(len(ends), func(i int) bool { return tc.frags[ends[i]].end > to }) - 1; i >= 0 && tc.frags[ends[i]].end >= from; i-- {
		if f := &tc.frags[ends[i]]; f.task != task {
			best, ok = taskStamp{f.task, f.end}, true
			break
		}
	}
	strays := tc.strayEnds
	for i := sort.Search(len(strays), func(i int) bool { return strays[i].time > to }) - 1; i >= 0 && strays[i].time >= from; i-- {
		if e := strays[i]; e.id != task {
			if !ok || compareStamps(e, best) > 0 {
				best, ok = e, true
			}
			break
		}
	}
	return best, ok
}

// joinEdge finds the join edge into task, resumed at to after a
// suspension that opened at from: of every thread's task ends in [from,
// to] of a task other than task, the greatest in (time, thread, task)
// order, and the place of its thread in tcs.
func joinEdge(tcs []*threadCollector, from, to int64, task uint64) (end taskStamp, thread int, ok bool) {
	thread = -1
	for ti, tc := range tcs {
		// Threads ascend: of equal times the later thread is the greater.
		if e, found := tc.latestEnd(from, to, task); found && (thread < 0 || e.time >= end.time) {
			end, thread = e, ti
		}
	}
	return end, thread, thread >= 0
}

// fragmentEnds lays the end times of every task's closed fragments out
// by task slot, ascending: a counting sort on the slot. A task's
// fragments ascend already unless it moved between threads.
func fragmentEnds(tcs []*threadCollector, tasks []taskInfo) (offsets []int32, ends []int64) {
	offsets = make([]int32, len(tasks)+2)
	for _, tc := range tcs {
		for _, f := range tc.closedFrags() {
			offsets[f.slot+2]++
		}
	}
	for s := 2; s < len(offsets); s++ {
		offsets[s] += offsets[s-1]
	}
	// offsets[s+1] is now where slot s starts; filling advances it to
	// where slot s ends, which is where slot s+1 starts.
	ends = make([]int64, offsets[len(offsets)-1])
	for _, tc := range tcs {
		for _, f := range tc.closedFrags() {
			ends[offsets[f.slot+1]] = f.end
			offsets[f.slot+1]++
		}
	}
	offsets = offsets[:len(tasks)+1]
	for s := range tasks {
		if of := ends[offsets[s]:offsets[s+1]]; !slices.IsSorted(of) {
			slices.Sort(of)
		}
	}
	return offsets, ends
}

// countSegments is the number of pieces in tc's gap-free timeline over
// [firstTime, lastTime]: its fragments, the implicit-task filler
// between them, and a fragment still open at stream end (a truncated
// trace), closed at the last observed time. The pieces of the
// fragments before the last were counted as the next one began.
func (tc *threadCollector) countSegments() int {
	n, cur := tc.segments, tc.segEnd
	if !tc.inFrag && len(tc.frags) > 0 {
		last, end := pieces(&tc.frags[len(tc.frags)-1], cur)
		n, cur = n+last, end
	}
	if tc.inFrag && tc.lastTime > cur {
		if open := tc.frags[len(tc.frags)-1]; open.start > cur {
			n++
		}
		n++
		cur = tc.lastTime
	}
	if tc.lastTime > cur {
		n++
	}
	return n
}

// segmentAt finds the piece of tc's timeline covering (start, t]: the
// fragment tc.frags[fi], or implicit-task filler when fi < 0. The
// fragments are searched in place and the filler between neighbours is
// synthesised. ok is false when t is at or before the thread's first
// event.
func (tc *threadCollector) segmentAt(t int64) (fi int, start int64, ok bool) {
	closed := tc.closedFrags()
	i := sort.Search(len(closed), func(i int) bool { return closed[i].end >= t })
	if i < len(closed) && closed[i].start < t {
		return i, closed[i].start, true
	}
	// Not inside a closed fragment: t lies after fragment i-1 and at or
	// before the start of fragment i.
	fi, start = -1, tc.firstTime
	if i > 0 {
		start = closed[i-1].end
	}
	if i == len(closed) {
		if t > tc.lastTime {
			return 0, 0, false
		}
		if tc.inFrag {
			if open := tc.frags[i].start; t > open || open <= start {
				fi, start = i, max(start, open)
			}
		}
	}
	return fi, start, start < t
}

// buildCriticalPath reconstructs the task-graph critical path by a
// backward walk over the per-thread timelines and fills
// a.CriticalPath. The walk starts at the globally last-finishing thread
// and follows dependency edges backward:
//
//   - Inside a task fragment, the span is attributed to the task's
//     region.
//   - At a task's first fragment begin, a spawn edge jumps to the
//     creating thread at creation end; the begin-to-createEnd gap is
//     SpawnWait.
//   - At a resumed fragment's begin, a join edge jumps to the child
//     task (the latest task completion inside the suspension window,
//     found by searching each thread's own task ends);
//     the resume-to-completion gap is JoinWait. Without a candidate the
//     walk continues backward on the same thread.
//   - Inside implicit-task filler, a matched barrier instance whose
//     exit falls in the span hands off to the instance's last arriver
//     at its arrival time; the release span (exit - lastArrival) is
//     Other. Each instance is traversed at most once.
//
// Every step moves the cursor strictly backward in time, attributing
// each span to exactly one bucket, so sum(Regions.Time) + SpawnWait +
// JoinWait + Other == Length. If the walk gets stuck before the global
// start (a thread began later than the recording with no inbound
// edge), the remainder is Other.
func buildCriticalPath(a *Analysis, tcs []*threadCollector, tasks []taskInfo, pt *pathTables, visits barrierVisits, names *regionNames) {
	cp := &a.CriticalPath
	cp.StartTime = a.StartTime
	cp.EndTime = a.EndTime
	cp.Length = a.EndTime - a.StartTime
	cp.Regions = []PathRegion{}
	if cp.Length <= 0 {
		return
	}

	pathTime := make([]int64, len(names.names))
	attr := func(region int32, d int64) {
		if d > 0 {
			pathTime[region] += d
			cp.Segments++
		}
	}

	// Start on the thread whose timeline ends last (tie: smallest tid).
	w, maxSteps := 0, 16
	for ti, tc := range tcs {
		if tc.lastTime > tcs[w].lastTime {
			w = ti
		}
		maxSteps += 4 * tc.countSegments()
	}
	t := tcs[w].lastTime
	// back moves the cursor to an earlier time and returns the time
	// crossed. It stops at the recording's start: a clock that ran
	// backwards can have put an event before the first one observed.
	back := func(to int64) int64 {
		to = max(to, cp.StartTime)
		d := t - to
		t = to
		return d
	}

	for steps := 0; t > cp.StartTime; steps++ {
		fi, start, ok := tcs[w].segmentAt(t)
		if steps >= maxSteps || !ok {
			// The step bound, or below this thread's first event with
			// no inbound edge.
			cp.Other += back(cp.StartTime)
			break
		}
		if fi < 0 || tcs[w].frags[fi].task == 0 {
			// Implicit filler: prefer a barrier hand-off whose exit
			// falls inside the span.
			if ref := latestBarrierExit(visits.byExit[w], start, t); ref != nil {
				attr(implicitRegionID, back(ref.exit))
				ref.inst.handedOff = true
				// Malformed clocks: never move forward.
				cp.Other += back(min(ref.inst.lastArrival, ref.exit))
				w = ref.inst.lastThread
			} else {
				attr(implicitRegionID, back(start))
			}
			continue
		}
		f := &tcs[w].frags[fi]
		task := &tasks[f.slot]
		attr(task.region, back(start))
		if task.hasBegin && int(task.beginThread) == w && task.firstBegin == start {
			// First fragment: spawn edge to the creator. With the
			// creation unknown, continue backward on this thread.
			if task.created && task.createEnd <= t {
				cp.SpawnWait += back(task.createEnd)
				w = int(task.creator)
			}
			continue
		}
		// Resumed fragment: join edge to the latest end of another task
		// in the suspension window, which opened at the task's previous
		// fragment end; each thread's ends are searched for it. Without
		// a candidate the walk continues backward on this thread.
		if end, thread, ok := joinEdge(tcs, pt.suspendedAt(w, fi, start), t, f.task); ok {
			cp.JoinWait += back(end.time)
			w = thread
		}
	}

	// Fold the per-region path time into the report with what-if
	// projections: descending by time, equal times by name.
	for region, d := range pathTime {
		if d > 0 {
			cp.Regions = append(cp.Regions, PathRegion{
				Region:   names.names[region],
				Time:     d,
				Share:    float64(d) / float64(cp.Length),
				WhatIf10: d / 10,
				WhatIf25: d / 4,
				WhatIf50: d / 2,
			})
		}
	}
	slices.SortFunc(cp.Regions, func(x, y PathRegion) int {
		return cmp.Or(cmp.Compare(y.Time, x.Time), cmp.Compare(x.Region, y.Region))
	})
}

// latestBarrierExit finds the matched-barrier visit of one thread, not
// yet handed off through, with the largest exit in (start, end], or
// nil. refs are sorted by exit.
func latestBarrierExit(refs []visitRef, start, end int64) *visitRef {
	for i := sort.Search(len(refs), func(i int) bool { return refs[i].exit > end }) - 1; i >= 0 && refs[i].exit > start; i-- {
		if !refs[i].inst.handedOff {
			return &refs[i]
		}
	}
	return nil
}
