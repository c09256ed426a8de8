package bottleneck

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/analyze"
	"repro/internal/trace"
)

// The idle classification as it stood before it became a sweep: every
// idle span walks every pending window open around it, and every
// barrier visit of its thread. It is quadratic on a thread that creates
// many tasks before any runs, and it is the definition the sweep is
// held to: TestRandomTaskGraphs requires the same wait states from both
// on every well-formed trace.

// collect fills one collector per thread of tr that has an event
// matching q, in thread order.
func collect(tr *trace.Trace, q trace.Query) []*threadCollector {
	var tcs []*threadCollector
	for tid, events := range tr.Threads {
		tc := newThreadCollector(tid, 0)
		for i := range events {
			if q.MatchThread(tid) && q.MatchTime(events[i].Time) {
				tc.observe(&events[i])
			}
		}
		if tc.firstValid {
			tcs = append(tcs, tc)
		}
	}
	slices.SortFunc(tcs, func(x, y *threadCollector) int { return cmp.Compare(x.tid, y.tid) })
	return tcs
}

// referenceWaits classifies the waits of the sub-trace of tr matching q
// as finish does, with classifyIdleReference in the place of
// classifyIdle.
func referenceWaits(tr *trace.Trace, q trace.Query) ([]ThreadWaits, []WaitState) {
	tcs := collect(tr, q)
	a := &Analysis{EndTime: math.MinInt64}
	perThread := make([]ThreadWaits, len(tcs))
	for i, tc := range tcs {
		a.EndTime = max(a.EndTime, tc.lastTime)
		perThread[i].ThreadID = tc.tid
	}
	names := newRegionNames()
	tasks, _ := mergeTasks(tcs, names)
	waits := &waitTally{names: names, index: make(map[waitKey]int), states: []WaitState{}}
	cl := &classifier{tcs: tcs, tasks: tasks}
	for ti := range tcs {
		cl.classifyDispatchGaps(ti, &perThread[ti], waits)
	}
	visits := matchBarriers(a, tcs, names)
	classifyIdleReference(perThread, tcs, pendingWindows(a.EndTime, tcs, tasks), visits, waits)
	return perThread, waits.sorted()
}

// pendingWindow is a task's created-but-unstarted span.
type pendingWindow struct {
	task    uint64
	start   int64 // createEnd
	end     int64 // firstBegin, or analysis end when never begun
	creator int32
	region  int32
}

func comparePending(a, b pendingWindow) int {
	return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.task, b.task))
}

// pendingWindows lists every created task's created-but-unstarted span,
// ordered by (start, task): each thread's creations are in that order
// already, so the threads' runs are merged.
func pendingWindows(endTime int64, tcs []*threadCollector, tasks []taskInfo) []pendingWindow {
	n := 0
	for _, tc := range tcs {
		n += len(tc.created)
	}
	flat := make([]pendingWindow, 0, n)
	bounds := make([]int, 0, len(tcs)+1)
	for _, tc := range tcs {
		bounds = append(bounds, len(flat))
		for i := range tc.created {
			c := &tc.created[i]
			if c.slot < 0 {
				continue
			}
			t := &tasks[c.slot]
			end := endTime
			if t.hasBegin {
				end = t.firstBegin
			}
			if end <= c.end {
				continue
			}
			flat = append(flat, pendingWindow{task: c.id, creator: t.creator, region: t.region, start: c.end, end: end})
		}
	}
	return mergeRuns(flat, append(bounds, len(flat)), comparePending)
}

// refIdleScratch is the working memory classifyIdleReference reuses from one idle
// span to the next.
type refIdleScratch struct {
	active    []int32 // pending windows open around the span, as indices
	overlaps  []span
	remainder []span
	creators  []int   // threads holding work during the span
	held      []int64 // per thread: summed overlap of its pending tasks
	bestTask  []int32 // per thread: its most-overlapping pending window
	bestTime  []int64
}

// classifyIdleReference splits every idle span inside a sync region into a
// starved-thief portion (overlap with another thread's
// created-but-unstarted tasks), a barrier-imbalance portion (the
// remainder that falls between this thread's arrival and the last
// arrival of a matched barrier instance), and unclassified idle.
// Starved-thief takes precedence over barrier imbalance: work that
// existed but was not distributed is the actionable diagnosis.
func classifyIdleReference(perThread []ThreadWaits, tcs []*threadCollector, pending []pendingWindow, visits barrierVisits, waits *waitTally) {
	s := refIdleScratch{held: make([]int64, len(tcs)), bestTask: make([]int32, len(tcs)), bestTime: make([]int64, len(tcs))}
	var barWins []span
	for ti, tc := range tcs {
		tw := &perThread[ti]
		// Barrier wait windows for this thread: [arrival, lastArrival]
		// of every matched instance it participated in where it was not
		// the last arriver.
		mine := visits.byInstance[ti]
		barWins = barWins[:0]
		for _, v := range mine {
			if v.inst.lastThread != ti && v.inst.lastArrival > v.enter {
				barWins = append(barWins, span{v.enter, v.inst.lastArrival})
			}
		}
		slices.SortFunc(barWins, func(x, y span) int { return cmp.Compare(x.start, y.start) })

		next := 0
		s.active = s.active[:0]
		for _, idle := range tc.idles {
			idleLen := idle.end - idle.start
			if idleLen <= 0 {
				continue
			}
			// Sweep pending windows into the active set, and prune those
			// that ended before this idle span.
			for next < len(pending) && pending[next].start < idle.end {
				s.active = append(s.active, int32(next))
				next++
			}
			s.active = slices.DeleteFunc(s.active, func(i int32) bool { return pending[i].end <= idle.start })

			// Starved-thief: overlap with other threads' pending tasks.
			// The classified portion is the union of the overlaps; the
			// cause is the creator with the largest summed overlap, the
			// region its single most-overlapping task.
			s.overlaps, s.creators = s.overlaps[:0], s.creators[:0]
			for _, i := range s.active {
				pw := &pending[i]
				c := int(pw.creator)
				ov := overlap(idle, span{pw.start, pw.end})
				if c == ti || ov.end <= ov.start {
					continue
				}
				s.overlaps = append(s.overlaps, ov)
				d := ov.end - ov.start
				if s.held[c] == 0 {
					s.creators = append(s.creators, c)
					s.bestTime[c] = 0
				}
				s.held[c] += d
				if d > s.bestTime[c] || (d == s.bestTime[c] && pw.task < pending[s.bestTask[c]].task) {
					s.bestTime[c] = d
					s.bestTask[c] = i
				}
			}
			merged := mergeSpans(s.overlaps)
			var starved int64
			for _, m := range merged {
				starved += m.end - m.start
			}
			if starved > 0 {
				// The largest holder; of equals, the smallest tid.
				slices.Sort(s.creators)
				cause := s.creators[0]
				for _, c := range s.creators[1:] {
					if s.held[c] > s.held[cause] {
						cause = c
					}
				}
				waits.add(analyze.StarvedThief, tc.tid, tcs[cause].tid, pending[s.bestTask[cause]].region, starved)
				tw.StarvedWait += starved
			}
			for _, c := range s.creators {
				s.held[c] = 0
			}

			// Barrier imbalance: the unclaimed remainder intersected
			// with this thread's barrier wait windows.
			s.remainder = subtractSpans(s.remainder[:0], idle, merged)
			var barrier int64
			for _, r := range s.remainder {
				for _, bw := range barWins {
					if ov := overlap(r, bw); ov.end > ov.start {
						barrier += ov.end - ov.start
					}
				}
			}
			if barrier > 0 {
				// Attribute to the first instance, in instance order,
				// whose wait window overlaps the idle span (windows are
				// per-thread disjoint in well-formed traces).
				cause, region := -1, waits.names.id("")
				for _, v := range mine {
					if v.inst.lastThread == ti {
						continue
					}
					if ov := overlap(idle, span{v.enter, v.inst.lastArrival}); ov.end > ov.start {
						cause, region = tcs[v.inst.lastThread].tid, v.inst.region
						break
					}
				}
				waits.add(analyze.BarrierImbalance, tc.tid, cause, region, barrier)
				tw.BarrierWait += barrier
			}

			tw.UnclassifiedIdle += idleLen - starved - barrier
		}
	}
}

func overlap(a, b span) span {
	return span{max(a.start, b.start), min(a.end, b.end)}
}
