package bottleneck

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/analyze"
)

// Counts of the two slow paths finish can take, for tests: a record
// stream that was not in time order had to be sorted, and task ids too
// scattered for the dense table were sorted into a sparse one.
var sortFallbacks, sparseTables atomic.Int64

// regionNames numbers the region names an analysis reports, so that
// tallies are indexed or keyed by a small integer. Names, not
// descriptors, are what results carry: two descriptors of one name
// share a number.
type regionNames struct {
	ids   map[string]int32
	names []string
}

// The two pseudo-regions are numbered first: UnknownRegion is 0, so a
// zero taskInfo is a task of unknown region.
const implicitRegionID = 1

func newRegionNames() *regionNames {
	n := &regionNames{ids: make(map[string]int32)}
	n.id(UnknownRegion)
	n.id(ImplicitRegion)
	return n
}

func (n *regionNames) id(name string) int32 {
	id, ok := n.ids[name]
	if !ok {
		id = int32(len(n.names))
		n.ids[name] = id
		n.names = append(n.names, name)
	}
	return id
}

// taskInfo is the merged cross-thread view of one task instance.
// Threads are positions in the sorted thread list.
type taskInfo struct {
	createEnd   int64
	firstBegin  int64
	creator     int32
	beginThread int32
	region      int32
	created     bool
	hasBegin    bool
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

// finish merges the per-thread raw material and runs classification
// and critical-path reconstruction. Every pass takes the threads in
// sorted-tid order and breaks ties deterministically, so the result is
// identical however the observation was sharded. A thread that observed
// no event is not part of the analysis. With concurrent set, the
// critical path's lookup tables, which depend on nothing classification
// computes, are built beside it on a second goroutine.
func finish(tcs []*threadCollector, concurrent bool) *Analysis {
	tcs = slices.DeleteFunc(tcs, func(tc *threadCollector) bool { return !tc.firstValid })
	slices.SortFunc(tcs, func(x, y *threadCollector) int { return cmp.Compare(x.tid, y.tid) })

	a := &Analysis{PerThread: make(map[int]*ThreadWaits, len(tcs)), Threads: len(tcs)}
	if len(tcs) == 0 {
		a.CriticalPath.Regions = []PathRegion{}
		a.WaitStates = []WaitState{}
		a.Barriers = []BarrierInstance{}
		a.Findings = []analyze.Finding{}
		return a
	}
	a.StartTime, a.EndTime = tcs[0].firstTime, tcs[0].lastTime
	perThread := make([]ThreadWaits, len(tcs))
	for i, tc := range tcs {
		a.StartTime = min(a.StartTime, tc.firstTime)
		a.EndTime = max(a.EndTime, tc.lastTime)
		perThread[i].ThreadID = tc.tid
		a.PerThread[tc.tid] = &perThread[i]
	}
	a.WallTime = a.EndTime - a.StartTime

	names := newRegionNames()
	tasks := mergeTasks(tcs, names)
	tables := make(chan pathTables, 1)
	buildTables := func() { tables <- newPathTables(tcs, tasks) }
	if concurrent {
		go buildTables()
	}
	waits := &waitTally{names: names, index: make(map[waitKey]int), states: []WaitState{}}

	classifyDispatchGaps(perThread, tcs, tasks, waits)
	visits := matchBarriers(a, tcs, names)
	classifyIdle(perThread, tcs, pendingWindows(a.EndTime, tcs, tasks), visits, waits)

	a.WaitStates = waits.sorted()
	if !concurrent {
		buildTables()
	}
	buildCriticalPath(a, tcs, tasks, <-tables, visits, names)
	a.Findings = emitFindings(a)
	return a
}

// mergeTasks builds the global task table from all threads' creation
// and fragment records and writes every record's slot. Iteration is in
// sorted-tid order; duplicate records for one task id (malformed or
// windowed traces) keep the first seen in that order.
//
// The table is one slab of values. Task ids are handed out by one
// counter, so those of a recording are dense, and the slab is indexed
// by id - minID whenever the id range is at most twice the records
// seen; the table's size therefore follows the records, never the ids
// (a narrow window over a long archive sees few records and, through
// resumed old tasks, a wide range). Scattered ids are sorted once into
// a table searched by id.
func mergeTasks(tcs []*threadCollector, names *regionNames) []taskInfo {
	lo, hi, records := ^uint64(0), uint64(0), 0
	for _, tc := range tcs {
		for i := range tc.created {
			lo, hi = min(lo, tc.created[i].id), max(hi, tc.created[i].id)
		}
		for i := range tc.frags {
			lo, hi = min(lo, tc.frags[i].task), max(hi, tc.frags[i].task)
		}
		records += len(tc.created) + len(tc.frags)
	}
	if records == 0 {
		return nil
	}
	var tasks []taskInfo
	slot := func(id uint64) int32 { return int32(id - lo) }
	if hi-lo < 2*uint64(records) {
		tasks = make([]taskInfo, hi-lo+1)
	} else {
		sparseTables.Add(1)
		ids := make([]uint64, 0, records)
		for _, tc := range tcs {
			for i := range tc.created {
				ids = append(ids, tc.created[i].id)
			}
			for i := range tc.frags {
				ids = append(ids, tc.frags[i].task)
			}
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		tasks = make([]taskInfo, len(ids))
		slot = func(id uint64) int32 {
			i, _ := slices.BinarySearch(ids, id)
			return int32(i)
		}
	}

	for ti, tc := range tcs {
		regions := make([]int32, len(tc.regions))
		for i, r := range tc.regions {
			if r != nil {
				regions[i] = names.id(r.Name)
			}
		}
		for i := range tc.created {
			c := &tc.created[i]
			c.slot = slot(c.id)
			t := &tasks[c.slot]
			if t.created {
				c.slot = -1
				continue
			}
			t.created = true
			t.creator = int32(ti)
			t.createEnd = c.end
			t.region = regions[c.region]
		}
		for i := range tc.frags {
			f := &tc.frags[i]
			f.slot = slot(f.task)
			if t := &tasks[f.slot]; f.flags&fragFirst != 0 && !t.hasBegin {
				t.hasBegin = true
				t.beginThread = int32(ti)
				t.firstBegin = f.start
			}
		}
	}
	return tasks
}

// mergeRuns puts flat, the concatenation of runs delimited by bounds,
// into cmp order. Each run is one thread's records in stream order, so
// the runs are sorted unless a thread's clock ran backwards — one
// comparison per record tells — and merging neighbours pairwise is
// linear in the records; otherwise the whole is sorted.
func mergeRuns[T any](flat []T, bounds []int, cmp func(a, b T) int) []T {
	for i := 1; i < len(bounds); i++ {
		if !slices.IsSortedFunc(flat[bounds[i-1]:bounds[i]], cmp) {
			sortFallbacks.Add(1)
			slices.SortFunc(flat, cmp)
			return flat
		}
	}
	var tmp []T
	for len(bounds) > 2 {
		next := bounds[:1:1]
		for i := 2; i < len(bounds); i += 2 {
			tmp = mergeNeighbours(flat[bounds[i-2]:bounds[i]], bounds[i-1]-bounds[i-2], tmp, cmp)
			next = append(next, bounds[i])
		}
		if len(bounds)%2 == 0 {
			next = append(next, bounds[len(bounds)-1])
		}
		bounds = next
	}
	return flat
}

// mergeNeighbours merges the sorted s[:mid] and s[mid:] in place, equal
// records keeping their order. Only the shorter side is copied out, to
// tmp, which is returned for the next call.
func mergeNeighbours[T any](s []T, mid int, tmp []T, cmp func(a, b T) int) []T {
	if mid <= len(s)-mid {
		tmp = append(tmp[:0], s[:mid]...)
		x, y, k := tmp, s[mid:], 0
		for ; len(x) > 0 && len(y) > 0; k++ {
			if cmp(y[0], x[0]) < 0 {
				s[k], y = y[0], y[1:]
			} else {
				s[k], x = x[0], x[1:]
			}
		}
		copy(s[k:], x)
		return tmp
	}
	tmp = append(tmp[:0], s[mid:]...)
	x, y, k := s[:mid], tmp, len(s)
	for len(x) > 0 && len(y) > 0 {
		k--
		if last := len(x) - 1; cmp(y[len(y)-1], x[last]) < 0 {
			s[k], x = x[last], x[:last]
		} else {
			s[k], y = y[len(y)-1], y[:len(y)-1]
		}
	}
	copy(s[k-len(y):], y)
	return tmp
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

// waitTally aggregates classified waits per (kind, victim, cause,
// region).
type waitTally struct {
	names  *regionNames
	index  map[waitKey]int
	states []WaitState
}

type waitKey struct {
	kind        analyze.Kind
	thread      int
	causeThread int
	region      int32
}

func (t *waitTally) add(kind analyze.Kind, victim, cause int, region int32, d int64) {
	if d <= 0 {
		return
	}
	k := waitKey{kind, victim, cause, region}
	i, ok := t.index[k]
	if !ok {
		i = len(t.states)
		t.index[k] = i
		t.states = append(t.states, WaitState{Kind: kind, Thread: victim, CauseThread: cause, Region: t.names.names[region]})
	}
	t.states[i].Time += d
	t.states[i].Count++
}

func (t *waitTally) sorted() []WaitState {
	slices.SortFunc(t.states, func(a, b WaitState) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Thread, b.Thread),
			cmp.Compare(a.CauseThread, b.CauseThread), cmp.Compare(a.Region, b.Region))
	})
	return t.states
}

// classifyDispatchGaps splits every dispatch gap into a late-spawn
// portion (the gap overlapped the spawned task's creation, and the
// creator is a different thread) and a plain-dispatch remainder.
//
// Detection rule: for a gap [g.start, g.end) on victim w ending at the
// FIRST begin of task T, with T created by thread c != w and
// g.start < T.createEnd, the span [g.start, min(T.createEnd, g.end)] is
// LateTaskSpawn wait caused by c on T's region. Everything else —
// resume gaps, self-created tasks, tasks whose creation fell outside
// the window — is plain dispatch latency.
func classifyDispatchGaps(perThread []ThreadWaits, tcs []*threadCollector, tasks []taskInfo, waits *waitTally) {
	for ti, tc := range tcs {
		tw := &perThread[ti]
		for i := range tc.frags {
			f := &tc.frags[i]
			gapLen := f.start - f.gapStart
			if f.flags&fragGap == 0 || gapLen <= 0 {
				continue
			}
			late := int64(0)
			if t := &tasks[f.slot]; f.flags&fragFirst != 0 && t.created && int(t.creator) != ti && f.gapStart < t.createEnd {
				late = min(t.createEnd, f.start) - f.gapStart
				waits.add(analyze.LateTaskSpawn, tc.tid, tcs[t.creator].tid, t.region, late)
			}
			tw.LateSpawnWait += late
			tw.PlainDispatchWait += gapLen - late
		}
	}
}

// instance is one matched collective barrier. Threads are positions in
// the sorted thread list.
type instance struct {
	region      int32 // number of the barrier's display name
	lastArrival int64
	lastThread  int
	handedOff   bool // the critical path already crossed it
}

// visitRef ties one thread's barrier visit to its matched instance.
type visitRef struct {
	inst        *instance
	enter, exit int64
}

// barrierVisits holds, per thread, its visits to matched instances:
// in instance order (region descriptor, ordinal) for wait attribution,
// and by exit time for the critical-path walk.
type barrierVisits struct {
	byInstance, byExit [][]visitRef
}

// matchBarriers matches the per-thread barrier visits into collective
// instances: the n-th visit of each thread to the same barrier region
// (by full descriptor) forms instance n. Instances with at least two
// participants are collective; Skew is the arrival spread and
// LastThread the last arriver (ties: smallest tid).
//
// Taskwait regions are thread-local synchronization and are not
// collectively matched.
func matchBarriers(a *Analysis, tcs []*threadCollector, names *regionNames) barrierVisits {
	type instanceKey struct {
		region  string
		ordinal int
	}
	type visit struct {
		thread      int
		enter, exit int64
	}
	byKey := make(map[instanceKey][]visit)
	display := make(map[string]string)
	for ti, tc := range tcs {
		// The descriptor is formatted once per region, not per visit.
		keys := make([]string, len(tc.regions))
		ordinal := make(map[string]int)
		for _, bv := range tc.barriers {
			key := keys[bv.region]
			if key == "" {
				key = tc.regions[bv.region].String()
				keys[bv.region] = key
				display[key] = tc.regions[bv.region].Name
			}
			n := ordinal[key]
			ordinal[key] = n + 1
			k := instanceKey{key, n}
			byKey[k] = append(byKey[k], visit{ti, bv.enter, bv.exit})
		}
	}

	keys := make([]instanceKey, 0, len(byKey))
	for k, vs := range byKey {
		if len(vs) >= 2 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(x, y instanceKey) int {
		return cmp.Or(cmp.Compare(x.region, y.region), cmp.Compare(x.ordinal, y.ordinal))
	})
	instances := make([]instance, len(keys))
	bv := barrierVisits{byInstance: make([][]visitRef, len(tcs)), byExit: make([][]visitRef, len(tcs))}
	a.Barriers = make([]BarrierInstance, 0, len(keys))
	for i, k := range keys {
		vs := byKey[k]
		inst := &instances[i]
		*inst = instance{region: names.id(display[k.region]), lastArrival: vs[0].enter, lastThread: vs[0].thread}
		first := vs[0].enter
		// Visits are in thread order, so the first of the latest
		// arrivals is the one with the smallest tid.
		for _, v := range vs {
			first = min(first, v.enter)
			if v.enter > inst.lastArrival {
				inst.lastArrival = v.enter
				inst.lastThread = v.thread
			}
			bv.byInstance[v.thread] = append(bv.byInstance[v.thread], visitRef{inst: inst, enter: v.enter, exit: v.exit})
		}
		a.Barriers = append(a.Barriers, BarrierInstance{
			Region:       display[k.region],
			Ordinal:      k.ordinal,
			Threads:      len(vs),
			FirstArrival: first,
			LastArrival:  inst.lastArrival,
			LastThread:   tcs[inst.lastThread].tid,
			Skew:         inst.lastArrival - first,
		})
	}
	for ti, refs := range bv.byInstance {
		bv.byExit[ti] = slices.Clone(refs)
		slices.SortFunc(bv.byExit[ti], func(x, y visitRef) int { return cmp.Compare(x.exit, y.exit) })
	}
	return bv
}

// idleScratch is the working memory classifyIdle reuses from one idle
// span to the next.
type idleScratch struct {
	active    []int32 // pending windows open around the span, as indices
	overlaps  []span
	remainder []span
	creators  []int   // threads holding work during the span
	held      []int64 // per thread: summed overlap of its pending tasks
	bestTask  []int32 // per thread: its most-overlapping pending window
	bestTime  []int64
}

// classifyIdle splits every idle span inside a sync region into a
// starved-thief portion (overlap with another thread's
// created-but-unstarted tasks), a barrier-imbalance portion (the
// remainder that falls between this thread's arrival and the last
// arrival of a matched barrier instance), and unclassified idle.
// Starved-thief takes precedence over barrier imbalance: work that
// existed but was not distributed is the actionable diagnosis.
func classifyIdle(perThread []ThreadWaits, tcs []*threadCollector, pending []pendingWindow, visits barrierVisits, waits *waitTally) {
	s := idleScratch{held: make([]int64, len(tcs)), bestTask: make([]int32, len(tcs)), bestTime: make([]int64, len(tcs))}
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

// mergeSpans unions possibly-overlapping spans, in place, into disjoint
// ones.
func mergeSpans(spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.start, y.start) })
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.start <= last.end {
			last.end = max(last.end, s.end)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// subtractSpans appends to out what the (disjoint, sorted) holes leave
// of base.
func subtractSpans(out []span, base span, holes []span) []span {
	cur := base.start
	for _, h := range holes {
		if h.start > cur {
			out = append(out, span{cur, h.start})
		}
		cur = max(cur, h.end)
	}
	if base.end > cur {
		out = append(out, span{cur, base.end})
	}
	return out
}
