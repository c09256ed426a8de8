package bottleneck

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/analyze"
)

// Counts for tests. Of the three slow paths finish can take: a record
// stream that was not in time order had to be sorted; the ids a
// recording creates were spread too wide for the dense part of the task
// table, so that the side table took some of them; and the walk asked
// when a task was suspended that links could not tell, so that every
// task's fragment ends were laid out. Of the work classifyIdle did:
// search probes made and windows walked or laid out, and creators whose
// pending windows it laid out.
var sortFallbacks, sparseTables, fragTables, classifySteps, pendingBuilds atomic.Int64

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
//
// A task's fragments are linked when all lie on one thread and each but
// the first resumed the task from the thread's stack of suspended ones:
// then the first is its one unlinked fragment. unlinked is set at the
// first, stray at a second, which sends the task's suspension times to
// the fragment table.
type taskInfo struct {
	createEnd   int64
	firstBegin  int64
	creator     int32
	beginThread int32
	region      int32
	created     bool
	hasBegin    bool
	unlinked    bool
	stray       bool
}

// finish merges the per-thread raw material of the threads that
// observed an event, in tid order, and runs classification and
// critical-path reconstruction. Every pass takes the threads in that
// order and breaks ties deterministically, so the result is identical
// however the observation was sharded.
func finish(tcs []*threadCollector) *Analysis {
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
	waits := &waitTally{names: names, index: make(map[waitKey]int), states: []WaitState{}}

	classifyDispatchGaps(perThread, tcs, tasks, waits)
	visits := matchBarriers(a, tcs, names)
	classifyIdle(perThread, tcs, tasks, a.EndTime, visits, waits)

	a.WaitStates = waits.sorted()
	buildCriticalPath(a, tcs, tasks, newPathTables(tcs, tasks), visits, names)
	a.Findings = emitFindings(a)
	return a
}

// taskSlots places task ids in the task table: the ids from cut up are
// dense, at len(side) + id - cut, and the few below it are the side
// table, ascending, in the places before them.
type taskSlots struct {
	side []uint64
	cut  uint64
}

func (s *taskSlots) slot(id uint64) int32 {
	if id >= s.cut {
		return int32(uint64(len(s.side)) + id - s.cut)
	}
	i, _ := slices.BinarySearch(s.side, id)
	return int32(i)
}

// newTaskSlots lays out the task table of the threads' creation and
// fragment records, as mergeTasks describes, and returns its size. The
// bounds of the ids are the ones each collector kept as it recorded;
// the records are walked only to fill a side table, which only a window
// or ids no recorder hands out need.
func newTaskSlots(tcs []*threadCollector) (taskSlots, int) {
	lo, hi, firstCreated, records := ^uint64(0), uint64(0), ^uint64(0), 0
	for _, tc := range tcs {
		lo, hi, firstCreated = min(lo, tc.idLo), max(hi, tc.idHi), min(firstCreated, tc.createdLo)
		records += len(tc.created) + len(tc.frags)
	}
	if records == 0 {
		return taskSlots{}, 0
	}
	width := 2 * uint64(records) // the most ids the dense part spans
	s := taskSlots{cut: lo}
	if hi-lo >= width {
		if s.cut = min(firstCreated, hi); hi-s.cut >= width {
			sparseTables.Add(1)
			s.cut = hi - (width - 1)
		}
		for _, tc := range tcs {
			for i := range tc.created {
				if id := tc.created[i].id; id < s.cut {
					s.side = append(s.side, id)
				}
			}
			for i := range tc.frags {
				if id := tc.frags[i].task; id < s.cut {
					s.side = append(s.side, id)
				}
			}
		}
		slices.Sort(s.side)
		s.side = slices.Compact(s.side)
	}
	return s, len(s.side) + int(hi-s.cut) + 1
}

// mergeTasks builds the global task table from all threads' creation
// and fragment records and writes every record's slot. Iteration is in
// sorted-tid order; duplicate records for one task id (malformed or
// windowed traces) keep the first seen in that order, and the fragment
// that gave a task its first begin is marked fragOpens. A task with a
// second unlinked fragment is marked stray.
//
// The table is one slab of values. Task ids are handed out by one
// counter, so those a recording creates are dense: the slab is dense
// from the lowest id the records create up to the highest id, and over
// the whole id range when that is at most twice the records, as for
// every whole recording. Below the cut lie the tasks created before a
// window and resumed in it, a few suspended ancestors of a flight dump
// or of a narrow window over a long archive, whose ids sit near the
// start of the run: they alone are sorted, into the side table before
// the dense part. The dense part never spans more than twice the
// records, so the table's size follows the records, never the ids;
// where the created ids spread wider (ids no recorder hands out), it
// holds the top twice-the-records ids and the rest go to the side.
func mergeTasks(tcs []*threadCollector, names *regionNames) []taskInfo {
	slots, size := newTaskSlots(tcs)
	if size == 0 {
		return nil
	}
	tasks := make([]taskInfo, size)
	for ti, tc := range tcs {
		regions := make([]int32, len(tc.regions))
		for i, r := range tc.regions {
			if r != nil {
				regions[i] = names.id(r.Name)
			}
		}
		for i := range tc.created {
			c := &tc.created[i]
			c.slot = slots.slot(c.id)
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
			f.slot = slots.slot(f.task)
			t := &tasks[f.slot]
			if f.flags&fragFirst != 0 && !t.hasBegin {
				f.flags |= fragOpens
				t.hasBegin = true
				t.beginThread = int32(ti)
				t.firstBegin = f.start
			}
			if tc.links[i] < 0 {
				t.stray = t.unlinked
				t.unlinked = true
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

// rank returns how many elements of the ascending xs are below t. It
// searches outward from *finger, where the last search of xs ended, in
// doubling steps and then by bisection: the idle spans of a well-formed
// stream come in time order, so the answer is mostly a few elements on,
// and it is O(log n) away wherever else it lies. steps counts the
// probes.
func rank(xs []int64, t int64, finger *int, steps *int64) int {
	n := len(xs)
	i := min(*finger, n)
	lo, hi := 0, n // every element before lo is below t, none from hi on
	if i < n && xs[i] < t {
		for step := 1; ; step *= 2 {
			lo = i + 1
			if i += step; i >= n || xs[i] >= t {
				hi = min(i, n)
				break
			}
			*steps++
		}
	} else {
		for step := 1; ; step *= 2 {
			hi = i
			if i -= step; i < 0 || xs[i] < t {
				lo = max(i+1, 0)
				break
			}
			*steps++
		}
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); xs[m] < t {
			lo = m + 1
		} else {
			hi = m
		}
		*steps++
	}
	*steps++
	*finger = lo
	return lo
}

// windowSet is a set of time windows [start, end) in start order, with
// the running maximum of their ends. The windows that can overlap a
// span then lie in one index range, found by two searches in whatever
// order the spans come: before it every window has ended, after it none
// has started.
type windowSet struct {
	start, end, maxEnd []int64
	startAt, maxEndAt  int    // fingers of the searches
	steps              *int64 // search probes made and windows walked
}

// newWindowSet returns a set of n windows for the caller to fill and
// seal.
func newWindowSet(n int, steps *int64) windowSet {
	slab := make([]int64, 3*n)
	return windowSet{start: slab[:n], end: slab[n : 2*n], maxEnd: slab[2*n:], steps: steps}
}

func (w *windowSet) seal() {
	m := int64(math.MinInt64)
	for i, e := range w.end {
		m = max(m, e)
		w.maxEnd[i] = m
	}
	*w.steps += int64(len(w.end))
}

// overlapping returns the index range outside which no window overlaps
// s: window lo is the first to end after s starts, window hi the first
// to start at or after the end of s.
func (w *windowSet) overlapping(s span) (lo, hi int) {
	return rank(w.maxEnd, s.start+1, &w.maxEndAt, w.steps), rank(w.start, s.end, &w.startAt, w.steps)
}

// cover appends to out the parts of s the windows cover, disjoint and
// ascending. It walks the windows that start inside s and stops at one
// that reaches the end of s: a span inside a long window costs the two
// searches, however many windows are open around it.
func (w *windowSet) cover(out []span, s span) []span {
	lo, hi := w.overlapping(s)
	i := lo
	for ; i < hi; i++ {
		from := max(s.start, w.start[i])
		for w.maxEnd[i] < s.end && i+1 < hi && w.start[i+1] <= w.maxEnd[i] {
			i++
		}
		out = append(out, span{from, min(w.maxEnd[i], s.end)})
		if w.maxEnd[i] >= s.end {
			break
		}
	}
	*w.steps += int64(i-lo) + 1
	return out
}

// pendingSet is one creator's pending windows: its tasks'
// created-but-unstarted spans, from the end of the creation to the
// first begin, or to the end of the analysis for a task never begun.
// Window i is that of created[i]; created holds the creations that have
// a window, by (start, task id), which is the creator's stream order
// unless its clock ran backwards.
type pendingSet struct {
	windowSet
	created []taskCreate
	// For held: the ends in ascending order (sortEnds), and the prefix
	// sums of the starts and of the sorted ends, built at its first call.
	sortedEnd, startSum, endSum []int64
	sortedEndAt                 int
}

func newPendingSet(tc *threadCollector, tasks []taskInfo, endTime int64, steps *int64) *pendingSet {
	windowEnd := func(c taskCreate) int64 {
		if c.slot < 0 {
			return c.end // a repeated creation: no window
		}
		if t := &tasks[c.slot]; t.hasBegin {
			return t.firstBegin
		}
		return endTime
	}
	tc.created = slices.DeleteFunc(tc.created, func(c taskCreate) bool { return windowEnd(c) <= c.end })
	byStart := func(a, b taskCreate) int { return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.id, b.id)) }
	if !slices.IsSortedFunc(tc.created, byStart) {
		sortFallbacks.Add(1)
		slices.SortFunc(tc.created, byStart)
	}
	p := &pendingSet{windowSet: newWindowSet(len(tc.created), steps), created: tc.created}
	for i, c := range tc.created {
		p.start[i], p.end[i] = c.end, windowEnd(c)
	}
	p.seal()
	pendingBuilds.Add(1)
	return p
}

// pendingSets are the creators' pending sets, by place in the thread
// list, each laid out when an idle span of another thread first asks
// for it.
type pendingSets struct {
	sets     []*pendingSet
	unsorted bool // a set was laid out since sortEnds last ran
	tcs      []*threadCollector
	tasks    []taskInfo
	endTime  int64
	steps    *int64
}

func (ps *pendingSets) of(c int) *pendingSet {
	if ps.sets[c] == nil {
		ps.sets[c] = newPendingSet(ps.tcs[c], ps.tasks, ps.endTime, ps.steps)
		ps.unsorted = true
	}
	return ps.sets[c]
}

// sortEnds gives every pending set laid out so far its window ends in
// ascending order, unless it has them already. A window ends at its
// task's first begin, and the first begins of one thread come in its
// stream order: walking each thread's fragments lays every creator's
// ends out as ascending runs, one per begin thread, and a last run of
// the windows whose task never began, which end at endTime. The runs are
// merged; only a clock that ran backwards makes that a sort.
func (ps *pendingSets) sortEnds() {
	if !ps.unsorted {
		return
	}
	ps.unsorted = false
	bounds := make([][]int, len(ps.sets)) // the runs of every set to sort
	for c, p := range ps.sets {
		if p != nil && p.sortedEnd == nil {
			p.sortedEnd = make([]int64, 0, len(p.end))
			bounds[c] = make([]int, 1, len(ps.tcs)+2)
		}
	}
	for _, tc := range ps.tcs {
		for i := range tc.frags {
			// A window that would end at or before its creation's end was
			// dropped by newPendingSet.
			f := &tc.frags[i]
			if t := &ps.tasks[f.slot]; f.flags&fragOpens != 0 && t.created && t.firstBegin > t.createEnd && bounds[t.creator] != nil {
				p := ps.sets[t.creator]
				p.sortedEnd = append(p.sortedEnd, t.firstBegin)
			}
		}
		for c, b := range bounds {
			if b != nil {
				bounds[c] = append(b, len(ps.sets[c].sortedEnd))
			}
		}
	}
	for c, b := range bounds {
		if b == nil {
			continue
		}
		p := ps.sets[c]
		for len(p.sortedEnd) < len(p.end) {
			p.sortedEnd = append(p.sortedEnd, ps.endTime)
		}
		b = append(b, len(p.end))
		p.sortedEnd = mergeRuns(p.sortedEnd, b, cmp.Compare[int64])
		*ps.steps += int64(len(p.end) * bits.Len(uint(len(b))))
	}
}

// held is the summed overlap of the windows with s, each window counted
// for itself. What the windows cover before a time t is
// sum(min(t, end)) - sum(min(t, start)), which the prefix sums give from
// the rank of t among the starts and among the ends sortEnds ordered;
// the overlap with s is the difference of two such. The sums wrap on a
// long recording and the result is exact all the same: the arithmetic
// is modulo 2^64 and the true value is at most windows x span.
func (p *pendingSet) held(s span) int64 {
	n := len(p.start)
	if p.startSum == nil {
		slab := make([]int64, 2*n+2)
		p.startSum, p.endSum = slab[:n+1], slab[n+1:]
		for i := range n {
			p.startSum[i+1] = p.startSum[i] + p.start[i]
			p.endSum[i+1] = p.endSum[i] + p.sortedEnd[i]
		}
		*p.steps += int64(n)
	}
	before := func(t int64) int64 {
		i, j := rank(p.start, t, &p.startAt, p.steps), rank(p.sortedEnd, t, &p.sortedEndAt, p.steps)
		return p.endSum[j] - p.startSum[i] + t*int64(i-j)
	}
	return before(s.end) - before(s.start)
}

// heaviest returns the creation whose window overlaps s longest; of
// equals, the one with the smallest task id. Of the windows that
// started by s.start the longest overlap is that of the latest end,
// which the running maximum holds, and the first window to reach it —
// or to reach the end of s: a window around the whole span always wins
// — is the earliest created, the smallest id since a creator's ids
// ascend. The windows that start inside s are compared one by one.
func (p *pendingSet) heaviest(s span) *taskCreate {
	best, bestTime := -1, int64(0)
	k := rank(p.start, s.start+1, &p.startAt, p.steps)
	if k > 0 {
		if m := min(p.maxEnd[k-1], s.end); m > s.start {
			best, bestTime = rank(p.maxEnd, m, &p.maxEndAt, p.steps), m-s.start
		}
	}
	i := k
	for ; i < len(p.start) && p.start[i] < s.end; i++ {
		d := min(p.end[i], s.end) - p.start[i]
		if d > bestTime || d == bestTime && p.created[i].id < p.created[best].id {
			best, bestTime = i, d
		}
	}
	*p.steps += int64(i - k)
	return &p.created[best]
}

// idleScratch is the working memory classifyIdle reuses from one idle
// span to the next.
type idleScratch struct {
	overlaps  []span
	remainder []span
	creators  []int   // threads holding work during the span, ascending
	barVisits []int32 // the thread's barrier waits, as places in its visit list
}

// classifyIdle splits every idle span inside a sync region into a
// starved-thief portion (overlap with another thread's
// created-but-unstarted tasks), a barrier-imbalance portion (the
// remainder that falls between this thread's arrival and the last
// arrival of a matched barrier instance), and unclassified idle.
// Starved-thief takes precedence over barrier imbalance: work that
// existed but was not distributed is the actionable diagnosis.
//
// A creator's pending windows, laid out when another thread's idle span
// first asks for them, and every thread's barrier waits are each laid
// out once as a windowSet, and an idle span asks them by rank search:
// the cost is at most O((windows + idle spans x threads + barrier
// visits) x log), plus the windows and waits that start inside a span,
// which for the disjoint spans of a well-formed stream are each walked
// once per victim. No answer depends on the order of the spans.
func classifyIdle(perThread []ThreadWaits, tcs []*threadCollector, tasks []taskInfo, endTime int64, visits barrierVisits, waits *waitTally) {
	var steps int64
	pending := pendingSets{sets: make([]*pendingSet, len(tcs)), tcs: tcs, tasks: tasks, endTime: endTime, steps: &steps}
	var s idleScratch
	for ti, tc := range tcs {
		tw := &perThread[ti]
		// Barrier wait windows for this thread: [arrival, lastArrival]
		// of every matched instance it participated in where it was not
		// the last arriver.
		mine := visits.byInstance[ti]
		s.barVisits = s.barVisits[:0]
		for i, v := range mine {
			if v.inst.lastThread != ti && v.inst.lastArrival > v.enter {
				s.barVisits = append(s.barVisits, int32(i))
			}
		}
		slices.SortFunc(s.barVisits, func(x, y int32) int { return cmp.Compare(mine[x].enter, mine[y].enter) })
		bars := newWindowSet(len(s.barVisits), &steps)
		for i, v := range s.barVisits {
			bars.start[i], bars.end[i] = mine[v].enter, mine[v].inst.lastArrival
		}
		bars.seal()

		for _, idle := range tc.idles {
			idleLen := idle.end - idle.start
			if idleLen <= 0 {
				continue
			}
			// Starved-thief: overlap with other threads' pending tasks.
			// The classified portion is the union of the overlaps; the
			// cause is the creator with the largest summed overlap, the
			// region its single most-overlapping task.
			s.overlaps, s.creators = s.overlaps[:0], s.creators[:0]
			for c := range tcs {
				if c == ti {
					continue
				}
				n := len(s.overlaps)
				if s.overlaps = pending.of(c).cover(s.overlaps, idle); len(s.overlaps) > n {
					s.creators = append(s.creators, c)
				}
			}
			merged := mergeSpans(s.overlaps)
			starved := totalTime(merged)
			if starved > 0 {
				// The largest holder; of equals, the smallest tid. A lone
				// holder's sum is not needed.
				cause := s.creators[0]
				if len(s.creators) > 1 {
					pending.sortEnds()
					most := pending.sets[cause].held(idle)
					for _, c := range s.creators[1:] {
						if h := pending.sets[c].held(idle); h > most {
							cause, most = c, h
						}
					}
				}
				region := tasks[pending.sets[cause].heaviest(idle).slot].region
				waits.add(analyze.StarvedThief, tc.tid, tcs[cause].tid, region, starved)
				tw.StarvedWait += starved
			}

			// Barrier imbalance: the unclaimed remainder intersected
			// with this thread's barrier wait windows.
			s.remainder = subtractSpans(s.remainder[:0], idle, merged)
			var barrier int64
			for _, r := range s.remainder {
				s.overlaps = bars.cover(s.overlaps[:0], r)
				barrier += totalTime(s.overlaps)
			}
			if barrier > 0 {
				// Attribute to the first instance, in instance order,
				// whose wait window overlaps the idle span.
				lo, hi := bars.overlapping(idle)
				first := int32(len(mine))
				for i := lo; i < hi; i++ {
					if bars.end[i] > idle.start {
						first = min(first, s.barVisits[i])
					}
				}
				steps += int64(hi - lo)
				inst := mine[first].inst
				waits.add(analyze.BarrierImbalance, tc.tid, tcs[inst.lastThread].tid, inst.region, barrier)
				tw.BarrierWait += barrier
			}

			tw.UnclassifiedIdle += idleLen - starved - barrier
		}
	}
	classifySteps.Add(steps)
}

// totalTime sums the lengths of spans.
func totalTime(spans []span) (d int64) {
	for _, s := range spans {
		d += s.end - s.start
	}
	return d
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
