package bottleneck

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/analyze"
	"repro/internal/trace"
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
// however the observation was sharded. The per-thread stages — the
// creators' pending sets, then each thread's waits — run side by side on
// up to workers goroutines, each writing only its own thread's share:
// its set, its ThreadWaits, its tally, its search fingers.
func finish(tcs []*threadCollector, workers int) *Analysis {
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
	tasks, begins := mergeTasks(tcs, names)
	visits := matchBarriers(a, tcs, names)
	cl := &classifier{tcs: tcs, tasks: tasks, visits: visits, pending: layoutPending(tcs, tasks, begins, a.EndTime, workers)}
	tallies := make([]waitTally, len(tcs))
	scratch := make([]idleScratch, max(min(workers, len(tcs)), 1))
	trace.Each(len(tcs), workers, func(w, ti int) {
		tallies[ti] = waitTally{names: names, index: make(map[waitKey]int)}
		cl.classifyDispatchGaps(ti, &perThread[ti], &tallies[ti])
		cl.classifyIdle(ti, &perThread[ti], &tallies[ti], &scratch[w])
	})

	a.WaitStates = mergeTallies(tallies)
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

// beginRuns are the first begins of one creator's tasks that end a
// pending window: a run per begin thread, each ascending in that
// thread's stream order unless its clock ran backwards. bounds delimit
// the runs.
type beginRuns struct {
	ends   []int64
	bounds []int
}

// mergeTasks builds the global task table from all threads' creation
// and fragment records and writes every record's slot. Iteration is in
// sorted-tid order; duplicate records for one task id (malformed or
// windowed traces) keep the first seen in that order, a task's first
// begin among them. A task with a second unlinked fragment is marked
// stray.
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
//
// The creations are taken before the fragments, so that a task's
// creation is known at the fragment that opens it: with three threads or
// more, where one idle span can lie under the windows of two creators,
// the window ends are left as each creator's beginRuns on the way.
func mergeTasks(tcs []*threadCollector, names *regionNames) ([]taskInfo, []beginRuns) {
	slots, size := newTaskSlots(tcs)
	if size == 0 {
		return nil, nil
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
	}
	var begins []beginRuns
	if len(tcs) >= 3 {
		created := 0
		for _, tc := range tcs {
			created += len(tc.created)
		}
		ends, bounds := make([]int64, created), make([]int, len(tcs)*(len(tcs)+2))
		begins = make([]beginRuns, len(tcs))
		for c, tc := range tcs {
			n, m := len(tc.created), len(tcs)+2
			begins[c] = beginRuns{ends: ends[:0:n], bounds: bounds[:1:m]}
			ends, bounds = ends[n:], bounds[m:]
		}
	}
	for ti, tc := range tcs {
		for i := range tc.frags {
			f := &tc.frags[i]
			f.slot = slots.slot(f.task)
			t := &tasks[f.slot]
			if f.flags&fragFirst != 0 && !t.hasBegin {
				t.hasBegin = true
				t.beginThread = int32(ti)
				t.firstBegin = f.start
				// A window that would end at or before its creation's end
				// is none.
				if begins != nil && t.created && f.start > t.createEnd {
					r := &begins[t.creator]
					r.ends = append(r.ends, f.start)
				}
			}
			if tc.links[i] < 0 {
				t.stray = t.unlinked
				t.unlinked = true
			}
		}
		for c := range begins {
			begins[c].bounds = append(begins[c].bounds, len(begins[c].ends))
		}
	}
	return tasks, begins
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
// region). Each thread's waits go to a tally of its own: every key
// names its victim, so no two tallies share one.
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

// mergeTallies concatenates the threads' tallies, in thread order, and
// orders the states.
func mergeTallies(tallies []waitTally) []WaitState {
	n := 0
	for _, t := range tallies {
		n += len(t.states)
	}
	all := waitTally{states: make([]WaitState, 0, n)}
	for _, t := range tallies {
		all.states = append(all.states, t.states...)
	}
	return all.sorted()
}

// classifier holds what the classification of every thread's waits
// reads: nothing in it is written while threads are classified side by
// side.
type classifier struct {
	tcs     []*threadCollector
	tasks   []taskInfo
	visits  barrierVisits
	pending []*pendingSet // by creator; nil where no idle span asks
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
// the window — is plain dispatch latency. It classifies thread ti's gaps
// into tw and waits.
func (cl *classifier) classifyDispatchGaps(ti int, tw *ThreadWaits, waits *waitTally) {
	tc := cl.tcs[ti]
	for i := range tc.frags {
		f := &tc.frags[i]
		gapLen := f.start - f.gapStart
		if f.flags&fragGap == 0 || gapLen <= 0 {
			continue
		}
		late := int64(0)
		if t := &cl.tasks[f.slot]; f.flags&fragFirst != 0 && t.created && int(t.creator) != ti && f.gapStart < t.createEnd {
			late = min(t.createEnd, f.start) - f.gapStart
			waits.add(analyze.LateTaskSpawn, tc.tid, cl.tcs[t.creator].tid, t.region, late)
		}
		tw.LateSpawnWait += late
		tw.PlainDispatchWait += gapLen - late
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
// has started. Once sealed it is only read, through windowReaders.
type windowSet struct {
	start, end, maxEnd []int64
}

// newWindowSet returns a set of n windows for the caller to fill and
// seal.
func newWindowSet(n int) windowSet {
	slab := make([]int64, 3*n)
	return windowSet{start: slab[:n], end: slab[n : 2*n], maxEnd: slab[2*n:]}
}

func (w *windowSet) seal(steps *int64) {
	m := int64(math.MinInt64)
	for i, e := range w.end {
		m = max(m, e)
		w.maxEnd[i] = m
	}
	*steps += int64(len(w.end))
}

// windowReader searches a windowSet for one thread: its fingers are
// where that thread's own last searches ended, so that threads reading
// one set side by side never share one.
type windowReader struct {
	*windowSet
	startAt, maxEndAt int    // fingers of the searches
	steps             *int64 // search probes made and windows walked
}

// overlapping returns the index range outside which no window overlaps
// s: window lo is the first to end after s starts, window hi the first
// to start at or after the end of s.
func (w *windowReader) overlapping(s span) (lo, hi int) {
	return rank(w.maxEnd, s.start+1, &w.maxEndAt, w.steps), rank(w.start, s.end, &w.startAt, w.steps)
}

// cover appends to out the parts of s the windows cover, disjoint and
// ascending. It walks the windows that start inside s and stops at one
// that reaches the end of s: a span inside a long window costs the two
// searches, however many windows are open around it.
func (w *windowReader) cover(out []span, s span) []span {
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
	// For held, with three threads or more: the ends in ascending order,
	// and the prefix sums of the starts and of the sorted ends.
	sortedEnd, startSum, endSum []int64
}

// newPendingSet lays out the pending windows of tc's creations, each
// window's end computed once (twice where tc's clock ran backwards), and
// from runs, where given, what held reads.
func newPendingSet(tc *threadCollector, tasks []taskInfo, endTime int64, runs *beginRuns, steps *int64) *pendingSet {
	windowEnd := func(c taskCreate) int64 {
		if c.slot < 0 {
			return c.end // a repeated creation: no window
		}
		if t := &tasks[c.slot]; t.hasBegin {
			return t.firstBegin
		}
		return endTime
	}
	byStart := func(a, b taskCreate) int { return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.id, b.id)) }
	n := len(tc.created)
	slab := make([]int64, 3*n)
	start, end := slab[:0:n], slab[n:n:2*n]
	created, ordered := tc.created[:0], true
	for _, c := range tc.created {
		e := windowEnd(c)
		if e <= c.end {
			continue
		}
		if k := len(created); k > 0 && byStart(created[k-1], c) > 0 {
			ordered = false
		}
		created, start, end = append(created, c), append(start, c.end), append(end, e)
	}
	tc.created = created
	if !ordered {
		sortFallbacks.Add(1)
		slices.SortFunc(created, byStart)
		for i, c := range created {
			start[i], end[i] = c.end, windowEnd(c)
		}
	}
	p := &pendingSet{windowSet: windowSet{start: start, end: end, maxEnd: slab[2*n : 2*n+len(created)]}, created: created}
	p.seal(steps)
	if runs != nil {
		p.sumWindows(runs, endTime, steps)
	}
	pendingBuilds.Add(1)
	return p
}

// sumWindows lays out what held reads: the window ends in ascending
// order, and the prefix sums of the starts and of those ends. A window
// ends at its task's first begin, which mergeTasks left in runs, one
// ascending run per begin thread; the windows whose task never began
// end at endTime, a last run. The runs are merged; only a clock that
// ran backwards makes that a sort.
func (p *pendingSet) sumWindows(runs *beginRuns, endTime int64, steps *int64) {
	n := len(p.end)
	ends := runs.ends
	for len(ends) < n {
		ends = append(ends, endTime)
	}
	bounds := append(runs.bounds, n)
	p.sortedEnd = mergeRuns(ends, bounds, cmp.Compare[int64])
	slab := make([]int64, 2*n+2)
	p.startSum, p.endSum = slab[:n+1], slab[n+1:]
	for i := range n {
		p.startSum[i+1] = p.startSum[i] + p.start[i]
		p.endSum[i+1] = p.endSum[i] + p.sortedEnd[i]
	}
	*steps += int64(n*bits.Len(uint(len(bounds))) + n)
}

// layoutPending lays out the pending sets that idle spans will ask for,
// one creator's on each worker at a time: a creator's where another
// thread has an idle span of positive length, so that a one-thread
// recording lays out none.
func layoutPending(tcs []*threadCollector, tasks []taskInfo, begins []beginRuns, endTime int64, workers int) []*pendingSet {
	var idle []int // threads with an idle span of positive length: two tell all
	for ti, tc := range tcs {
		if len(idle) < 2 && slices.ContainsFunc(tc.idles, func(s span) bool { return s.end > s.start }) {
			idle = append(idle, ti)
		}
	}
	sets := make([]*pendingSet, len(tcs))
	trace.Each(len(tcs), workers, func(_, c int) {
		if len(idle) == 2 || len(idle) == 1 && idle[0] != c {
			var runs *beginRuns
			if begins != nil {
				runs = &begins[c]
			}
			var steps int64
			sets[c] = newPendingSet(tcs[c], tasks, endTime, runs, &steps)
			classifySteps.Add(steps)
		}
	})
	return sets
}

// pendingReader is one thread's windowReader of a creator's pending
// set.
type pendingReader struct {
	windowReader
	set         *pendingSet
	sortedEndAt int
}

// held is the summed overlap of the windows with s, each window counted
// for itself. What the windows cover before a time t is
// sum(min(t, end)) - sum(min(t, start)), which the prefix sums give from
// the rank of t among the starts and among the sorted ends; the overlap
// with s is the difference of two such. The sums wrap on a long
// recording and the result is exact all the same: the arithmetic is
// modulo 2^64 and the true value is at most windows x span.
func (r *pendingReader) held(s span) int64 {
	before := func(t int64) int64 {
		i, j := rank(r.start, t, &r.startAt, r.steps), rank(r.set.sortedEnd, t, &r.sortedEndAt, r.steps)
		return r.set.endSum[j] - r.set.startSum[i] + t*int64(i-j)
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
func (r *pendingReader) heaviest(s span) *taskCreate {
	best, bestTime := -1, int64(0)
	k := rank(r.start, s.start+1, &r.startAt, r.steps)
	if k > 0 {
		if m := min(r.maxEnd[k-1], s.end); m > s.start {
			best, bestTime = rank(r.maxEnd, m, &r.maxEndAt, r.steps), m-s.start
		}
	}
	i := k
	for ; i < len(r.start) && r.start[i] < s.end; i++ {
		d := min(r.end[i], s.end) - r.start[i]
		if d > bestTime || d == bestTime && r.set.created[i].id < r.set.created[best].id {
			best, bestTime = i, d
		}
	}
	*r.steps += int64(i - k)
	return &r.set.created[best]
}

// idleScratch is the working memory a worker's classifyIdle reuses from
// one idle span to the next, and from one thread to the next.
type idleScratch struct {
	overlaps  []span
	remainder []span
	creators  []int           // threads holding work during the span, ascending
	barVisits []int32         // the thread's barrier waits, as places in its visit list
	pending   []pendingReader // the thread's readers of the creators' sets, by creator
	steps     int64           // search probes made and windows walked for the thread
}

// classifyIdle splits every idle span of thread ti inside a sync region
// into a starved-thief portion (overlap with another thread's
// created-but-unstarted tasks), a barrier-imbalance portion (the
// remainder that falls between this thread's arrival and the last
// arrival of a matched barrier instance), and unclassified idle, into tw
// and waits. Starved-thief takes precedence over barrier imbalance: work
// that existed but was not distributed is the actionable diagnosis.
//
// The creators' pending windows and the thread's barrier waits are each
// laid out once as a windowSet, and an idle span asks them by rank
// search, the thread's own fingers in hand: the cost is at most
// O((windows + idle spans x threads + barrier visits) x log), plus the
// windows and waits that start inside a span, which for the disjoint
// spans of a well-formed stream are each walked once per victim. No
// answer depends on the order of the spans.
func (cl *classifier) classifyIdle(ti int, tw *ThreadWaits, waits *waitTally, s *idleScratch) {
	tc := cl.tcs[ti]
	s.steps = 0
	// Barrier wait windows for this thread: [arrival, lastArrival] of
	// every matched instance it participated in where it was not the
	// last arriver.
	mine := cl.visits.byInstance[ti]
	s.barVisits = s.barVisits[:0]
	for i, v := range mine {
		if v.inst.lastThread != ti && v.inst.lastArrival > v.enter {
			s.barVisits = append(s.barVisits, int32(i))
		}
	}
	slices.SortFunc(s.barVisits, func(x, y int32) int { return cmp.Compare(mine[x].enter, mine[y].enter) })
	barSet := newWindowSet(len(s.barVisits))
	for i, v := range s.barVisits {
		barSet.start[i], barSet.end[i] = mine[v].enter, mine[v].inst.lastArrival
	}
	barSet.seal(&s.steps)
	bars := windowReader{windowSet: &barSet, steps: &s.steps}
	pending := s.pending[:0]
	for c, p := range cl.pending {
		var r pendingReader
		if p != nil && c != ti {
			r = pendingReader{windowReader: windowReader{windowSet: &p.windowSet, steps: &s.steps}, set: p}
		}
		pending = append(pending, r)
	}
	s.pending = pending
	for _, idle := range tc.idles {
		idleLen := idle.end - idle.start
		if idleLen <= 0 {
			continue
		}
		// Starved-thief: overlap with other threads' pending tasks. The
		// classified portion is the union of the overlaps; the cause is
		// the creator with the largest summed overlap, the region its
		// single most-overlapping task.
		s.overlaps, s.creators = s.overlaps[:0], s.creators[:0]
		for c := range cl.tcs {
			if c == ti {
				continue
			}
			n := len(s.overlaps)
			if s.overlaps = pending[c].cover(s.overlaps, idle); len(s.overlaps) > n {
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
				most := pending[cause].held(idle)
				for _, c := range s.creators[1:] {
					if h := pending[c].held(idle); h > most {
						cause, most = c, h
					}
				}
			}
			region := cl.tasks[pending[cause].heaviest(idle).slot].region
			waits.add(analyze.StarvedThief, tc.tid, cl.tcs[cause].tid, region, starved)
			tw.StarvedWait += starved
		}

		// Barrier imbalance: the unclaimed remainder intersected with
		// this thread's barrier wait windows.
		s.remainder = subtractSpans(s.remainder[:0], idle, merged)
		var barrier int64
		for _, r := range s.remainder {
			s.overlaps = bars.cover(s.overlaps[:0], r)
			barrier += totalTime(s.overlaps)
		}
		if barrier > 0 {
			// Attribute to the first instance, in instance order, whose
			// wait window overlaps the idle span.
			lo, hi := bars.overlapping(idle)
			first := int32(len(mine))
			for i := lo; i < hi; i++ {
				if bars.end[i] > idle.start {
					first = min(first, s.barVisits[i])
				}
			}
			s.steps += int64(hi - lo)
			inst := mine[first].inst
			waits.add(analyze.BarrierImbalance, tc.tid, cl.tcs[inst.lastThread].tid, inst.region, barrier)
			tw.BarrierWait += barrier
		}

		tw.UnclassifiedIdle += idleLen - starved - barrier
	}
	classifySteps.Add(s.steps)
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
