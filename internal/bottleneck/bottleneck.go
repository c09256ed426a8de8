// Package bottleneck implements Scalasca-style automatic bottleneck
// analysis over the per-thread task event streams: wait-state
// classification with root-cause attribution, a task-graph critical
// path, and per-region "what-if" savings projections.
//
// Where internal/trace answers "how much time went to task management
// vs. execution" in aggregate, this package answers *why threads
// waited* and *which wait matters*. It classifies three wait states,
// each the tasking transposition of a classic Scalasca MPI pattern:
//
//   - Late task spawn (late-sender): a thread's dispatch gap overlapped
//     the spawning of the task it then ran — the consumer was ready
//     before the producer had published the work.
//   - Starved thief: a thread sat idle inside a scheduling-point region
//     while another thread held created-but-unstarted tasks — work
//     existed elsewhere but was not distributed.
//   - Barrier imbalance (Wait-at-Barrier): per-thread arrival skew at a
//     matched barrier instance; every early arriver waits for the last.
//
// On top of the per-thread timelines it reconstructs the task-graph
// critical path — the chain of task fragments, spawn edges and barrier
// hand-offs that bounds the wall time — and projects what-if savings:
// how much wall time a 10/25/50% reduction of one region's on-path time
// could save, bounded by the critical path.
//
// The Collector mirrors internal/trace's Analyzer: a trace.Consumer fed
// per thread by whatever scan reads the source, whose Finish is
// reflect.DeepEqual-identical at any worker count. The sync-region
// bookkeeping is driven through the same trace.SyncCoverage state
// machine as ThreadAnalysis.IdleInSync, so the two layers share one
// definition of sync coverage by construction.
//
// Finish builds only what its questions read. As a thread's records
// are appended, the collector keeps their order, the count of its
// timeline's segments and, from a stack of the tasks it suspended, the
// link from each resumed fragment to the task's previous one; so the
// critical-path walk, which visits tens to hundreds of segments, learns
// when a task was suspended from one link. Only where links cannot
// tell — a task whose fragments lie on more than one thread or were not
// resumed in stack order, or a thread whose clock ran backwards — is
// the table of every task's fragment ends laid out, at the first such
// question. A creator's pending windows are laid out only where an idle
// span of another thread will ask for them, so a one-thread recording
// builds none; the sorted window ends that weigh two creators against
// each other come from the walk that builds the task table.
//
// Finish shares the budget of the scan that fed it: the worker count
// the scan hinted. The creators' pending windows, and then each thread's
// dispatch gaps and idle spans, are laid out and classified side by
// side on that many goroutines, each thread with its own search
// fingers and its own tally, merged in thread order. At one worker —
// a fleet shard's lane — no goroutine starts. The task table and the
// critical-path walk stay serial.
//
// Analysis results carry region *names*, never *region.Region pointers,
// so results from different Registry instances compare equal.
package bottleneck

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/analyze"
	"repro/internal/region"
	"repro/internal/trace"
)

// ImplicitRegion is the pseudo-region name used for critical-path time
// spent outside explicit task fragments (the implicit task).
const ImplicitRegion = "<implicit task>"

// UnknownRegion is the pseudo-region name for fragments of tasks whose
// creation fell outside the analyzed window.
const UnknownRegion = "<unknown task>"

// Analysis is the full bottleneck report for one recording. All fields
// are value types and region names (no registry pointers), so analyses
// of the same event stream are reflect.DeepEqual-comparable regardless
// of worker count, archive format or registry instance.
type Analysis struct {
	// Threads is the number of threads observed.
	Threads int
	// StartTime and EndTime bound the observed events; WallTime is
	// their difference.
	StartTime int64
	EndTime   int64
	WallTime  int64
	// PerThread breaks each thread's waiting down by class.
	PerThread map[int]*ThreadWaits
	// WaitStates are the classified waits, aggregated per
	// (kind, victim, cause, region) and deterministically ordered.
	WaitStates []WaitState
	// Barriers are the matched collective barrier instances.
	Barriers []BarrierInstance
	// CriticalPath is the reconstructed task-graph critical path.
	CriticalPath CriticalPath
	// Findings are the wait states and path hotspot rendered as typed
	// findings with severity and root-cause attribution, ordered by
	// severity.
	Findings []analyze.Finding
}

// ThreadWaits partitions one thread's waiting time. Dispatch gaps split
// into LateSpawnWait + PlainDispatchWait; idle spans inside sync
// regions split into StarvedWait + BarrierWait + UnclassifiedIdle.
type ThreadWaits struct {
	ThreadID int
	// LateSpawnWait is dispatch-gap time overlapping the spawn of the
	// task the gap ended in (the spawner was still publishing).
	LateSpawnWait int64
	// PlainDispatchWait is the rest of the dispatch-gap time (scheduler
	// overhead proper).
	PlainDispatchWait int64
	// StarvedWait is idle time while another thread held
	// created-but-unstarted tasks.
	StarvedWait int64
	// BarrierWait is idle time attributable to barrier arrival skew
	// (waiting for the last arriver).
	BarrierWait int64
	// UnclassifiedIdle is the idle remainder no classifier claimed.
	UnclassifiedIdle int64
}

// TotalWait sums every classified and unclassified wait bucket.
func (t *ThreadWaits) TotalWait() int64 {
	return t.LateSpawnWait + t.PlainDispatchWait + t.StarvedWait + t.BarrierWait + t.UnclassifiedIdle
}

// WaitState is one classified wait aggregate: victim thread Thread
// waited Time ns (over Count intervals) because of CauseThread, tied to
// Region (the late-spawned task's region, the hoarded task's region, or
// the barrier region).
type WaitState struct {
	Kind        analyze.Kind
	Thread      int
	CauseThread int
	Region      string
	Time        int64
	Count       int64
}

// BarrierInstance is one matched collective barrier: the n-th visit
// (Ordinal, 0-based) of every participating thread to the same barrier
// region. Skew = LastArrival - FirstArrival; LastThread is the last
// arriver (the thread the others waited for).
type BarrierInstance struct {
	Region       string
	Ordinal      int
	Threads      int
	FirstArrival int64
	LastArrival  int64
	LastThread   int
	Skew         int64
}

// CriticalPath is the reconstructed longest dependency chain. Length =
// EndTime - StartTime and partitions exactly into the per-region times
// plus the three wait buckets: sum(Regions[i].Time) + SpawnWait +
// JoinWait + Other == Length.
type CriticalPath struct {
	StartTime int64
	EndTime   int64
	Length    int64
	// Segments counts the attributed path spans.
	Segments int64
	// SpawnWait is path time between a task's creation and its first
	// fragment (the task sat created-but-unstarted on the path).
	SpawnWait int64
	// JoinWait is path time between a child task's completion and the
	// parent's resumption.
	JoinWait int64
	// Other is barrier hand-off overhead plus any walk remainder the
	// reconstruction could not attribute.
	Other int64
	// Regions is the per-region on-path time, descending.
	Regions []PathRegion
}

// PathRegion is one region's share of the critical path, with what-if
// projections: WhatIfN is the projected wall-time saving if the
// region's on-path time shrank by N% (savings model: the path structure
// is held fixed, so the projection is an upper bound tight for
// path-dominating regions).
type PathRegion struct {
	Region   string
	Time     int64
	Share    float64
	WhatIf10 int64
	WhatIf25 int64
	WhatIf50 int64
}

// span is a half-open time interval [Start, End).
type span struct{ start, end int64 }

// taskCreate is one observed task creation (EvTaskCreateBegin ..
// EvTaskCreateEnd on the creating thread's stream): the task, the time
// its creation ended and the collector's number for its region. slot is
// the task's place in the task table, set when the collectors finish
// (-1 for a repeated creation of an id already seen).
type taskCreate struct {
	id     uint64
	end    int64
	region int32
	slot   int32
}

// taskStamp is a (task, time) pair.
type taskStamp struct {
	id   uint64
	time int64
}

// Facts a frag carries about the events that began and ended it.
const (
	fragFirst = 1 << iota // began via EvTaskBegin: the task's very first fragment
	fragGap               // a dispatch gap [gapStart, start) ended at its begin
	fragDone              // its task's own EvTaskEnd closed it
)

// frag is one executed task fragment, together with the readiness
// window it consumed, if any. slot is the task's place in the task
// table, set when the collectors finish.
type frag struct {
	task     uint64
	start    int64
	end      int64
	gapStart int64
	slot     int32
	flags    uint8
}

// taskFrag is a fragment of task, by its place in its thread's frags.
type taskFrag struct {
	task uint64
	frag int32
}

// barrierVisit is one enter/exit of an explicit or implicit barrier
// region on one thread; region is the collector's number for it.
type barrierVisit struct {
	region      int32
	enter, exit int64
}

// threadCollector accumulates one thread's raw material in one pass. It
// owns no references into pipeline-recycled event slices: only region
// descriptors (which the registry owns) and scalar facts are retained.
type threadCollector struct {
	tid int

	sc       trace.SyncCoverage
	coverEnd int64 // end of the last covered span in the open sync instance
	inFrag   bool  // the last frag is still open
	inCreate bool

	firstValid bool
	firstTime  int64
	lastTime   int64

	// regions numbers the region descriptors this thread's records
	// refer to, so a record carries four bytes and no name is formatted
	// per event; lastRegion short-cuts a run of the same region.
	regions    []*region.Region
	regionIDs  map[*region.Region]int32
	lastRegion *region.Region
	lastID     int32

	created []taskCreate
	frags   []frag // in stream order: starts and ends ascend with the clock
	// links[i] is the place in frags of the previous fragment of
	// frags[i]'s task, or -1: set when a begin resumes the task on top of
	// suspended, the stack of the fragments closed without their task's
	// end, each pushed when the next fragment begins.
	links     []int32
	suspended []taskFrag
	// unordered is set when a fragment began before the thread's first
	// event or the end of the fragment before it, or ended before it
	// began: the thread's clock ran backwards.
	unordered bool
	// The thread's task ends, in stream order: ends are the places in
	// frags of the fragments their task's own EvTaskEnd closed, strayEnds
	// the EvTaskEnds of a task other than the one running. The flags are
	// set when a list is not in (time, task) order; lastEnd is the last
	// of ends.
	ends                        []int32
	strayEnds                   []taskStamp
	lastEnd                     taskStamp
	endsUnsorted, strayUnsorted bool
	idles                       []span
	barriers                    []barrierVisit
	barStack                    []barrierVisit // open barrier enters (exit pending)

	// segments counts the pieces of the thread's timeline that its
	// fragments before the last add, up to segEnd, the latest of its
	// first event and their ends (countSegments).
	segments int
	segEnd   int64

	// idLo and idHi bound the task ids of created and frags, and
	// createdLo those of created: the task table is laid out by them.
	idLo, idHi, createdLo uint64
}

// newThreadCollector returns the collector of thread tid, its buffers
// sized for a stream of events events.
func newThreadCollector(tid, events int) *threadCollector {
	tc := &threadCollector{tid: tid, idLo: ^uint64(0), createdLo: ^uint64(0)}
	tc.reserve(events)
	return tc
}

// Shares of a thread's events that become fragment and creation
// records in BOTS fib without cut-off, the finest-grained stream the
// suite records; a task ends once, so its ends are as many as its
// creations. reserve sizes the buffers by them, so such a stream
// never grows one; a stream richer in records doubles. Idle spans
// number from none to one per fragment: their buffer starts at a small
// share, so that how often it doubles depends on the stream's shape
// and not on its length.
const (
	fragShare   = 3
	createShare = 6
	idleShare   = 32
	// maxReserve bounds what an event count read from an archive's
	// index may reserve.
	maxReserve = 1 << 21
)

// reserve sizes the record buffers for a stream of n events.
func (tc *threadCollector) reserve(n int) {
	n = min(n, maxReserve)
	if n <= 0 {
		return
	}
	tc.frags = make([]frag, 0, n/fragShare+n/64+16)
	tc.links = make([]int32, 0, cap(tc.frags))
	tc.created = make([]taskCreate, 0, n/createShare+n/64+16)
	tc.ends = make([]int32, 0, n/createShare+n/64+16)
	tc.idles = make([]span, 0, n/idleShare+16)
}

// push appends v to *s in place, doubling a full buffer: a stream of n
// records copies fewer than n of them, where append's growth by a
// quarter copies 4n. Only a growth writes the slice's pointer back.
func push[T any](s *[]T, v T) {
	if len(*s) == cap(*s) {
		*s = slices.Grow(*s, max(len(*s), 64))
	}
	*s = append(*s, v)
}

func barrierRegion(r *region.Region) bool {
	if r == nil {
		return false
	}
	return r.Type == region.Barrier || r.Type == region.ImplicitBarrier
}

// regionID numbers r (nil included) within this collector.
func (tc *threadCollector) regionID(r *region.Region) int32 {
	if r == tc.lastRegion && len(tc.regions) > 0 {
		return tc.lastID
	}
	id, ok := tc.regionIDs[r]
	if !ok {
		if tc.regionIDs == nil {
			tc.regionIDs = make(map[*region.Region]int32)
		}
		id = int32(len(tc.regions))
		tc.regions = append(tc.regions, r)
		tc.regionIDs[r] = id
	}
	tc.lastRegion, tc.lastID = r, id
	return id
}

func (tc *threadCollector) observe(ev *trace.Event) {
	if !tc.firstValid {
		tc.firstTime, tc.segEnd = ev.Time, ev.Time
		tc.firstValid = true
	}
	tc.lastTime = ev.Time

	switch ev.Type {
	case trace.EvEnter:
		if r := ev.Region; r != nil && r.Type.WaitPoint() {
			if tc.sc.Depth == 0 {
				tc.coverEnd = ev.Time
			}
			tc.sc.EnterSync(ev.Time)
		}
		if barrierRegion(ev.Region) {
			tc.barStack = append(tc.barStack, barrierVisit{region: tc.regionID(ev.Region), enter: ev.Time})
		}
	case trace.EvExit:
		if r := ev.Region; r != nil && r.Type.WaitPoint() {
			if _, _, closed := tc.sc.ExitSync(ev.Time); closed {
				// Trailing idle: the tail of the instance no fragment
				// or dispatch gap covered.
				if ev.Time > tc.coverEnd {
					push(&tc.idles, span{tc.coverEnd, ev.Time})
				}
			}
		}
		if barrierRegion(ev.Region) && len(tc.barStack) > 0 {
			b := tc.barStack[len(tc.barStack)-1]
			tc.barStack = tc.barStack[:len(tc.barStack)-1]
			b.exit = ev.Time
			push(&tc.barriers, b)
		}
	case trace.EvTaskCreateBegin:
		tc.inCreate = true
	case trace.EvTaskCreateEnd:
		if tc.inCreate {
			push(&tc.created, taskCreate{id: ev.TaskID, end: ev.Time, region: tc.regionID(ev.Region)})
			tc.inCreate = false
			tc.noteID(ev.TaskID)
			tc.createdLo = min(tc.createdLo, ev.TaskID)
		}
	case trace.EvTaskBegin:
		tc.endFragment(ev.Time)
		tc.beginFragment(ev.Time, ev.TaskID, fragFirst)
	case trace.EvTaskEnd:
		e := taskStamp{ev.TaskID, ev.Time}
		last := len(tc.frags) - 1
		done := tc.inFrag && tc.frags[last].task == ev.TaskID
		if done {
			if len(tc.ends) > 0 && compareStamps(e, tc.lastEnd) < 0 {
				tc.endsUnsorted = true
			}
			push(&tc.ends, int32(last))
			tc.lastEnd = e
			tc.frags[last].flags |= fragDone
		} else {
			if n := len(tc.strayEnds); n > 0 && compareStamps(e, tc.strayEnds[n-1]) < 0 {
				tc.strayUnsorted = true
			}
			tc.strayEnds = append(tc.strayEnds, e)
		}
		tc.endFragment(ev.Time)
		if tc.sc.Depth > 0 {
			tc.sc.MarkReady(ev.Time)
		}
	case trace.EvTaskSwitch:
		tc.endFragment(ev.Time)
		if ev.TaskID != 0 {
			tc.beginFragment(ev.Time, ev.TaskID, 0)
		} else if tc.sc.Depth > 0 {
			tc.sc.MarkReady(ev.Time)
		}
	}
}

func (tc *threadCollector) endFragment(t int64) {
	if !tc.inFrag {
		return
	}
	f := &tc.frags[len(tc.frags)-1]
	f.end = t
	if t < f.start {
		tc.unordered = true
	}
	tc.sc.Cover(t - f.start)
	if tc.sc.Depth > 0 {
		tc.coverEnd = t
	}
	tc.inFrag = false
}

// pieces counts the pieces of a timeline counted up to end that the
// closed fragment f adds: the implicit-task filler before it and
// itself. It returns them and the timeline's new end.
func pieces(f *frag, end int64) (int, int64) {
	n := 0
	if f.start > end {
		n++
	}
	if f.end > f.start {
		n++
	}
	return n, max(end, f.end)
}

// beginFragment opens a fragment of task at t. The fragment before it
// is closed: its pieces are counted, and unless its task's end closed
// it, the task is suspended.
func (tc *threadCollector) beginFragment(t int64, task uint64, flags uint8) {
	if last := len(tc.frags) - 1; last >= 0 {
		p := &tc.frags[last]
		n, end := pieces(p, tc.segEnd)
		tc.segments, tc.segEnd = tc.segments+n, end
		if p.flags&fragDone == 0 {
			tc.suspended = append(tc.suspended, taskFrag{p.task, int32(last)})
		}
	}
	link := int32(-1)
	if n := len(tc.suspended); n > 0 && tc.suspended[n-1].task == task {
		link = tc.suspended[n-1].frag
		tc.suspended = tc.suspended[:n-1]
	}
	if t < tc.segEnd {
		tc.unordered = true
	}
	f := frag{task: task, start: t, end: t, flags: flags}
	if start, _, ok := tc.sc.TakeDispatch(t); ok {
		// Idle between the last covered span and the (possibly
		// re-stamped) readiness the gap starts at.
		if tc.sc.Depth > 0 && start > tc.coverEnd {
			push(&tc.idles, span{tc.coverEnd, start})
		}
		f.gapStart = start
		f.flags |= fragGap
		if tc.sc.Depth > 0 {
			tc.coverEnd = t
		}
	} else if tc.sc.Depth > 0 && t > tc.coverEnd {
		// Fragment begins with no open readiness (e.g. directly after a
		// suspension): the uncovered span before it is idle.
		push(&tc.idles, span{tc.coverEnd, t})
		tc.coverEnd = t
	}
	push(&tc.frags, f)
	push(&tc.links, link)
	tc.inFrag = true
	tc.noteID(task)
}

// noteID widens the bounds of the thread's task ids to id.
func (tc *threadCollector) noteID(id uint64) {
	tc.idLo, tc.idHi = min(tc.idLo, id), max(tc.idHi, id)
}

// closedFrags are the fragments that ended inside the stream: all but
// one still open at its end (a truncated trace).
func (tc *threadCollector) closedFrags() []frag {
	if tc.inFrag {
		return tc.frags[:len(tc.frags)-1]
	}
	return tc.frags
}

// Collector is the bottleneck analysis as a trace.Consumer: it gathers
// each thread's raw material as the runs of a scan arrive — a thread's
// in order and one at a time, different threads' possibly from different
// goroutines at once — and Finish classifies, sharing the scan's worker
// budget: its per-thread stages run side by side on as many goroutines
// as the scan had workers, and on the calling goroutine alone at one
// worker, as a fleet's shard has. The Analysis is
// reflect.DeepEqual-identical however the runs were cut and at every
// worker count.
type Collector struct {
	mu      sync.Mutex
	threads map[int]*threadCollector
	// The scan's hint: Finish runs on its workers, and buffers are sized
	// by its events. A collector fed without a hint finishes on one.
	workers int
	events  map[int]int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{threads: make(map[int]*threadCollector)}
}

// Hint implements trace.Consumer: a thread's record buffers are made
// once, at its first run, for a stream of the length the source gave,
// and Finish runs on the scan's workers.
func (c *Collector) Hint(workers int, threadEvents map[int]int) {
	c.workers, c.events = workers, threadEvents
}

// Consume feeds one in-order run of thread tid's events. The lock covers
// only the thread lookup; the scan of the run is unlocked, owned by the
// calling goroutine under the Consumer contract. The run is not retained.
func (c *Collector) Consume(tid int, events []trace.Event) {
	c.mu.Lock()
	tc, ok := c.threads[tid]
	if !ok {
		tc = newThreadCollector(tid, c.events[tid])
		c.threads[tid] = tc
	}
	c.mu.Unlock()
	for i := range events {
		tc.observe(&events[i])
	}
}

// Finish runs classification and path reconstruction, on the workers
// the scan hinted, and returns the analysis. All Consume calls must have
// returned; the collector must not be reused afterwards.
func (c *Collector) Finish() *Analysis {
	return finish(c.observed(), c.workers)
}

// observed lists the threads that observed an event, by tid: those an
// analysis is of.
func (c *Collector) observed() []*threadCollector {
	tcs := make([]*threadCollector, 0, len(c.threads))
	for _, tc := range c.threads {
		if tc.firstValid {
			tcs = append(tcs, tc)
		}
	}
	slices.SortFunc(tcs, func(x, y *threadCollector) int { return cmp.Compare(x.tid, y.tid) })
	return tcs
}

// Analyze and AnalyzeQuery are trace.Scan with a Collector, kept under
// these names only because benchmark/ calls them (ROADMAP item 3 removes
// them).
func Analyze(tr *trace.Trace) *Analysis { return AnalyzeQuery(tr, trace.Query{}, 1) }

func AnalyzeQuery(tr *trace.Trace, q trace.Query, workers int) *Analysis {
	c := NewCollector()
	trace.Scan(tr, q, workers, c)
	return c.Finish()
}
