package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Analysis holds the trace-derived metrics the paper's conclusion calls
// for: "the time between the enter of the last synchronization point and
// the task switch event would be of interest. In this way it would be
// possible to calculate the ratio of overall management time to
// exclusive execution time for tasks."
type Analysis struct {
	// PerThread maps thread ID to its metrics.
	PerThread map[int]*ThreadAnalysis
	// DispatchLatency aggregates, over all threads, the time from
	// entering a scheduling point (or finishing the previous task
	// fragment) to the next task-begin/switch — the runtime's task
	// dispatch/management latency.
	DispatchLatency stats.Dur
	// TaskExecution aggregates task fragment durations (begin/switch to
	// end/switch) over all threads.
	TaskExecution stats.Dur
	// ManagementRatio is total dispatch latency over total task
	// execution time (the paper's proposed ratio); 0 when no task ran.
	ManagementRatio float64
	// CreationTime aggregates task-creation region durations.
	CreationTime stats.Dur
	// Switches counts task switch transitions observed.
	Switches int64
}

// ThreadAnalysis carries the per-thread breakdown.
type ThreadAnalysis struct {
	ThreadID        int
	DispatchLatency stats.Dur
	TaskExecution   stats.Dur
	CreationTime    stats.Dur
	Fragments       int64
	// SyncRegionTime is total time inside scheduling-point regions
	// (taskwait/barrier), including task execution within them.
	SyncRegionTime int64
	// IdleInSync is sync-region time not covered by task fragments or
	// dispatch: pure waiting with an empty queue.
	IdleInSync int64
}

// Analyzer is the trace analysis as a Consumer: per-thread state
// machines fed a run at a time, in O(threads) state whatever the length
// of the trace. A thread's runs must arrive in order and one at a time;
// runs of different threads may arrive from different goroutines at
// once — what a per-thread shard of a decode pipeline provides, and how
// Scalasca's parallel trace analysis works, one analysis process per
// trace location. Finish merges the threads in ascending ID order, and
// the stats.Dur merge is commutative over exact int64 sums, so the
// Analysis is reflect.DeepEqual-identical however the runs were cut and
// whoever delivered them.
type Analyzer struct {
	mu      sync.Mutex
	threads map[int]*threadState
}

// NewAnalyzer returns an analyzer with no events observed yet.
func NewAnalyzer() *Analyzer {
	return &Analyzer{threads: make(map[int]*threadState)}
}

// Hint implements Consumer; the state machines keep nothing per event.
func (a *Analyzer) Hint(int, map[int]int) {}

// Consume feeds one in-order run of thread tid's events. The lock covers
// only the thread lookup; the per-event scan runs unlocked, owned by the
// calling goroutine under the Consumer contract.
func (a *Analyzer) Consume(tid int, events []Event) {
	a.mu.Lock()
	st, ok := a.threads[tid]
	if !ok {
		st = &threadState{ta: &ThreadAnalysis{ThreadID: tid}}
		a.threads[tid] = st
	}
	a.mu.Unlock()
	for i := range events {
		st.step(events[i])
	}
}

// Finish aggregates the per-thread state machines into the final
// Analysis. All Consume calls must have returned; the analyzer must not
// be reused afterwards.
func (a *Analyzer) Finish() *Analysis {
	an := &Analysis{PerThread: make(map[int]*ThreadAnalysis, len(a.threads))}
	tids := make([]int, 0, len(a.threads))
	for tid := range a.threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		ta := a.threads[tid].ta
		an.PerThread[tid] = ta
		an.DispatchLatency.Merge(ta.DispatchLatency)
		an.TaskExecution.Merge(ta.TaskExecution)
		an.CreationTime.Merge(ta.CreationTime)
		an.Switches += ta.Fragments
	}
	if an.TaskExecution.Sum > 0 {
		an.ManagementRatio = float64(an.DispatchLatency.Sum) / float64(an.TaskExecution.Sum)
	}
	return an
}

// Analyze, AnalyzeParallel and AnalyzeQuery are Scan with an Analyzer,
// kept under these names only because benchmark/ calls them (ROADMAP
// item 3 removes them).
func Analyze(tr *Trace) *Analysis { return AnalyzeQuery(tr, Query{}, 1) }

func AnalyzeParallel(tr *Trace, workers int) *Analysis { return AnalyzeQuery(tr, Query{}, workers) }

func AnalyzeQuery(tr *Trace, q Query, workers int) *Analysis {
	a := NewAnalyzer()
	Scan(tr, q, workers, a)
	return a.Finish()
}

// MergeAnalyses combines the analyses of disjoint recordings — the
// per-process shards of a fleet experiment. The aggregate durations
// merge exactly (stats.Dur addition is commutative and lossless, the
// same property that makes the parallel analyzers deterministic) and
// the management ratio is recomputed from the merged sums. PerThread
// is left empty: thread IDs of different processes name different
// locations, so a fleet-wide per-thread map would collide — inspect
// the per-shard analyses for the per-location breakdown.
func MergeAnalyses(as ...*Analysis) *Analysis {
	m := &Analysis{PerThread: make(map[int]*ThreadAnalysis)}
	for _, a := range as {
		if a == nil {
			continue
		}
		m.DispatchLatency.Merge(a.DispatchLatency)
		m.TaskExecution.Merge(a.TaskExecution)
		m.CreationTime.Merge(a.CreationTime)
		m.Switches += a.Switches
	}
	if m.TaskExecution.Sum > 0 {
		m.ManagementRatio = float64(m.DispatchLatency.Sum) / float64(m.TaskExecution.Sum)
	}
	return m
}

// threadState is the per-thread scan state machine. The sync-region
// bookkeeping (nesting, readiness, covered vs. idle time) lives in the
// embedded SyncCoverage — the same engine the bottleneck classifier
// drives, so both layers share one definition of sync coverage.
type threadState struct {
	ta *ThreadAnalysis

	sc            SyncCoverage
	fragmentStart int64
	inFragment    bool
	createStart   int64
	inCreate      bool
}

func (st *threadState) endFragment(t int64) {
	if st.inFragment {
		d := t - st.fragmentStart
		st.ta.TaskExecution.Add(d)
		st.sc.Cover(d)
		st.ta.Fragments++
		st.inFragment = false
	}
}

func (st *threadState) beginFragment(t int64) {
	if _, d, ok := st.sc.TakeDispatch(t); ok {
		st.ta.DispatchLatency.Add(d)
	}
	st.fragmentStart = t
	st.inFragment = true
}

func (st *threadState) step(ev Event) {
	switch ev.Type {
	case EvEnter:
		if r := ev.Region; r != nil && r.Type.WaitPoint() {
			// Entering a scheduling point makes the thread ready to
			// pick up tasks: the paper's "enter of the last
			// synchronization point".
			st.sc.EnterSync(ev.Time)
		}
	case EvExit:
		if r := ev.Region; r != nil && r.Type.WaitPoint() {
			if total, idle, closed := st.sc.ExitSync(ev.Time); closed {
				st.ta.SyncRegionTime += total
				if idle > 0 {
					st.ta.IdleInSync += idle
				}
			}
		}
	case EvTaskCreateBegin:
		st.createStart = ev.Time
		st.inCreate = true
	case EvTaskCreateEnd:
		if st.inCreate {
			st.ta.CreationTime.Add(ev.Time - st.createStart)
			st.inCreate = false
		}
	case EvTaskBegin:
		// Beginning a task while a fragment is open means the open
		// task was suspended at a scheduling point: the begin event
		// is the suspension boundary (the trace carries no separate
		// suspend record, as in the paper's instrumentation).
		st.endFragment(ev.Time)
		st.beginFragment(ev.Time)
	case EvTaskEnd:
		st.endFragment(ev.Time)
		// After a task ends inside a sync region the thread is
		// immediately ready for the next dispatch.
		if st.sc.Depth > 0 {
			st.sc.MarkReady(ev.Time)
		}
	case EvTaskSwitch:
		// A switch ends the current fragment (if any) and begins a
		// fragment of the resumed task, unless it resumes the
		// implicit task (TaskID 0, Region nil).
		st.endFragment(ev.Time)
		if ev.TaskID != 0 {
			st.beginFragment(ev.Time)
		} else if st.sc.Depth > 0 {
			st.sc.MarkReady(ev.Time)
		}
	}
}

// Format writes the analysis in a human-readable layout.
func (a *Analysis) Format(w io.Writer) {
	fmt.Fprintln(w, "Trace analysis (paper §VII: management vs. execution time)")
	fmt.Fprintf(w, "  task fragments executed: %d\n", a.Switches)
	fmt.Fprintf(w, "  task execution:    %s\n", a.TaskExecution.String())
	fmt.Fprintf(w, "  dispatch latency:  %s\n", a.DispatchLatency.String())
	fmt.Fprintf(w, "  task creation:     %s\n", a.CreationTime.String())
	fmt.Fprintf(w, "  management/execution ratio: %.4f\n", a.ManagementRatio)
	ids := make([]int, 0, len(a.PerThread))
	for id := range a.PerThread {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ta := a.PerThread[id]
		fmt.Fprintf(w, "  thread %d: fragments=%d exec=%s dispatch=%s sync=%s idle-in-sync=%s\n",
			id, ta.Fragments,
			stats.FormatNs(ta.TaskExecution.Sum),
			stats.FormatNs(ta.DispatchLatency.Sum),
			stats.FormatNs(ta.SyncRegionTime),
			stats.FormatNs(ta.IdleInSync))
	}
}
