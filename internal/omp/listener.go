package omp

import "repro/internal/region"

// Listener receives the runtime's measurement events. It is the Go analog
// of the POMP2 event interface the paper's instrumentation targets: the
// runtime emits the event stream, the measurement system (internal/measure)
// translates it into profiles using the algorithm of Section IV.
//
// All callbacks for one Thread are invoked from that thread's goroutine,
// so listener implementations may keep per-thread state reachable
// through the thread's listener slots without locking: Thread.Profile is
// the profiling measurement's typed slot, Thread.TraceData the trace
// recorder's. Both are assigned once at ThreadBegin and cleared at
// ThreadEnd — the slot contract that keeps the per-event hot path free
// of locks and map lookups even when several listeners observe the same
// stream through a Tee. A nil listener on the Runtime disables
// measurement; this is the "uninstrumented" configuration used as the
// baseline in the overhead experiments (Figs. 13 and 14).
//
// Idle waiting is invisible to listeners: a thread descending the
// scheduler's spin→yield→park ladder at a barrier or taskwait emits no
// events while idle or parked, so the time between Enter and Exit of a
// synchronization region covers spinning and sleeping alike — matching
// how Score-P attributes barrier wait time in the paper.
type Listener interface {
	// ThreadBegin fires when a team worker starts, before any other event
	// from this thread. Measurement systems create the thread's location
	// (per-thread profile) here and attach it to the thread's listener
	// slot (Thread.Profile / Thread.TraceData).
	ThreadBegin(t *Thread)
	// ThreadEnd fires when a team worker is about to terminate.
	ThreadEnd(t *Thread)

	// Enter fires when the thread enters a region: parallel regions,
	// barriers, taskwaits, criticals, user functions. Task execution is
	// reported through TaskBegin/TaskEnd, not Enter/Exit.
	Enter(t *Thread, r *region.Region)
	// Exit fires when the thread leaves a region entered with Enter.
	Exit(t *Thread, r *region.Region)

	// TaskCreateBegin fires when the thread starts creating an explicit
	// task of the given task region (the analog of entering OPARI2's
	// task-creation region).
	TaskCreateBegin(t *Thread, r *region.Region)
	// TaskCreateEnd fires when the task has been queued (or, for
	// undeferred tasks, right before it starts executing inline).
	TaskCreateEnd(t *Thread, tk *Task)

	// TaskBegin fires when a task instance starts executing for the first
	// time, on the executing thread. Per Fig. 12 the measurement system
	// performs an implicit TaskSwitch to the instance and enters the task
	// region in the instance's own call tree.
	TaskBegin(t *Thread, tk *Task)
	// TaskEnd fires when task instance tk completes and the thread
	// resumes resume — the task suspended when tk began, or the
	// implicit task (resume == nil) — at the same instant: one
	// scheduling point, one event. The measurement system exits the task
	// region, merges the instance tree into the thread profile and
	// switches to resume (Fig. 12's TaskEnd followed by its TaskSwitch).
	// A listener that timestamps its events reads the clock once here
	// and gives both halves that reading.
	TaskEnd(t *Thread, tk, resume *Task)
}

// NopListener implements Listener with empty methods. Embed it to write
// partial listeners (tests use this extensively).
type NopListener struct{}

// ThreadBegin implements Listener.
func (NopListener) ThreadBegin(*Thread) {}

// ThreadEnd implements Listener.
func (NopListener) ThreadEnd(*Thread) {}

// Enter implements Listener.
func (NopListener) Enter(*Thread, *region.Region) {}

// Exit implements Listener.
func (NopListener) Exit(*Thread, *region.Region) {}

// TaskCreateBegin implements Listener.
func (NopListener) TaskCreateBegin(*Thread, *region.Region) {}

// TaskCreateEnd implements Listener.
func (NopListener) TaskCreateEnd(*Thread, *Task) {}

// TaskBegin implements Listener.
func (NopListener) TaskBegin(*Thread, *Task) {}

// TaskEnd implements Listener.
func (NopListener) TaskEnd(*Thread, *Task, *Task) {}
