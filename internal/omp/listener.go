package omp

import (
	"repro/internal/clock"
	"repro/internal/region"
)

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
// stream. A nil listener on the Runtime disables measurement; this is
// the "uninstrumented" configuration used as the baseline in the
// overhead experiments (Figs. 13 and 14).
//
// The runtime, not the listener, reads the clock: once per listener
// call, from its listener's Clock (see NewRuntime), and every method's
// last argument now is that reading in nanoseconds, the event's
// instant. Every listener of a runtime sees the same instant for an
// event, as Score-P's measurement core hands one timestamp to its
// profiling and its tracing substrate; a listener records now and
// reads no clock of its own.
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
	ThreadBegin(t *Thread, now int64)
	// ThreadEnd fires when a team worker is about to terminate.
	ThreadEnd(t *Thread, now int64)

	// Enter fires when the thread enters a region: parallel regions,
	// barriers, taskwaits, criticals, user functions. Task execution is
	// reported through TaskBegin/TaskEnd, not Enter/Exit.
	Enter(t *Thread, r *region.Region, now int64)
	// Exit fires when the thread leaves a region entered with Enter.
	Exit(t *Thread, r *region.Region, now int64)

	// TaskCreateBegin fires when the thread starts creating an explicit
	// task of the given task region (the analog of entering OPARI2's
	// task-creation region).
	TaskCreateBegin(t *Thread, r *region.Region, now int64)
	// TaskCreateEnd fires when the task has been queued (or, for
	// undeferred tasks, right before it starts executing inline).
	TaskCreateEnd(t *Thread, tk *Task, now int64)

	// TaskBegin fires when a task instance starts executing for the first
	// time, on the executing thread. Per Fig. 12 the measurement system
	// performs an implicit TaskSwitch to the instance and enters the task
	// region in the instance's own call tree.
	TaskBegin(t *Thread, tk *Task, now int64)
	// TaskEnd fires when task instance tk completes and the thread
	// resumes resume — the task suspended when tk began, or the
	// implicit task (resume == nil) — at the same instant now: one
	// scheduling point, one event. The measurement system exits the task
	// region, merges the instance tree into the thread profile and
	// switches to resume (Fig. 12's TaskEnd followed by its TaskSwitch).
	TaskEnd(t *Thread, tk, resume *Task, now int64)
}

// clocked is a listener that names the time source its events are
// stamped from (the profiling measurement's and the trace recorder's
// Clock).
type clocked interface{ Clock() clock.Clock }

// Listeners is a listener list: every event goes to each member in
// order, at the one instant the runtime read for it. It is what a
// runtime holds; NewRuntime wraps a single listener in one.
type Listeners []Listener

// Clock returns the first member's time source, or nil when it names
// none.
func (ls Listeners) Clock() clock.Clock {
	if len(ls) > 0 {
		if c, ok := ls[0].(clocked); ok {
			return c.Clock()
		}
	}
	return nil
}

// ThreadBegin implements Listener. Each member claims its own typed
// thread slot (Thread.Profile, Thread.TraceData), so the order of the
// list does not matter.
func (ls Listeners) ThreadBegin(t *Thread, now int64) {
	for _, l := range ls {
		l.ThreadBegin(t, now)
	}
}

// ThreadEnd implements Listener.
func (ls Listeners) ThreadEnd(t *Thread, now int64) {
	for _, l := range ls {
		l.ThreadEnd(t, now)
	}
}

// Enter implements Listener.
func (ls Listeners) Enter(t *Thread, r *region.Region, now int64) {
	for _, l := range ls {
		l.Enter(t, r, now)
	}
}

// Exit implements Listener.
func (ls Listeners) Exit(t *Thread, r *region.Region, now int64) {
	for _, l := range ls {
		l.Exit(t, r, now)
	}
}

// TaskCreateBegin implements Listener.
func (ls Listeners) TaskCreateBegin(t *Thread, r *region.Region, now int64) {
	for _, l := range ls {
		l.TaskCreateBegin(t, r, now)
	}
}

// TaskCreateEnd implements Listener.
func (ls Listeners) TaskCreateEnd(t *Thread, tk *Task, now int64) {
	for _, l := range ls {
		l.TaskCreateEnd(t, tk, now)
	}
}

// TaskBegin implements Listener.
func (ls Listeners) TaskBegin(t *Thread, tk *Task, now int64) {
	for _, l := range ls {
		l.TaskBegin(t, tk, now)
	}
}

// TaskEnd implements Listener.
func (ls Listeners) TaskEnd(t *Thread, tk, resume *Task, now int64) {
	for _, l := range ls {
		l.TaskEnd(t, tk, resume, now)
	}
}
