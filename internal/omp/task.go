package omp

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/region"
)

// TaskFunc is the body of an explicit task. It receives the thread that
// is executing the task, which — because tasks in this runtime are tied —
// stays the same for the whole execution of the instance.
type TaskFunc func(t *Thread)

// Task is one explicit task instance. Instances are recycled through
// per-thread free lists after completion, mirroring Score-P's reuse of
// task-instance data structures (Section V-B).
type Task struct {
	// Region identifies the task construct this instance was created
	// from. All instances of one construct share the Region and are
	// merged into one aggregate task tree in the profile.
	Region *region.Region

	// ID is a process-unique instance identifier, useful for traces and
	// debugging. The profiling algorithm itself identifies instances by
	// the Instance pointer travelling with the task, exactly as OPARI2
	// stores instance IDs "inside the tasks' context itself".
	ID uint64

	// Instance is the measurement system's typed slot: it carries the
	// task-instance profile from TaskBegin to TaskEnd, so resuming a
	// suspended task costs one field load instead of a type assertion on
	// an untyped slot.
	Instance *core.TaskInstance

	fn       TaskFunc
	parent   *Task // nil when created by an implicit task directly
	creator  int   // thread that created the task (owner of the implicit parent)
	depth    int32 // nesting depth: 0 for tasks created by implicit tasks
	final    bool  // in a final task region: descendants execute undeferred
	children atomic.Int32

	// claim is the execution-claim word: generation<<1 | claimed-bit.
	// Queue entries snapshot it at publication; the first CAS wins the
	// right to execute (see claimEntry).
	claim atomic.Uint64

	// childEntries lists the queued children of this task, newest last.
	// It implements the tied-task scheduling constraint: at this task's
	// taskwait, the thread may only pick up descendants — in practice
	// libgomp runs the waiting task's own children, which is what bounds
	// the number of concurrently suspended instances per thread to the
	// recursion depth (paper Table II). Only the tied owner thread
	// touches the list, so it is unsynchronized.
	childEntries []claimEntry

	// refs keeps the instance alive until it completed AND all children
	// completed: children decrement the parent's child counter on
	// completion, so the parent must not be recycled while children are
	// outstanding even though tied tasks may finish before their children.
	refs atomic.Int32

	// freelist linkage (per-thread, accessed only by the owner)
	next *Task
}

// Depth returns the task nesting depth (0 for tasks created by the
// implicit task).
func (tk *Task) Depth() int { return int(tk.depth) }

// Final reports whether this instance executes in a final context,
// i.e. all tasks it creates are undeferred.
func (tk *Task) Final() bool { return tk.final }

// TaskOpt modifies task creation, modelling OpenMP task clauses. It
// transforms the option struct by value: passing a pointer instead
// would make the struct escape to the heap on every NewTask call (the
// compiler cannot see through the indirect call), putting an allocation
// on the task-spawn hot path.
type TaskOpt func(taskOpts) taskOpts

type taskOpts struct {
	ifClause bool // false -> undeferred
	final    bool
	untied   bool
}

// Singleton option funcs: returning one of two predeclared funcs keeps
// If/Final allocation-free on the task-spawn hot path — a per-spawn
// closure capturing expr would allocate on every instrumented task
// creation (the paper's fib situation, millions of spawns).
var (
	ifTrue   TaskOpt = func(o taskOpts) taskOpts { o.ifClause = true; return o }
	ifFalse  TaskOpt = func(o taskOpts) taskOpts { o.ifClause = false; return o }
	finalOn  TaskOpt = func(o taskOpts) taskOpts { o.final = true; return o }
	finalOff TaskOpt = func(o taskOpts) taskOpts { o.final = false; return o }
)

// If models the if(expr) clause: when expr is false the task is
// undeferred and executes immediately on the creating thread.
func If(expr bool) TaskOpt {
	if expr {
		return ifTrue
	}
	return ifFalse
}

// Final models the final(expr) clause: when expr is true the task and all
// its descendants execute undeferred (included tasks).
func Final(expr bool) TaskOpt {
	if expr {
		return finalOn
	}
	return finalOff
}

// Untied models the untied clause. The paper's instrumentation cannot
// support untied tasks because the runtime provides no task-switch hooks
// at arbitrary interruption points; "as a work-around, our instrumentation
// makes all tasks tied by default" (Section IV-D2). This runtime applies
// the same work-around: the clause is accepted and recorded, but the task
// executes tied. Runtime.UntiedCount reports how many were demoted.
func Untied() TaskOpt { return untiedOn }

var untiedOn TaskOpt = func(o taskOpts) taskOpts { o.untied = true; return o }

// NewTask creates an explicit task of the given task construct region,
// modelling "#pragma omp task". The creating thread emits task-creation
// events, publishes the task (global queue + the parent's child list)
// and returns. Undeferred tasks (if(false), final context) execute
// inline before NewTask returns.
func (t *Thread) NewTask(r *region.Region, fn TaskFunc, opts ...TaskOpt) {
	o := taskOpts{ifClause: true}
	for _, opt := range opts {
		o = opt(o)
	}
	team := t.team
	if o.untied {
		team.rt.untiedDemoted.Add(1)
	}

	if l := team.rt.listener; l != nil {
		l.TaskCreateBegin(t, r)
	}

	tk := t.allocTask()
	tk.Region = r
	tk.ID = team.rt.nextTaskID.Add(1)
	tk.fn = fn
	tk.parent = t.current
	tk.creator = t.ID
	tk.final = o.final
	tk.refs.Store(1)
	if t.current != nil {
		t.current.refs.Add(1)
		tk.depth = t.current.depth + 1
		if t.current.final {
			tk.final = true
		}
	} else {
		tk.depth = 0
	}

	t.childCounter().Add(1)
	team.pending.Add(1)
	team.created.Add(1)

	undeferred := !o.ifClause || (t.current != nil && t.current.final)
	if undeferred {
		// Included/undeferred task: claim immediately (it is never
		// published) and execute inline — a scheduling point by
		// definition.
		e := claimEntry{task: tk, word: tk.claim.Load()}
		if !e.tryClaim() {
			panic("omp: undeferred task already claimed")
		}
		if l := team.rt.listener; l != nil {
			l.TaskCreateEnd(t, tk)
		}
		t.runTask(tk)
		return
	}

	// Publish: creation-end event first — once published, another thread
	// may execute and recycle the instance, so the creator must not
	// touch tk afterwards (beyond the snapshot in the entries).
	if l := team.rt.listener; l != nil {
		l.TaskCreateEnd(t, tk)
	}
	e := claimEntry{task: tk, word: tk.claim.Load()}
	if cur := t.current; cur != nil {
		cur.childEntries = append(cur.childEntries, e)
	} else {
		t.implicitChildEntries = append(t.implicitChildEntries, e)
	}
	if team.rt.Sched == SchedCentralQueue {
		team.central.push(e)
	} else {
		t.deque.push(e)
	}
	// Wake parked thieves: work exists now.
	team.signalWork()
}

// Taskwait models "#pragma omp taskwait": the current task (implicit or
// explicit) waits until all its direct children have completed. While
// waiting, the thread executes *child tasks of the waiting task* — the
// tied-task scheduling constraint, which makes suspension nesting (and
// the profiler's concurrent-instance count) follow the recursion depth,
// as in the paper's Table II. The region r is the taskwait region
// metrics are attributed to.
func (t *Thread) Taskwait(r *region.Region) {
	team := t.team
	if l := team.rt.listener; l != nil {
		l.Enter(t, r)
	}
	counter := t.childCounter()
	var lad idleLadder
	for counter.Load() > 0 {
		if tk := t.claimChildTask(); tk != nil {
			t.runTask(tk)
			lad.reset()
			continue
		}
		// Remaining children are running on (or claimed by) other
		// threads; the tied-task constraint forbids picking up
		// unrelated tasks here. Their completion signals the team
		// notifier, so parking cannot miss the last decrement.
		lad.step(t)
	}
	if l := team.rt.listener; l != nil {
		l.Exit(t, r)
	}
}

// Taskyield models "#pragma omp taskyield" (OpenMP 3.1): a scheduling
// point at which the current task may be suspended in favour of one of
// its queued children (the tied-task constraint applies as at taskwait).
// The region r is the taskyield region metrics are attributed to.
func (t *Thread) Taskyield(r *region.Region) {
	team := t.team
	if l := team.rt.listener; l != nil {
		l.Enter(t, r)
	}
	if tk := t.claimChildTask(); tk != nil {
		t.runTask(tk)
	}
	if l := team.rt.listener; l != nil {
		l.Exit(t, r)
	}
}

// claimChildTask claims the newest unclaimed child of the current task
// (or of the implicit task). Entries whose claim fails were taken by
// other threads through the global queue and are dropped.
func (t *Thread) claimChildTask() *Task {
	list := &t.implicitChildEntries
	if t.current != nil {
		list = &t.current.childEntries
	}
	for n := len(*list); n > 0; n = len(*list) {
		e := (*list)[n-1]
		*list = (*list)[:n-1]
		if e.tryClaim() {
			t.dropClaimedFromDeque(e)
			return e.task
		}
	}
	return nil
}

// dropClaimedFromDeque keeps the own deque tidy after a child-list
// claim. Both the child list and the deque are LIFO over the same
// publications, so the entry just claimed at a taskwait is usually
// still the newest entry of the own deque; popping it eagerly stops
// stale entries from piling up until the next barrier drain — which on
// deep task recursions would otherwise grow the deque (and the GC-
// scanned heap) linearly with the total task count and feed thieves
// mountains of already-claimed garbage.
func (t *Thread) dropClaimedFromDeque(e claimEntry) {
	if t.team.rt.Sched != SchedWorkStealing {
		return
	}
	if pe, ok := t.deque.pop(); ok && (pe.task != e.task || pe.word != e.word) {
		t.deque.push(pe) // a different publication, possibly live: restore it
	}
}

// childCounter returns the incomplete-children counter of the task the
// thread is currently executing (the implicit task's counter when no
// explicit task is active).
func (t *Thread) childCounter() *atomic.Int32 {
	if t.current != nil {
		return &t.current.children
	}
	return &t.implicitChildren
}

// runTask executes the claimed task tk inline on this thread, emitting
// the task events the profiling algorithm consumes. Because execution is
// inline at a scheduling point, the task currently running on this
// thread is suspended for the duration — the exact tied-task suspension
// semantics of the paper's Figs. 2 and 4 — and resumes at the instant
// tk ends, which the one TaskEnd event reports.
func (t *Thread) runTask(tk *Task) {
	team := t.team
	prev := t.current
	t.current = tk
	t.stackDepth++
	if t.stackDepth > t.maxStackDepth {
		t.maxStackDepth = t.stackDepth
	}

	l := team.rt.listener
	if l != nil {
		l.TaskBegin(t, tk)
	}
	tk.fn(t)

	t.stackDepth--
	t.current = prev
	if l != nil {
		l.TaskEnd(t, tk, prev)
	}

	// Completion bookkeeping after all events: decrement the parent's
	// child counter and the team's pending counter, then drop references.
	if p := tk.parent; p != nil {
		p.children.Add(-1)
		if p.refs.Add(-1) == 0 {
			t.freeTask(p)
		}
	} else {
		team.threads[tk.creator].implicitChildren.Add(-1)
	}
	team.pending.Add(-1)
	if tk.refs.Add(-1) == 0 {
		t.freeTask(tk)
	}
	// Wake parked waiters: a taskwait may be blocked on this child, a
	// barrier on the pending count reaching zero.
	team.signalWork()
}

// findTask claims the next globally available task: from the central
// queue, or (work stealing) LIFO from the own deque, then FIFO from
// victims. Used at barriers, where the implicit task may execute any
// task. Entries claimed elsewhere are discarded.
func (t *Thread) findTask() *Task {
	team := t.team
	if team.rt.Sched == SchedCentralQueue {
		for {
			e, ok := team.central.pop()
			if !ok {
				return nil
			}
			if e.tryClaim() {
				return e.task
			}
		}
	}
	for {
		e, ok := t.deque.pop()
		if !ok {
			break
		}
		if e.tryClaim() {
			return e.task
		}
	}
	n := len(team.threads)
	if n == 1 {
		return nil
	}
	// Rotate the starting victim to avoid convoying on thread 0.
	start := int(t.stealSeq)
	t.stealSeq++
	for i := 0; i < n-1; i++ {
		// The offset 1+(start+i)%(n-1) lies in [1, n-1], so v covers
		// every thread except t itself.
		v := (t.ID + 1 + (start+i)%(n-1)) % n
		victim := &team.threads[v].deque
		for {
			t.stealAttempts++
			e, outcome := victim.steal()
			if outcome == stealEmpty {
				break
			}
			if outcome == stealRace {
				// Lost the top CAS to another thief (or the victim's
				// pop of its last entry); the deque moved, so retry.
				t.failedSteals++
				continue
			}
			if e.tryClaim() {
				t.steals++
				return e.task
			}
			// Entry already executed via the parent's child list.
			t.failedSteals++
		}
	}
	return nil
}

// allocTask takes a task from the thread-local free list or allocates.
func (t *Thread) allocTask() *Task {
	if tk := t.freeTasks; tk != nil {
		t.freeTasks = tk.next
		tk.next = nil
		return tk
	}
	return &Task{}
}

// freeTask resets and recycles a completed task into this thread's free
// list. The claim generation is bumped so stale queue entries can never
// claim the recycled instance; Instance is cleared so measurement data
// cannot leak between instances.
func (t *Thread) freeTask(tk *Task) {
	gen := tk.claim.Load() >> 1
	tk.claim.Store((gen + 1) << 1)
	tk.Region = nil
	tk.Instance = nil
	tk.fn = nil
	tk.parent = nil
	tk.final = false
	tk.depth = 0
	tk.children.Store(0)
	tk.childEntries = tk.childEntries[:0]
	tk.next = t.freeTasks
	t.freeTasks = tk
}
