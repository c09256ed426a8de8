// Package omp implements an OpenMP-3.0-like shared-memory tasking
// runtime in pure Go. It is the substrate the reproduced paper's
// profiling system measures: fork/join parallel regions executed by a
// team of worker goroutines ("threads"), explicit *tied* tasks scheduled
// through per-thread work-stealing deques, taskwait and task-draining
// barriers as scheduling points, and if/final/untied task clauses.
//
// Tied-task semantics come for free from the execution model: a task
// suspended at a scheduling point stays on the worker's goroutine stack
// while the worker executes other tasks inline, so every fragment of an
// instance runs on the thread that started it, and suspension/resumption
// nests exactly like the event streams in the paper's Figs. 2 and 4.
//
// # Scheduler design
//
// Two schedulers are provided. SchedCentralQueue routes every task
// through one mutex-protected team queue (lockedDeque) — the GCC 4.6
// libgomp design whose lock contention the paper identifies as the
// cause of its Fig. 15 slowdowns; it is kept as the ablation baseline.
// SchedWorkStealing gives each thread a lock-free Chase–Lev deque
// (wsDeque): the owner pushes and pops LIFO at the bottom with plain
// atomic loads/stores (no lock, no CAS except for the last element), so
// it keeps working on its cache-hot, most recently created tasks, while
// thieves steal FIFO at the top through a CAS — taking the oldest and
// typically largest piece of work, which amortizes the steal over the
// most useful-work per synchronization. Execution rights are decided by
// the generation-tagged claim word on the task, so an entry reachable
// both from a deque and from a parent's child list runs exactly once.
//
// Idle threads descend a spin→yield→park ladder (idleLadder): a bounded
// spin for work that arrives within microseconds, a few runtime.Gosched
// passes, then parking on the team's idleNotifier. Task publication,
// task completion and barrier release signal the notifier, so a parked
// thief wakes the moment work exists regardless of GOMAXPROCS — the
// fix for single-core starvation, where a spinning creator could drain
// its own deque before a thief was ever scheduled.
//
// The runtime emits the POMP2-style event stream (enter/exit,
// task-create, task-begin, task-end with the task it resumes) through
// the Listener interface; with a nil listener it is the
// "uninstrumented" baseline of the overhead experiments.
//
// Measurement state travels in typed per-thread (and per-task) listener
// slots: Thread.Profile carries the profiling location, Thread.TraceData
// the trace recorder's buffer, Task.Instance the active task-instance
// profile. Slots are assigned once at ThreadBegin (TaskBegin for tasks)
// from the owning goroutine, which keeps every per-event listener
// callback free of locks, map lookups and allocations — the contract
// behind the probe costs documented in the facade's Overhead section.
package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/region"
)

// SchedulerKind selects the task scheduling strategy.
type SchedulerKind int

const (
	// SchedCentralQueue uses one team-wide task queue protected by a
	// single lock — the GCC 4.6 libgomp design the paper measured. Under
	// many small tasks the queue lock becomes the bottleneck, which is
	// exactly the behaviour behind the paper's Fig. 15 (runtime grows
	// with threads) and Table III (management time explodes). Default.
	SchedCentralQueue SchedulerKind = iota
	// SchedWorkStealing uses per-thread deques with LIFO local pops and
	// FIFO steals (Cilk-style). Provided as an ablation showing how much
	// of the paper's observed pathology is the runtime's queue design.
	SchedWorkStealing
)

// String names the scheduler.
func (s SchedulerKind) String() string {
	switch s {
	case SchedCentralQueue:
		return "central-queue"
	case SchedWorkStealing:
		return "work-stealing"
	}
	return fmt.Sprintf("sched(%d)", int(s))
}

// Runtime is the top-level entry point, analogous to the OpenMP runtime
// library. A Runtime is safe for sequential reuse across many parallel
// regions; the Listener, Registry and Sched must be configured before
// the first Parallel call.
type Runtime struct {
	// listeners is nil for an uninstrumented runtime; clk stamps their
	// events, one read per listener call.
	listeners Listeners
	clk       clock.Clock
	registry  *region.Registry

	// Sched selects the task scheduler (default SchedCentralQueue,
	// modelling the libgomp version the paper evaluated).
	Sched SchedulerKind

	// SpinYield controls whether idle threads call runtime.Gosched while
	// waiting at scheduling points (default true). Disabling it models a
	// pure spin-wait runtime; the ablation bench compares the two.
	SpinYield bool

	untiedDemoted atomic.Int64

	lastStats TeamStats
	statsMu   sync.Mutex

	// nextTaskID numbers the tasks of every region this runtime runs,
	// so an id names one task per session, not per region. It sits
	// behind lastStats, more than a cache line from the fields every
	// event reads: task creation must not invalidate them.
	nextTaskID atomic.Uint64
}

// NewRuntime returns a runtime emitting events to l (nil, or an empty
// Listeners, for an uninstrumented runtime) and interning derived
// regions (implicit barriers) in the default registry. The runtime
// stamps every event from l's Clock — the profiling measurement and
// the trace recorder have one, a Listeners takes its first member's —
// and from a system clock when l names none.
func NewRuntime(l Listener) *Runtime {
	return NewRuntimeWithRegistry(l, region.Default)
}

// NewRuntimeWithRegistry is NewRuntime with an explicit region registry,
// used by tests that must not pollute the global registry.
func NewRuntimeWithRegistry(l Listener, reg *region.Registry) *Runtime {
	rt := &Runtime{registry: reg, SpinYield: true}
	ls, ok := l.(Listeners)
	if !ok && l != nil {
		ls = Listeners{l}
	}
	if len(ls) > 0 {
		rt.listeners, rt.clk = ls, ls.Clock()
		if rt.clk == nil {
			rt.clk = clock.NewSystem()
		}
	}
	return rt
}

// UntiedCount returns how many untied tasks were demoted to tied
// (Section IV-D2 work-around).
func (rt *Runtime) UntiedCount() int64 { return rt.untiedDemoted.Load() }

// TeamStats captures runtime-internal counters of one parallel region,
// used by tests and by the ablation benchmarks. Beyond task totals it
// reports scheduler contention — steal attempts and failures, parks and
// wakes — so the ablation benchmarks can show *why* a configuration is
// slow, not just that it is.
type TeamStats struct {
	Threads      int
	TasksCreated int64

	// Steals counts successful steals (work-stealing scheduler only).
	Steals int64
	// StealAttempts counts calls to a victim deque's steal operation,
	// successful or not; StealAttempts-Steals is wasted synchronization.
	StealAttempts int64
	// FailedSteals counts attempts lost to contention: a top-CAS race
	// with another thief (or the victim's pop of its last entry), or an
	// entry whose claim was won elsewhere.
	FailedSteals int64

	// Parks counts times a thread actually slept on the team's idle
	// notifier; Wakes counts broadcasts that found sleepers.
	Parks int64
	Wakes int64

	MaxStackDepth int // deepest inline task nesting observed on any thread

	// ThreadSteals is the per-thread histogram of successful steals,
	// indexed by thread ID: the imbalance fingerprint of the region.
	ThreadSteals []int64
}

// LastTeamStats returns the counters of the most recently completed
// parallel region.
func (rt *Runtime) LastTeamStats() TeamStats {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	return rt.lastStats
}

// Team is one fork/join thread team executing a parallel region.
type Team struct {
	rt      *Runtime
	threads []*Thread

	// central is the team-wide task queue used by SchedCentralQueue.
	central lockedDeque

	// idle is the team's eventcount: threads out of work park here and
	// are signaled on task publication, completion and barrier release.
	idle idleNotifier

	pending atomic.Int64 // created but not yet completed tasks
	created atomic.Int64

	barrier centralBarrier

	criticalMu sync.Mutex
	criticals  map[*region.Region]*sync.Mutex

	singleMu  sync.Mutex
	singleGen map[int64]*singleState
}

// singleState tracks one lexical Single encounter: whether its body was
// claimed and how many team threads have passed it. The entry is pruned
// once every thread arrived, keeping the map bounded by the number of
// in-flight encounters instead of growing monotonically.
type singleState struct {
	claimed bool
	arrived int
}

// signalWork wakes idle-parked teammates after task publication or
// completion. In a single-thread team nobody can ever be parked while
// the thread itself makes progress, so the (two-atomic-op) signal is
// skipped — it would otherwise tax every task on the hot path.
func (tm *Team) signalWork() {
	if len(tm.threads) > 1 {
		tm.idle.signal()
	}
}

// Thread is one worker of a team — the analog of an OpenMP thread. All
// methods must be called from the worker's own goroutine (they are handed
// to the parallel-region body and task bodies as the execution context).
type Thread struct {
	// ID is the thread number within the team, 0..NumThreads-1.
	ID int

	// Profile is the profiling measurement's typed per-thread slot: the
	// location (per-thread profile) bound at ThreadBegin and cleared at
	// ThreadEnd. The slot contract makes the per-event hot path
	// lock-free: each listener kind owns its own slot, assigned once at
	// ThreadBegin from the thread's own goroutine, so no event ever
	// takes a lock or consults a map to find its per-thread state.
	Profile *core.ThreadProfile

	// TraceData is the trace subsystem's per-thread slot, carrying the
	// trace recorder's event buffer under the same contract as Profile.
	// It is untyped only because the buffer type lives above this
	// package; the recorder claims it with a single type assertion.
	TraceData any

	team    *Team
	deque   wsDeque
	current *Task // task being executed; nil -> implicit task

	implicitChildren atomic.Int32 // incomplete children of the implicit task
	// implicitChildEntries lists queued children of this thread's
	// implicit task for taskwait's tied-task scheduling constraint.
	implicitChildEntries []claimEntry

	freeTasks     *Task
	stealSeq      uint32
	stackDepth    int
	maxStackDepth int
	singleSeq     int64

	// Scheduler counters, owner-written only (no synchronization on the
	// hot path); aggregated into TeamStats when the region ends.
	steals        int64
	stealAttempts int64
	failedSteals  int64
	parks         int64
}

// Team returns the thread's team.
func (t *Thread) Team() *Team { return t.team }

// Runtime returns the runtime this thread's team belongs to.
func (t *Thread) Runtime() *Runtime { return t.team.rt }

// NumThreads returns the team size.
func (t *Thread) NumThreads() int { return len(t.team.threads) }

// Current returns the explicit task instance this thread is currently
// executing, or nil when it executes its implicit task.
func (t *Thread) Current() *Task { return t.current }

// InTask reports whether an explicit task is being executed.
func (t *Thread) InTask() bool { return t.current != nil }

// Enter emits the event of t entering region r, stamped by the
// runtime's clock; with no listener it does nothing. The constructs
// emit their own regions' events through it, and instrumentation
// wrappers (pomp.Function) a user function's.
func (t *Thread) Enter(r *region.Region) {
	if rt := t.team.rt; rt.listeners != nil {
		rt.listeners.Enter(t, r, rt.clk.Now())
	}
}

// Exit emits the event of t leaving region r (see Enter).
func (t *Thread) Exit(r *region.Region) {
	if rt := t.team.rt; rt.listeners != nil {
		rt.listeners.Exit(t, r, rt.clk.Now())
	}
}

// Parallel executes body on a team of n threads, modelling
// "#pragma omp parallel num_threads(n)". Every thread runs body as its
// implicit task; an implicit task-draining barrier closes the region.
// Parallel returns when all threads have left the implicit barrier and
// all tasks created in the region have completed.
func (rt *Runtime) Parallel(n int, r *region.Region, body func(t *Thread)) {
	if n < 1 {
		panic(fmt.Sprintf("omp: Parallel with %d threads", n))
	}
	team := &Team{
		rt:        rt,
		threads:   make([]*Thread, n),
		criticals: make(map[*region.Region]*sync.Mutex),
		singleGen: make(map[int64]*singleState),
	}
	team.barrier.n = int32(n)
	for i := 0; i < n; i++ {
		team.threads[i] = &Thread{ID: i, team: team}
	}
	ibar := rt.implicitBarrierRegion(r)

	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(t *Thread) {
			defer wg.Done()
			if ls := rt.listeners; ls != nil {
				ls.ThreadBegin(t, rt.clk.Now())
				ls.Enter(t, r, rt.clk.Now())
			}
			body(t)
			t.barrierWait(ibar)
			if ls := rt.listeners; ls != nil {
				ls.Exit(t, r, rt.clk.Now())
				ls.ThreadEnd(t, rt.clk.Now())
			}
		}(team.threads[i])
	}
	wg.Wait()

	if p := team.pending.Load(); p != 0 {
		panic(fmt.Sprintf("omp: parallel region ended with %d pending tasks", p))
	}
	st := TeamStats{
		Threads:      n,
		TasksCreated: team.created.Load(),
		Wakes:        team.idle.wakes.Load(),
		ThreadSteals: make([]int64, n),
	}
	for _, t := range team.threads {
		if t.maxStackDepth > st.MaxStackDepth {
			st.MaxStackDepth = t.maxStackDepth
		}
		st.Steals += t.steals
		st.StealAttempts += t.stealAttempts
		st.FailedSteals += t.failedSteals
		st.Parks += t.parks
		st.ThreadSteals[t.ID] = t.steals
	}
	rt.statsMu.Lock()
	rt.lastStats = st
	rt.statsMu.Unlock()
}

// implicitBarrierRegion interns the implicit-barrier region derived from
// a parallel region, as OPARI2 does when rewriting the pragma.
func (rt *Runtime) implicitBarrierRegion(r *region.Region) *region.Region {
	return rt.registry.Register(r.Name+" (implicit barrier)", r.File, r.Line, region.ImplicitBarrier)
}

// Barrier models "#pragma omp barrier": the thread waits until all team
// members arrive, executing queued tasks while waiting. r is the region
// metrics are attributed to.
func (t *Thread) Barrier(r *region.Region) {
	t.barrierWait(r)
}

// barrierWait enters the team barrier with enter/exit events on r.
func (t *Thread) barrierWait(r *region.Region) {
	t.Enter(r)
	t.team.barrier.wait(t)
	t.Exit(r)
}

// Master models "#pragma omp master": only thread 0 executes fn. There is
// no implied barrier.
func (t *Thread) Master(r *region.Region, fn func(t *Thread)) {
	if t.ID != 0 {
		return
	}
	t.Enter(r)
	fn(t)
	t.Exit(r)
}

// Single models "#pragma omp single nowait": exactly one thread of the
// team executes fn per lexical encounter. Threads must encounter Single
// constructs in the same order. There is no implied barrier; combine with
// Barrier for the blocking form.
func (t *Thread) Single(r *region.Region, fn func(t *Thread)) {
	seq := t.singleSeq
	t.singleSeq++
	team := t.team
	team.singleMu.Lock()
	st := team.singleGen[seq]
	if st == nil {
		st = &singleState{}
		team.singleGen[seq] = st
	}
	claimed := st.claimed
	st.claimed = true
	st.arrived++
	if st.arrived == len(team.threads) {
		// Every thread passed this encounter; no one can look it up again.
		delete(team.singleGen, seq)
	}
	team.singleMu.Unlock()
	if claimed {
		return
	}
	t.Enter(r)
	fn(t)
	t.Exit(r)
}

// Critical models "#pragma omp critical(name)": mutual exclusion between
// team threads per critical region.
func (t *Thread) Critical(r *region.Region, fn func(t *Thread)) {
	team := t.team
	team.criticalMu.Lock()
	mu, ok := team.criticals[r]
	if !ok {
		mu = &sync.Mutex{}
		team.criticals[r] = mu
	}
	team.criticalMu.Unlock()

	mu.Lock()
	t.Enter(r)
	fn(t)
	t.Exit(r)
	mu.Unlock()
}

// For models a statically scheduled "#pragma omp for" over [0,n): the
// iteration space is split into contiguous chunks, one per thread. There
// is no implied barrier; combine with Barrier if needed.
func (t *Thread) For(r *region.Region, n int, fn func(t *Thread, i int)) {
	t.Enter(r)
	nt := t.NumThreads()
	chunk := (n + nt - 1) / nt
	lo := t.ID * chunk
	hi := lo + chunk
	if hi > n {
		hi = n
	}
	for i := lo; i < hi; i++ {
		fn(t, i)
	}
	t.Exit(r)
}

// centralBarrier is a sense-reversing barrier with task draining: threads
// waiting at the barrier execute queued tasks, and the barrier releases
// only when all threads arrived AND no task is pending — the OpenMP
// guarantee that all explicit tasks complete at barriers.
//
// The n-th arriver of each generation — unique, determined by the value
// arrived.Add(1) returns — is the designated releaser: it drains the
// task pool to pending == 0, resets the arrival count and advances the
// generation. An earlier design instead let any thread race a CAS on
// gen once it observed arrived >= n, which was unsound across
// generations: between a releaser's gen CAS and its arrived -= n
// bookkeeping, fast threads could re-arrive and observe a stale count
// that still included the previous generation, releasing the next
// barrier before all its threads arrived and corrupting the count for
// every round after (the single-designated-releaser structure makes
// that window impossible: arrivals for generation g+1 cannot begin
// until the releaser of g has already reset the count).
type centralBarrier struct {
	n       int32
	arrived atomic.Int32
	gen     atomic.Uint32
}

func (b *centralBarrier) wait(t *Thread) {
	team := t.team
	// gen is stable here: this generation cannot release before this
	// thread's arrival below is counted.
	g := b.gen.Load()
	pos := b.arrived.Add(1)
	var lad idleLadder
	if pos == b.n {
		// Designated releaser: every thread has arrived, so no new
		// tasks can appear once pending reaches zero (tasks are only
		// created by the region body or by running tasks, and a running
		// task keeps pending above zero until it completes).
		for team.pending.Load() != 0 {
			if tk := t.findTask(); tk != nil {
				t.runTask(tk)
				lad.reset()
				continue
			}
			lad.step(t)
		}
		// Reset strictly before advancing gen: a thread re-arrives for
		// the next generation only after it observes the new gen, so
		// the count it increments is never the stale one.
		b.arrived.Add(-b.n)
		b.gen.Add(1)
		// Release parked waiters of this generation.
		team.signalWork()
		return
	}
	for {
		// Drain tasks first: useful work shortens the barrier for all.
		if tk := t.findTask(); tk != nil {
			t.runTask(tk)
			lad.reset()
			continue
		}
		if b.gen.Load() != g {
			return
		}
		lad.step(t)
	}
}
