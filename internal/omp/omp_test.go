package omp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/region"
)

func testRegions(t *testing.T) (par, task, tw, bar *region.Region, reg *region.Registry) {
	t.Helper()
	reg = region.NewRegistry()
	par = reg.Register("par", "t.go", 1, region.Parallel)
	task = reg.Register("task", "t.go", 2, region.Task)
	tw = reg.Register("tw", "t.go", 3, region.Taskwait)
	bar = reg.Register("bar", "t.go", 4, region.Barrier)
	return
}

func TestParallelRunsAllThreads(t *testing.T) {
	par, _, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	for _, n := range []int{1, 2, 4, 8} {
		var mask int64
		rt.Parallel(n, par, func(th *Thread) {
			atomic.AddInt64(&mask, 1<<uint(th.ID))
		})
		want := int64(1<<uint(n)) - 1
		if mask != want {
			t.Errorf("n=%d: thread mask = %b, want %b", n, mask, want)
		}
	}
}

func TestParallelPanicsOnZeroThreads(t *testing.T) {
	par, _, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Parallel(0)")
		}
	}()
	rt.Parallel(0, par, func(*Thread) {})
}

func TestTaskExecutesAndTaskwaitWaits(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var ran atomic.Int64
	rt.Parallel(4, par, func(th *Thread) {
		if th.ID == 0 {
			for i := 0; i < 100; i++ {
				th.NewTask(task, func(*Thread) { ran.Add(1) })
			}
			th.Taskwait(tw)
			if got := ran.Load(); got != 100 {
				t.Errorf("after taskwait: %d tasks ran, want 100", got)
			}
		}
	})
	if got := ran.Load(); got != 100 {
		t.Errorf("after region: %d tasks ran, want 100", got)
	}
}

func TestBarrierCompletesAllTasks(t *testing.T) {
	par, task, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var ran atomic.Int64
	rt.Parallel(8, par, func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.NewTask(task, func(*Thread) { ran.Add(1) })
		}
		// implicit barrier at region end must drain everything
	})
	if got := ran.Load(); got != 8*50 {
		t.Errorf("%d tasks ran, want %d", got, 8*50)
	}
}

func TestExplicitBarrierSynchronizes(t *testing.T) {
	par, task, _, bar, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var phase1 atomic.Int64
	var sawAll atomic.Int64
	rt.Parallel(4, par, func(th *Thread) {
		th.NewTask(task, func(*Thread) { phase1.Add(1) })
		th.Barrier(bar)
		if phase1.Load() == 4 {
			sawAll.Add(1)
		}
	})
	if sawAll.Load() != 4 {
		t.Errorf("only %d/4 threads saw all phase-1 tasks done after barrier", sawAll.Load())
	}
}

func TestRecursiveTasksAndNestedTaskwait(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var fib func(th *Thread, n int, out *int64)
	fib = func(th *Thread, n int, out *int64) {
		if n < 2 {
			*out = int64(n)
			return
		}
		var a, b int64
		th.NewTask(task, func(c *Thread) { fib(c, n-1, &a) })
		th.NewTask(task, func(c *Thread) { fib(c, n-2, &b) })
		th.Taskwait(tw)
		*out = a + b
	}
	var result int64
	rt.Parallel(4, par, func(th *Thread) {
		if th.ID == 0 {
			fib(th, 15, &result)
		}
	})
	if result != 610 {
		t.Errorf("fib(15) = %d, want 610", result)
	}
	st := rt.LastTeamStats()
	// fib task count: T(n) = T(n-1)+T(n-2)+2, T(0)=T(1)=0 -> 2*(fib(n+1)-1)
	if st.TasksCreated != 2*(987-1) {
		t.Errorf("tasks created = %d, want %d", st.TasksCreated, 2*(987-1))
	}
}

func TestTiedTasksStayOnStartingThread(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var violations atomic.Int64
	rt.Parallel(4, par, func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.NewTask(task, func(c *Thread) {
				start := c.ID
				// Suspend at a taskwait (a scheduling point): after the
				// wait the fragment must continue on the same thread.
				c.NewTask(task, func(*Thread) {})
				c.Taskwait(tw)
				if c.ID != start {
					violations.Add(1)
				}
			})
		}
	})
	if violations.Load() != 0 {
		t.Errorf("%d tied tasks migrated across threads", violations.Load())
	}
}

func TestUndeferredIfClauseRunsInline(t *testing.T) {
	par, task, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	rt.Parallel(2, par, func(th *Thread) {
		if th.ID != 0 {
			return
		}
		executed := false
		th.NewTask(task, func(c *Thread) {
			executed = true
			if c.ID != th.ID {
				t.Errorf("undeferred task ran on thread %d, creator %d", c.ID, th.ID)
			}
		}, If(false))
		if !executed {
			t.Error("undeferred task did not execute before NewTask returned")
		}
	})
}

func TestFinalMakesDescendantsUndeferred(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var order []int
	rt.Parallel(1, par, func(th *Thread) {
		th.NewTask(task, func(c *Thread) {
			order = append(order, 1)
			c.NewTask(task, func(*Thread) {
				order = append(order, 2) // included: runs inline, immediately
			})
			order = append(order, 3)
		}, Final(true))
		th.Taskwait(tw)
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("final-context execution order = %v, want [1 2 3]", order)
	}
}

func TestUntiedDemotedToTied(t *testing.T) {
	par, task, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	rt.Parallel(1, par, func(th *Thread) {
		th.NewTask(task, func(*Thread) {}, Untied())
	})
	if rt.UntiedCount() != 1 {
		t.Errorf("UntiedCount = %d, want 1", rt.UntiedCount())
	}
}

func TestTaskDepth(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	depths := make(map[int]int)
	var mu sync.Mutex
	var rec func(th *Thread, d int)
	rec = func(th *Thread, d int) {
		if d == 3 {
			return
		}
		th.NewTask(task, func(c *Thread) {
			mu.Lock()
			depths[c.Current().Depth()]++
			mu.Unlock()
			rec(c, d+1)
			c.Taskwait(tw)
		})
	}
	rt.Parallel(2, par, func(th *Thread) {
		if th.ID == 0 {
			rec(th, 0)
			th.Taskwait(tw)
		}
	})
	if depths[0] != 1 || depths[1] != 1 || depths[2] != 1 {
		t.Errorf("task depth histogram = %v, want one task at each depth 0..2", depths)
	}
}

func TestWorkStealingHappens(t *testing.T) {
	// Pin GOMAXPROCS so the test means the same thing everywhere. On a
	// single-proc setting the seed runtime starved thieves forever (the
	// creator drained its own deque before a thief ever ran); with the
	// idle notifier a parked thief is woken as soon as work is published,
	// so steals happen at any GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	par, task, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	rt.Sched = SchedWorkStealing
	// Whether a steal happens within one region depends on goroutine
	// start-up timing; retry a few times before declaring failure.
	for attempt := 0; attempt < 10; attempt++ {
		rt.Parallel(4, par, func(th *Thread) {
			if th.ID == 0 {
				for i := 0; i < 2000; i++ {
					th.NewTask(task, func(*Thread) {
						s := 0
						for j := 0; j < 5000; j++ {
							s += j
						}
						_ = s
					})
				}
			}
		})
		st := rt.LastTeamStats()
		if st.Steals > 0 {
			if st.StealAttempts < st.Steals {
				t.Errorf("StealAttempts = %d < Steals = %d", st.StealAttempts, st.Steals)
			}
			var histTotal int64
			for id, s := range st.ThreadSteals {
				if id == 0 && s != 0 {
					t.Errorf("creator thread recorded %d steals of its own work", s)
				}
				histTotal += s
			}
			if histTotal != st.Steals {
				t.Errorf("ThreadSteals sums to %d, want %d", histTotal, st.Steals)
			}
			return
		}
	}
	t.Error("single-creator workload with 4 threads never recorded a steal in 10 regions")
}

// TestWorkStealingConservationAcrossGOMAXPROCS runs the work-stealing
// scheduler's conservation check pinned to 1, 2 and 4 procs. The
// single-proc case is the regression guard for the starvation bug: the
// seed runtime deadlocked thieves out of ever stealing there, and any
// lost-wakeup bug in the park/signal protocol would hang this test.
func TestWorkStealingConservationAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	par, task, tw, _, reg := testRegions(t)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		rt := NewRuntimeWithRegistry(nil, reg)
		rt.Sched = SchedWorkStealing
		var executed atomic.Int64
		var rec func(th *Thread, d int)
		rec = func(th *Thread, d int) {
			if d == 6 {
				return
			}
			for i := 0; i < 2; i++ {
				th.NewTask(task, func(c *Thread) {
					executed.Add(1)
					rec(c, d+1)
					c.Taskwait(tw)
				})
			}
		}
		rt.Parallel(4, par, func(th *Thread) {
			if th.ID == 0 {
				rec(th, 0)
				th.Taskwait(tw)
			}
		})
		st := rt.LastTeamStats()
		if executed.Load() != st.TasksCreated {
			t.Errorf("procs=%d: executed %d of %d created tasks",
				procs, executed.Load(), st.TasksCreated)
		}
		if st.TasksCreated != 2*(1<<6-1) {
			t.Errorf("procs=%d: created %d tasks, want %d", procs, st.TasksCreated, 2*(1<<6-1))
		}
	}
}

// TestSingleGenPruned guards the singleGen leak fix: once all team
// threads passed a Single encounter its bookkeeping entry must be
// deleted, so the map stays bounded by in-flight encounters instead of
// growing by one entry per encounter forever.
func TestSingleGenPruned(t *testing.T) {
	par, _, _, bar, reg := testRegions(t)
	single := reg.Register("single-leak", "t.go", 10, region.Single)
	rt := NewRuntimeWithRegistry(nil, reg)
	var team *Team
	var count atomic.Int64
	rt.Parallel(4, par, func(th *Thread) {
		if th.ID == 0 {
			team = th.Team()
		}
		for i := 0; i < 200; i++ {
			th.Single(single, func(*Thread) { count.Add(1) })
			th.Barrier(bar)
		}
	})
	if count.Load() != 200 {
		t.Errorf("single bodies executed %d times, want 200", count.Load())
	}
	team.singleMu.Lock()
	left := len(team.singleGen)
	team.singleMu.Unlock()
	if left != 0 {
		t.Errorf("singleGen holds %d entries after region end, want 0 (leak)", left)
	}
}

func TestBothSchedulersProduceSameResults(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	var fib func(th *Thread, n int, out *int64)
	fib = func(th *Thread, n int, out *int64) {
		if n < 2 {
			*out = int64(n)
			return
		}
		var a, b int64
		th.NewTask(task, func(c *Thread) { fib(c, n-1, &a) })
		th.NewTask(task, func(c *Thread) { fib(c, n-2, &b) })
		th.Taskwait(tw)
		*out = a + b
	}
	for _, sched := range []SchedulerKind{SchedCentralQueue, SchedWorkStealing} {
		rt := NewRuntimeWithRegistry(nil, reg)
		rt.Sched = sched
		var result int64
		rt.Parallel(4, par, func(th *Thread) {
			if th.ID == 0 {
				fib(th, 16, &result)
			}
		})
		if result != 987 {
			t.Errorf("sched=%v: fib(16) = %d, want 987", sched, result)
		}
	}
}

func TestSchedulerKindString(t *testing.T) {
	if SchedCentralQueue.String() != "central-queue" ||
		SchedWorkStealing.String() != "work-stealing" {
		t.Error("scheduler names wrong")
	}
	if SchedulerKind(9).String() != "sched(9)" {
		t.Error("unknown scheduler fallback wrong")
	}
}

func TestTaskyieldRunsOtherTask(t *testing.T) {
	par, task, _, _, reg := testRegions(t)
	ty := reg.Register("yield", "t.go", 9, region.Taskwait)
	rt := NewRuntimeWithRegistry(nil, reg)
	order := []int{}
	rt.Parallel(1, par, func(th *Thread) {
		th.NewTask(task, func(c *Thread) {
			order = append(order, 1)
			c.NewTask(task, func(*Thread) { order = append(order, 2) })
			c.Taskyield(ty) // must execute the queued child inline
			order = append(order, 3)
		})
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("taskyield order = %v, want [1 2 3]", order)
	}
}

func TestSingleExecutesOnce(t *testing.T) {
	par, _, _, bar, reg := testRegions(t)
	single := reg.Register("single", "t.go", 5, region.Single)
	rt := NewRuntimeWithRegistry(nil, reg)
	var count atomic.Int64
	rt.Parallel(4, par, func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Single(single, func(*Thread) { count.Add(1) })
			th.Barrier(bar)
		}
	})
	if count.Load() != 3 {
		t.Errorf("single body executed %d times, want 3", count.Load())
	}
}

func TestMasterOnlyThreadZero(t *testing.T) {
	par, _, _, _, reg := testRegions(t)
	master := reg.Register("master", "t.go", 6, region.Master)
	rt := NewRuntimeWithRegistry(nil, reg)
	var ids []int
	var mu sync.Mutex
	rt.Parallel(4, par, func(th *Thread) {
		th.Master(master, func(m *Thread) {
			mu.Lock()
			ids = append(ids, m.ID)
			mu.Unlock()
		})
	})
	if len(ids) != 1 || ids[0] != 0 {
		t.Errorf("master executed by %v, want [0]", ids)
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	par, _, _, _, reg := testRegions(t)
	crit := reg.Register("crit", "t.go", 7, region.Critical)
	rt := NewRuntimeWithRegistry(nil, reg)
	counter := 0 // unsynchronized on purpose; Critical must protect it
	rt.Parallel(8, par, func(th *Thread) {
		for i := 0; i < 500; i++ {
			th.Critical(crit, func(*Thread) { counter++ })
		}
	})
	if counter != 8*500 {
		t.Errorf("critical counter = %d, want %d", counter, 8*500)
	}
}

func TestForCoversIterationSpace(t *testing.T) {
	par, _, _, bar, reg := testRegions(t)
	loop := reg.Register("loop", "t.go", 8, region.Loop)
	rt := NewRuntimeWithRegistry(nil, reg)
	const n = 1003
	hits := make([]int32, n)
	rt.Parallel(4, par, func(th *Thread) {
		th.For(loop, n, func(_ *Thread, i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		th.Barrier(bar)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("iteration %d executed %d times", i, h)
		}
	}
}

func TestTaskRecyclingReusesInstances(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	rt.Parallel(1, par, func(th *Thread) {
		// Sequentially create and finish tasks; the free list should keep
		// allocation count near the concurrency (1), not the task count.
		for i := 0; i < 1000; i++ {
			th.NewTask(task, func(*Thread) {})
			th.Taskwait(tw)
		}
		if th.freeTasks == nil {
			t.Error("free list empty after 1000 sequential tasks")
		}
	})
}

func TestMaxStackDepthTracksNesting(t *testing.T) {
	par, task, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	var rec func(th *Thread, d int)
	rec = func(th *Thread, d int) {
		if d == 5 {
			return
		}
		// Undeferred -> runs inline right here, nesting the stack.
		th.NewTask(task, func(c *Thread) { rec(c, d+1) }, If(false))
	}
	rt.Parallel(1, par, func(th *Thread) { rec(th, 0) })
	if st := rt.LastTeamStats(); st.MaxStackDepth != 5 {
		t.Errorf("MaxStackDepth = %d, want 5", st.MaxStackDepth)
	}
}

// eventCounter checks that listener events balance, and that every
// TaskEnd ends the task its thread runs and resumes the one below it.
type eventCounter struct {
	NopListener
	mu                 sync.Mutex
	enters, exits      int
	begins, ends       int
	createB, createE   int
	threadsB, threadsE int
	running            map[int][]*Task // per thread: its suspended tasks, the running one last
	bad                []string
}

func (c *eventCounter) ThreadBegin(t *Thread) { c.mu.Lock(); c.threadsB++; c.mu.Unlock() }
func (c *eventCounter) ThreadEnd(t *Thread)   { c.mu.Lock(); c.threadsE++; c.mu.Unlock() }
func (c *eventCounter) Enter(t *Thread, r *region.Region) {
	c.mu.Lock()
	c.enters++
	c.mu.Unlock()
}
func (c *eventCounter) Exit(t *Thread, r *region.Region) { c.mu.Lock(); c.exits++; c.mu.Unlock() }
func (c *eventCounter) TaskCreateBegin(t *Thread, r *region.Region) {
	c.mu.Lock()
	c.createB++
	c.mu.Unlock()
}
func (c *eventCounter) TaskCreateEnd(t *Thread, tk *Task) { c.mu.Lock(); c.createE++; c.mu.Unlock() }
func (c *eventCounter) TaskBegin(t *Thread, tk *Task) {
	c.mu.Lock()
	c.begins++
	if c.running == nil {
		c.running = make(map[int][]*Task)
	}
	c.running[t.ID] = append(c.running[t.ID], tk)
	c.mu.Unlock()
}
func (c *eventCounter) TaskEnd(t *Thread, tk, resume *Task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ends++
	st := c.running[t.ID]
	if len(st) == 0 || st[len(st)-1] != tk {
		c.bad = append(c.bad, fmt.Sprintf("thread %d ends task %d, which it is not running", t.ID, tk.ID))
		return
	}
	st = st[:len(st)-1]
	c.running[t.ID] = st
	var want *Task
	if len(st) > 0 {
		want = st[len(st)-1]
	}
	if resume != want {
		id := func(tk *Task) string {
			if tk == nil {
				return "the implicit task"
			}
			return fmt.Sprintf("task %d", tk.ID)
		}
		c.bad = append(c.bad, fmt.Sprintf("thread %d ends task %d and resumes %s, want %s", t.ID, tk.ID, id(resume), id(want)))
	}
}

func TestEventStreamBalances(t *testing.T) {
	par, task, tw, _, reg := testRegions(t)
	c := &eventCounter{}
	rt := NewRuntimeWithRegistry(c, reg)
	const tasks = 200
	rt.Parallel(4, par, func(th *Thread) {
		for i := 0; i < tasks/4; i++ {
			th.NewTask(task, func(in *Thread) {
				in.NewTask(task, func(*Thread) {})
				in.Taskwait(tw)
			})
		}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.threadsB != 4 || c.threadsE != 4 {
		t.Errorf("thread events: begin=%d end=%d, want 4/4", c.threadsB, c.threadsE)
	}
	if c.enters != c.exits {
		t.Errorf("enter events %d != exit events %d", c.enters, c.exits)
	}
	wantTasks := tasks + tasks // outer + one child each
	if c.begins != wantTasks || c.ends != wantTasks {
		t.Errorf("task begin/end = %d/%d, want %d", c.begins, c.ends, wantTasks)
	}
	if c.createB != wantTasks || c.createE != wantTasks {
		t.Errorf("task create begin/end = %d/%d, want %d", c.createB, c.createE, wantTasks)
	}
	for _, msg := range c.bad {
		t.Error(msg)
	}
	for id, st := range c.running {
		if len(st) != 0 {
			t.Errorf("thread %d left %d tasks running", id, len(st))
		}
	}
}

func TestPendingZeroAfterRegion(t *testing.T) {
	par, task, _, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	// A pathological creation pattern: tasks creating tasks inside the
	// implicit barrier drain. The region must still end with zero pending.
	var rec func(th *Thread, d int)
	rec = func(th *Thread, d int) {
		if d == 8 {
			return
		}
		th.NewTask(task, func(c *Thread) { rec(c, d+1) })
	}
	rt.Parallel(4, par, func(th *Thread) { rec(th, 0) })
	// Parallel panics internally if pending != 0; reaching here is a pass.
}

func TestLockedDequeLIFOAndStealFIFO(t *testing.T) {
	var d lockedDeque
	mk := func(id uint64) claimEntry { return claimEntry{task: &Task{ID: id}} }
	for i := uint64(1); i <= 5; i++ {
		d.push(mk(i))
	}
	if got, ok := d.steal(); !ok || got.task.ID != 1 {
		t.Errorf("steal got %v, want oldest (1)", got)
	}
	if got, ok := d.pop(); !ok || got.task.ID != 5 {
		t.Errorf("pop got %v, want newest (5)", got)
	}
	if d.size() != 3 {
		t.Errorf("size = %d, want 3", d.size())
	}
	for want := uint64(4); want >= 2; want-- {
		if got, ok := d.pop(); !ok || got.task.ID != want {
			t.Errorf("pop got %v, want %d", got, want)
		}
	}
	if _, ok := d.pop(); ok {
		t.Error("empty deque popped an entry")
	}
	if _, ok := d.steal(); ok {
		t.Error("empty deque stole an entry")
	}
}

func TestLockedDequeGrowthPreservesOrder(t *testing.T) {
	var d lockedDeque
	const n = 1000
	for i := uint64(0); i < n; i++ {
		d.push(claimEntry{task: &Task{ID: i}})
		if i%3 == 0 {
			d.steal()
		}
	}
	prev := uint64(1 << 62)
	for {
		e, ok := d.pop()
		if !ok {
			break
		}
		if e.task.ID >= prev {
			t.Fatalf("pop order violated: %d after %d", e.task.ID, prev)
		}
		prev = e.task.ID
	}
}

func TestClaimEntryABASafety(t *testing.T) {
	tk := &Task{}
	e1 := claimEntry{task: tk, word: tk.claim.Load()}
	if !e1.tryClaim() {
		t.Fatal("fresh claim failed")
	}
	if e1.tryClaim() {
		t.Fatal("double claim succeeded")
	}
	// Simulate recycle: generation bump makes stale entries unclaimable.
	gen := tk.claim.Load() >> 1
	tk.claim.Store((gen + 1) << 1)
	if e1.tryClaim() {
		t.Fatal("stale entry claimed a recycled task (ABA)")
	}
	e2 := claimEntry{task: tk, word: tk.claim.Load()}
	if !e2.tryClaim() {
		t.Fatal("fresh entry after recycle failed to claim")
	}
}

func TestTaskwaitRunsOnlyDescendants(t *testing.T) {
	// The tied-task scheduling constraint: while task A waits at its
	// taskwait, the thread must not pick up an unrelated sibling task.
	par, task, tw, _, reg := testRegions(t)
	rt := NewRuntimeWithRegistry(nil, reg)
	violation := false
	rt.Parallel(1, par, func(th *Thread) {
		// Unrelated sibling task queued first.
		th.NewTask(task, func(*Thread) {})
		th.NewTask(task, func(c *Thread) {
			a := c.Current()
			c.NewTask(task, func(gc *Thread) {
				if gc.Current().parent != a {
					violation = true
				}
			})
			c.Taskwait(tw) // must run only the child, not the sibling
			if c.Current() != a {
				violation = true
			}
		})
		th.Taskwait(tw)
	})
	if violation {
		t.Error("taskwait executed a non-descendant task")
	}
}
