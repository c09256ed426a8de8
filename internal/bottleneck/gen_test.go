package bottleneck

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/region"
	"repro/internal/trace"
)

// genConfig shapes one random task graph.
type genConfig struct {
	Threads  int
	Roots    int   // tasks the implicit tasks create per phase, over all threads
	Phases   int   // barrier-separated phases
	MaxDepth int   // nesting limit for child tasks
	Grid     int64 // timestamps are multiples of Grid: > 1 plants ties
	Producer bool  // thread 0 alone creates the roots, Roots of them a phase
}

type genTask struct {
	id          uint64
	region      *region.Region
	createEnd   int64
	parent      *genFrame
	depth       int
	ops         []int // opWork, opCreate, opWait
	outstanding int
}

const (
	opWork = iota
	opCreate
	opWait
)

// genFrame is one task (or the implicit task, task == nil) on a
// thread's stack.
type genFrame struct {
	task        *genTask
	ops         []int
	outstanding int
	waiting     bool
	waitRegion  *region.Region
	barrier     int // the phase whose barrier waitRegion is, when not a taskwait
}

type genThread struct {
	tid    int
	now    int64
	stack  []*genFrame
	events []trace.Event
	done   bool
}

// randomTrace executes a random task graph on cfg.Threads virtual
// threads under the runtime's rules: tasks are created into one pool, a
// thread inside a taskwait or barrier begins pooled tasks, a finished
// task switches back to the task it suspended. Every thread's stream is
// well formed and time-ordered; all three wait states occur.
func randomTrace(rng *rand.Rand, cfg genConfig) *trace.Trace {
	reg := region.NewRegistry()
	par := reg.Register("g.parallel", "g.go", 1, region.Parallel)
	tw := reg.Register("g.taskwait", "g.go", 2, region.Taskwait)
	bar := reg.Register("g.barrier", "g.go", 3, region.Barrier)
	ibar := reg.Register("g.parallel", "g.go", 1, region.ImplicitBarrier)
	work := reg.Register("g.work", "g.go", 4, region.UserFunction)
	taskRegions := []*region.Region{
		reg.Register("g.taskA", "g.go", 10, region.Task),
		reg.Register("g.taskB", "g.go", 11, region.Task),
		reg.Register("g.taskC", "g.go", 12, region.Task),
	}

	var pool []*genTask
	var nextID uint64
	threads := make([]*genThread, cfg.Threads)
	tick := func(th *genThread, max int64) int64 {
		th.now += (1 + rng.Int63n(max)) * cfg.Grid
		return th.now
	}
	emit := func(th *genThread, typ trace.EventType, r *region.Region, id uint64) {
		th.events = append(th.events, trace.Event{Time: th.now, Type: typ, Region: r, TaskID: id})
	}
	taskOps := func(depth int) []int {
		ops := []int{opWork}
		if depth < cfg.MaxDepth {
			for n := rng.Intn(4); n > 0; n-- {
				ops = append(ops, opCreate, opWork)
			}
			if len(ops) > 1 && rng.Intn(4) > 0 {
				ops = append(ops, opWait, opWork)
			}
		}
		return ops
	}
	for i := range threads {
		th := &genThread{tid: i, now: rng.Int63n(5) * cfg.Grid}
		var ops []int
		for p := 0; p < cfg.Phases; p++ {
			ops = append(ops, opWork)
			// A random subset of the threads creates this phase's roots.
			creates, roots := i == p%cfg.Threads || rng.Intn(3) == 0, 1+rng.Intn(cfg.Roots)
			if cfg.Producer {
				creates, roots = i == 0, cfg.Roots
			}
			for ; creates && roots > 0; roots-- {
				ops = append(ops, opCreate)
			}
			if rng.Intn(2) == 0 {
				ops = append(ops, opWork, opWait)
			}
			ops = append(ops, -1-p) // barrier p
		}
		th.stack = []*genFrame{{ops: ops}}
		emit(th, trace.EvThreadBegin, nil, 0)
		tick(th, 3)
		emit(th, trace.EvEnter, par, 0)
		threads[i] = th
	}

	arrived := make([]int, cfg.Phases)   // threads that reached barrier p
	released := make([]bool, cfg.Phases) // barrier p has let a thread go
	running := 0                         // begun, unfinished tasks
	taskID := func(f *genFrame) uint64 {
		if f.task == nil {
			return 0
		}
		return f.task.id
	}
	// step advances th by one action; false means it can only wait.
	step := func(th *genThread) bool {
		f := th.stack[len(th.stack)-1]
		if f.waiting {
			leave := f.outstanding == 0
			if f.waitRegion != tw {
				p := f.barrier
				released[p] = released[p] || arrived[p] == cfg.Threads && len(pool) == 0 && running == 0
				leave = released[p]
			}
			if leave {
				tick(th, 3)
				emit(th, trace.EvExit, f.waitRegion, taskID(f))
				f.waiting = false
				return true
			}
			if len(pool) == 0 {
				return false
			}
			i := rng.Intn(len(pool))
			t := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			if th.now < t.createEnd {
				th.now = t.createEnd
			}
			tick(th, 4)
			emit(th, trace.EvTaskBegin, t.region, t.id)
			running++
			th.stack = append(th.stack, &genFrame{task: t, ops: t.ops})
			return true
		}
		if len(f.ops) == 0 {
			if f.task == nil {
				tick(th, 3)
				emit(th, trace.EvExit, par, 0)
				tick(th, 2)
				emit(th, trace.EvThreadEnd, nil, 0)
				th.done = true
				return true
			}
			tick(th, 3)
			emit(th, trace.EvTaskEnd, f.task.region, f.task.id)
			running--
			f.task.parent.outstanding--
			th.stack = th.stack[:len(th.stack)-1]
			tick(th, 2)
			emit(th, trace.EvTaskSwitch, nil, taskID(th.stack[len(th.stack)-1]))
			return true
		}
		op := f.ops[0]
		f.ops = f.ops[1:]
		switch {
		case op == opWork:
			tick(th, 3)
			emit(th, trace.EvEnter, work, taskID(f))
			tick(th, 40)
			emit(th, trace.EvExit, work, taskID(f))
		case op == opCreate:
			depth := 0
			if f.task != nil {
				depth = f.task.depth + 1
			}
			nextID++
			t := &genTask{id: nextID, region: taskRegions[rng.Intn(len(taskRegions))], parent: f, depth: depth}
			t.ops = taskOps(depth)
			tick(th, 3)
			emit(th, trace.EvTaskCreateBegin, t.region, taskID(f))
			tick(th, 6)
			emit(th, trace.EvTaskCreateEnd, t.region, t.id)
			t.createEnd = th.now
			f.outstanding++
			pool = append(pool, t)
		case op == opWait:
			tick(th, 3)
			emit(th, trace.EvEnter, tw, taskID(f))
			f.waiting, f.waitRegion = true, tw
		default: // barrier -1-p
			p := -1 - op
			r := bar
			if p == cfg.Phases-1 {
				r = ibar
			}
			tick(th, 3)
			emit(th, trace.EvEnter, r, 0)
			arrived[p]++
			f.waiting, f.waitRegion, f.barrier = true, r, p
		}
		return true
	}

	for {
		// The thread furthest behind acts next; one that can only wait
		// idles past the next thread that can act.
		order := make([]*genThread, 0, len(threads))
		for _, th := range threads {
			if !th.done {
				order = append(order, th)
			}
		}
		if len(order) == 0 {
			break
		}
		sort.SliceStable(order, func(i, j int) bool { return order[i].now < order[j].now })
		acted := false
		for i, th := range order {
			if step(th) {
				for _, w := range order[:i] {
					if w.now < th.now {
						w.now = th.now
					}
				}
				acted = true
				break
			}
		}
		if !acted {
			panic("randomTrace: every thread is waiting")
		}
	}

	tr := &trace.Trace{Threads: make(map[int][]trace.Event, len(threads))}
	for _, th := range threads {
		tr.Threads[th.tid] = th.events
	}
	return tr
}

// randomConfig draws a small graph shape: one time in four a single
// producer (one thread creates hundreds of leaf tasks, whose pending
// windows pile up under the other threads' idle spans), one time in
// four many barriers (phases far outnumber threads), else a few nested
// tasks from every thread.
func randomConfig(rng *rand.Rand) genConfig {
	grids := []int64{1, 1, 10, 50}
	cfg := genConfig{
		Threads:  1 + rng.Intn(5),
		Roots:    1 + rng.Intn(6),
		Phases:   1 + rng.Intn(3),
		MaxDepth: rng.Intn(4),
		Grid:     grids[rng.Intn(len(grids))],
	}
	switch rng.Intn(4) {
	case 0:
		cfg.Producer, cfg.Roots, cfg.MaxDepth = true, 100+rng.Intn(300), 0
	case 1:
		cfg.Threads, cfg.Phases = 1+rng.Intn(3), 12+rng.Intn(30)
	}
	return cfg
}

// The hostile mutations below each break one thing a recorder
// guarantees. They edit tr in place.

// backwardsClocks makes one thread's clock jump back mid-stream.
func backwardsClocks(rng *rand.Rand, tr *trace.Trace) {
	evs := tr.Threads[rng.Intn(len(tr.Threads))]
	if len(evs) < 4 {
		return
	}
	from := 1 + rng.Intn(len(evs)-2)
	shift := evs[from].Time - evs[0].Time + 1 + rng.Int63n(50)
	for i := from; i < len(evs); i++ {
		evs[i].Time -= shift
	}
}

// dropEvents removes about one event in eight, leaving unmatched
// enters, exits, begins, ends and creates.
func dropEvents(rng *rand.Rand, tr *trace.Trace) {
	for tid := 0; tid < len(tr.Threads); tid++ {
		kept := tr.Threads[tid][:0]
		for _, ev := range tr.Threads[tid] {
			if rng.Intn(8) != 0 {
				kept = append(kept, ev)
			}
		}
		tr.Threads[tid] = kept
	}
}

// duplicateIDs folds the task ids onto a quarter as many.
func duplicateIDs(rng *rand.Rand, tr *trace.Trace) {
	mapIDs(tr, func(id uint64) uint64 { return 1 + id/4 })
}

// hugeIDs moves every second task id to the top of the id space.
func hugeIDs(rng *rand.Rand, tr *trace.Trace) {
	mapIDs(tr, func(id uint64) uint64 {
		if id%2 == 0 {
			return math.MaxUint64 - id
		}
		return id
	})
}

func mapIDs(tr *trace.Trace, f func(uint64) uint64) {
	for _, evs := range tr.Threads {
		for i := range evs {
			if evs[i].TaskID != 0 {
				evs[i].TaskID = f(evs[i].TaskID)
			}
		}
	}
}
