package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/region"
	"repro/internal/trace"
)

// The synthetic trace generator: a seeded random task tree executed by
// a virtual-time work-stealing scheduler. It exists so archive-query
// has an input whose every byte follows from the seed — a real kernel's
// timestamps differ from run to run, and with them chunk boundaries,
// window contents and every count the workload reports.
//
// The schedule is a discrete-event simulation of internal/omp's
// semantics: tied tasks, a taskwait that may only run the waiting
// task's own children, task-draining barriers that take from the own
// deque newest-first and steal oldest-first from the others. The thread
// with the smallest clock always acts next, so no thread ever observes
// an effect from its future. All three wait states the bottleneck
// analysis knows arise on their own: a thief woken by a publication
// dispatches a task whose creation overlapped its wait (late spawn), a
// parent stuck in its taskwait idles while its stolen children's
// siblings sit unstarted elsewhere (starved thief), and skewed
// pre-barrier work makes threads arrive apart (barrier imbalance).

// genConfig sizes one synthetic recording.
type genConfig struct {
	Seed    int64
	Threads int
	// Tasks is the number of explicit tasks; a task contributes about
	// ten events (creation, begin/end, switch, regions, taskwait).
	Tasks int
	// Phases is the number of barrier-separated phases the tasks are
	// spread over; few tasks per phase keep threads running dry.
	Phases int
}

// genStats reports what the schedule contained, for the generator's
// own test and the README's claim that every wait kind occurs.
type genStats struct {
	Tasks, Steals, TaskwaitBlocks, BarrierBlocks int
}

type opKind uint8

const (
	opEmit        opKind = iota // emit one event at the current time
	opAdvance                   // let d nanoseconds pass
	opCreateBegin               // start creating child
	opCreateEnd                 // publish child
	opTaskwait                  // run own children / wait for them
	opArrive                    // count the thread in at barrier bar
	opBarrier                   // drain tasks until barrier bar releases
)

type op struct {
	kind  opKind
	ev    trace.EventType
	reg   *region.Region
	d     int64
	child *simTask
	bar   int
}

type simTask struct {
	id      uint64
	reg     *region.Region
	parent  *simTask
	budget  int // descendants this task will still cause to exist
	claimed bool
	// children not yet finished, and those not yet started (newest last)
	pending   int
	unclaimed []*simTask
	waiter    *simThread // thread blocked in this task's taskwait
}

type frame struct {
	task *simTask // nil: the implicit task
	ops  []op
	pc   int
}

type simThread struct {
	id      int
	now     int64
	frames  []frame
	deque   []*simTask
	blocked bool
	done    bool
	events  []trace.Event
}

type simBarrier struct {
	arrived  int
	released bool
	waiting  []*simThread
}

type sim struct {
	rng      *rand.Rand
	threads  []*simThread
	barriers []simBarrier
	pending  int // created, unfinished tasks in the team
	nextID   uint64
	stats    genStats

	taskRegs []*region.Region
	twReg    *region.Region
	fnRegs   []*region.Region
}

// logUniform draws from [lo, hi] with equal mass per decade.
func (s *sim) logUniform(lo, hi float64) int64 {
	return int64(math.Exp(math.Log(lo) + s.rng.Float64()*(math.Log(hi)-math.Log(lo))))
}

// generateTrace builds the recording for cfg, registering its regions
// in reg. The same cfg yields the same events, timestamps included.
func generateTrace(cfg genConfig, reg *region.Registry) (*trace.Trace, genStats) {
	s := &sim{rng: rand.New(rand.NewSource(cfg.Seed))}
	par := reg.Register("gen.parallel", "gen.go", 1, region.Parallel)
	ibar := reg.Register("gen.parallel (implicit barrier)", "gen.go", 1, region.ImplicitBarrier)
	for i, n := range []string{"gen.split", "gen.solve", "gen.merge"} {
		s.taskRegs = append(s.taskRegs, reg.Register(n, "gen.go", 10+i, region.Task))
	}
	s.twReg = reg.Register("gen.taskwait", "gen.go", 20, region.Taskwait)
	for i, n := range []string{"gen.compute", "gen.copy", "gen.reduce", "gen.check"} {
		s.fnRegs = append(s.fnRegs, reg.Register(n, "gen.go", 30+i, region.UserFunction))
	}

	s.barriers = make([]simBarrier, cfg.Phases+1)
	perPhase := cfg.Tasks / cfg.Phases
	progs := make([][]op, cfg.Threads)
	for t := range progs {
		progs[t] = []op{
			{kind: opEmit, ev: trace.EvThreadBegin},
			{kind: opEmit, ev: trace.EvEnter, reg: par},
		}
	}
	bars := make([]*region.Region, 3)
	for i := range bars {
		bars[i] = reg.Register(fmt.Sprintf("gen.barrier%d", i), "gen.go", 40+i, region.Barrier)
	}
	for p := 0; p < cfg.Phases; p++ {
		// A random subset of the threads creates a phase's tasks, with
		// skewed shares: the others reach the barrier empty-handed and
		// steal. The last phase takes the division's remainder.
		budget := perPhase
		if p == cfg.Phases-1 {
			budget = cfg.Tasks - perPhase*(cfg.Phases-1)
		}
		var creators []int
		for t := 0; t < cfg.Threads; t++ {
			if s.rng.Intn(5) < 2 {
				creators = append(creators, t)
			}
		}
		if len(creators) == 0 {
			creators = []int{s.rng.Intn(cfg.Threads)}
		}
		shares := make([]int, cfg.Threads)
		for i, b := range s.split(budget, len(creators)) {
			shares[creators[i]] = b
		}
		for t := 0; t < cfg.Threads; t++ {
			progs[t] = append(progs[t], s.implicitPhase(shares[t], bars[p%len(bars)], p)...)
		}
	}
	for t := range progs {
		progs[t] = append(progs[t],
			op{kind: opEmit, ev: trace.EvEnter, reg: ibar},
			op{kind: opArrive, bar: cfg.Phases},
			op{kind: opBarrier, bar: cfg.Phases},
			op{kind: opEmit, ev: trace.EvExit, reg: ibar},
			op{kind: opEmit, ev: trace.EvExit, reg: par},
			op{kind: opEmit, ev: trace.EvThreadEnd})
	}
	for t := 0; t < cfg.Threads; t++ {
		s.threads = append(s.threads, &simThread{
			id:     t,
			now:    1_000_000 + int64(t)*s.logUniform(200, 2000),
			frames: []frame{{ops: progs[t]}},
		})
	}
	s.run(len(s.threads))

	tr := &trace.Trace{Threads: make(map[int][]trace.Event, cfg.Threads)}
	for _, th := range s.threads {
		tr.Threads[th.id] = th.events
	}
	return tr, s.stats
}

// split cuts total into n non-negative parts with random, skewed sizes.
func (s *sim) split(total, n int) []int {
	if n <= 0 {
		return nil
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Exp(2 * s.rng.Float64())
		sum += weights[i]
	}
	parts := make([]int, n)
	left := total
	for i := range parts {
		parts[i] = int(float64(total) * weights[i] / sum)
		left -= parts[i]
	}
	parts[0] += left
	return parts
}

// work appends a burst of computation: optionally nested user regions
// around log-uniform durations (200 ns .. 200 us).
func (s *sim) work(ops []op, depth int) []op {
	if depth < 2 && s.rng.Intn(3) > 0 {
		fn := s.fnRegs[s.rng.Intn(len(s.fnRegs))]
		ops = append(ops, op{kind: opEmit, ev: trace.EvEnter, reg: fn})
		ops = s.work(ops, depth+1)
		ops = append(ops, op{kind: opAdvance, d: s.logUniform(200, 20_000)},
			op{kind: opEmit, ev: trace.EvExit, reg: fn})
		return ops
	}
	return append(ops, op{kind: opAdvance, d: s.logUniform(200, 200_000)})
}

// spawn appends the creation of one child carrying budget descendants.
func (s *sim) spawn(ops []op, parent *simTask, budget int) []op {
	s.nextID++
	child := &simTask{
		id: s.nextID, parent: parent, budget: budget,
		reg: s.taskRegs[s.rng.Intn(len(s.taskRegs))],
	}
	s.stats.Tasks++
	return append(ops,
		op{kind: opCreateBegin, child: child},
		op{kind: opAdvance, d: s.logUniform(150, 1500)},
		op{kind: opCreateEnd, child: child})
}

// implicitPhase is one thread's share of a phase: create root tasks
// worth budget tasks in total, do skewed serial work, then drain tasks
// at the phase barrier.
func (s *sim) implicitPhase(budget int, bar *region.Region, idx int) []op {
	// Arrival skew: up to ~300 us of serial work, before or after the
	// thread creates its root tasks — a late creator keeps the early
	// arrivers waiting for work.
	var ops []op
	skew := op{kind: opAdvance, d: s.logUniform(1000, 300_000)}
	late := s.rng.Intn(2) == 0
	if late {
		ops = append(ops, skew)
	}
	if budget > 0 {
		roots := 1 + s.rng.Intn(min(3, budget))
		for _, b := range s.split(budget-roots, roots) {
			ops = s.spawn(ops, nil, b)
			ops = append(ops, op{kind: opAdvance, d: s.logUniform(100, 3000)})
		}
	}
	if !late {
		ops = append(ops, skew)
	}
	return append(ops,
		op{kind: opEmit, ev: trace.EvEnter, reg: bar},
		op{kind: opArrive, bar: idx},
		op{kind: opBarrier, bar: idx},
		op{kind: opEmit, ev: trace.EvExit, reg: bar})
}

// taskProgram is an explicit task's body, drawn when the task starts:
// work, then (with budget left) two to four children, a taskwait and
// some closing work.
func (s *sim) taskProgram(tk *simTask) []op {
	ops := []op{{kind: opEmit, ev: trace.EvTaskBegin, reg: tk.reg}}
	ops = s.work(ops, 0)
	if tk.budget > 0 {
		kids := min(tk.budget, 2+s.rng.Intn(3))
		for _, b := range s.split(tk.budget-kids, kids) {
			ops = s.spawn(ops, tk, b)
			if s.rng.Intn(2) == 0 {
				ops = s.work(ops, 1)
			}
		}
		ops = append(ops,
			op{kind: opEmit, ev: trace.EvEnter, reg: s.twReg},
			op{kind: opTaskwait},
			op{kind: opEmit, ev: trace.EvExit, reg: s.twReg})
		ops = s.work(ops, 1)
	}
	return append(ops, op{kind: opEmit, ev: trace.EvTaskEnd, reg: tk.reg})
}

// emit records one event for th and charges the recording cost.
func (s *sim) emit(th *simThread, typ trace.EventType, reg *region.Region, task uint64) {
	th.events = append(th.events, trace.Event{Time: th.now, Type: typ, Region: reg, TaskID: task})
	th.now += 20 + s.rng.Int63n(60)
}

// wake makes a blocked thread runnable no earlier than t.
func (s *sim) wake(th *simThread, t int64) {
	if !th.blocked {
		return
	}
	th.blocked = false
	th.now = max(th.now, t) + s.logUniform(100, 5000)
}

// run steps the runnable thread with the smallest clock until all are
// done.
func (s *sim) run(live int) {
	for live > 0 {
		var th *simThread
		for _, c := range s.threads {
			if !c.done && !c.blocked && (th == nil || c.now < th.now) {
				th = c
			}
		}
		if th == nil {
			panic("benchmark: generator deadlock")
		}
		s.step(th)
		if th.done {
			live--
		}
	}
}

func (s *sim) start(th *simThread, tk *simTask) {
	tk.claimed = true
	th.now += s.logUniform(50, 400) // dispatch
	th.frames = append(th.frames, frame{task: tk, ops: s.taskProgram(tk)})
}

// step performs the current op of th's innermost frame.
func (s *sim) step(th *simThread) {
	f := &th.frames[len(th.frames)-1]
	if f.pc == len(f.ops) {
		s.finish(th)
		return
	}
	o := &f.ops[f.pc]
	switch o.kind {
	case opEmit:
		id := uint64(0)
		if f.task != nil && (o.ev == trace.EvTaskBegin || o.ev == trace.EvTaskEnd) {
			id = f.task.id
		}
		s.emit(th, o.ev, o.reg, id)
		f.pc++
	case opAdvance:
		th.now += o.d
		f.pc++
	case opCreateBegin:
		s.emit(th, trace.EvTaskCreateBegin, o.child.reg, 0)
		f.pc++
	case opCreateEnd:
		s.emit(th, trace.EvTaskCreateEnd, o.child.reg, o.child.id)
		s.pending++
		if f.task != nil {
			f.task.pending++
			f.task.unclaimed = append(f.task.unclaimed, o.child)
		}
		th.deque = append(th.deque, o.child)
		// A publication wakes every thread parked at a barrier.
		for i := range s.barriers {
			for _, w := range s.barriers[i].waiting {
				s.wake(w, th.now)
			}
			s.barriers[i].waiting = s.barriers[i].waiting[:0]
		}
		f.pc++
	case opTaskwait:
		tk := f.task
		for n := len(tk.unclaimed); n > 0; n = len(tk.unclaimed) {
			c := tk.unclaimed[n-1]
			tk.unclaimed = tk.unclaimed[:n-1]
			if !c.claimed {
				s.start(th, c)
				return
			}
		}
		if tk.pending > 0 {
			tk.waiter = th
			th.blocked = true
			s.stats.TaskwaitBlocks++
			return
		}
		f.pc++
	case opArrive:
		s.barriers[o.bar].arrived++
		f.pc++
	case opBarrier:
		b := &s.barriers[o.bar]
		if b.released {
			f.pc++
			return
		}
		if tk := s.findTask(th); tk != nil {
			s.start(th, tk)
			return
		}
		if b.arrived == len(s.threads) && s.pending == 0 {
			b.released = true
			for _, w := range b.waiting {
				s.wake(w, th.now)
			}
			b.waiting = b.waiting[:0]
			f.pc++
			return
		}
		b.waiting = append(b.waiting, th)
		th.blocked = true
		s.stats.BarrierBlocks++
	}
}

// findTask takes the newest unclaimed task of th's own deque, else
// steals the oldest unclaimed task of another thread.
func (s *sim) findTask(th *simThread) *simTask {
	for n := len(th.deque); n > 0; n = len(th.deque) {
		tk := th.deque[n-1]
		th.deque = th.deque[:n-1]
		if !tk.claimed {
			return tk
		}
	}
	n := len(s.threads)
	for i := 1; i < n; i++ {
		v := s.threads[(th.id+i)%n]
		for len(v.deque) > 0 {
			tk := v.deque[0]
			v.deque = v.deque[1:]
			if !tk.claimed {
				s.stats.Steals++
				th.now += s.logUniform(300, 3000) // steal
				return tk
			}
		}
	}
	return nil
}

// finish ends th's innermost frame: a completed task switches back to
// what it interrupted and releases whoever waited for it.
func (s *sim) finish(th *simThread) {
	f := th.frames[len(th.frames)-1]
	th.frames = th.frames[:len(th.frames)-1]
	if f.task == nil {
		th.done = true
		return
	}
	if prev := th.frames[len(th.frames)-1].task; prev != nil {
		s.emit(th, trace.EvTaskSwitch, prev.reg, prev.id)
	} else {
		s.emit(th, trace.EvTaskSwitch, nil, 0)
	}
	s.pending--
	if p := f.task.parent; p != nil {
		p.pending--
		if p.pending == 0 && p.waiter != nil {
			s.wake(p.waiter, th.now)
			p.waiter = nil
		}
	}
	if s.pending == 0 {
		// The last task of a phase: parked barrier threads may leave.
		for i := range s.barriers {
			for _, w := range s.barriers[i].waiting {
				s.wake(w, th.now)
			}
			s.barriers[i].waiting = s.barriers[i].waiting[:0]
		}
	}
}
