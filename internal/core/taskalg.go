package core

import (
	"fmt"

	"repro/internal/region"
)

// TaskInstance is the profiling state of one active explicit task
// instance: a private call tree rooted at the task region and the
// instance's current position in it. Instances are recycled after their
// tree is merged ("the task instance's data structures are kept for later
// reuse", Section IV-C).
type TaskInstance struct {
	Region *region.Region
	root   *Node
	cur    *Node
}

// Root returns the instance tree root (the task region node).
func (ti *TaskInstance) Root() *Node { return ti.root }

// Current returns the instance's current call-tree position.
func (ti *TaskInstance) Current() *Node { return ti.cur }

// TaskBeginAt records that a task instance of construct r starts
// executing on this thread at now: it allocates the instance and its
// tree, performs the implicit TaskSwitch to the instance (suspending
// whatever ran before and entering the stub node under the implicit
// task's scheduling point), and enters the task region in the instance
// tree — the TaskBegin action of the paper's Fig. 12.
func (p *ThreadProfile) TaskBeginAt(r *region.Region, now int64) *TaskInstance {
	if p.finished {
		panic("core: TaskBegin after Finish")
	}
	ti := p.allocInstance(r)
	p.instancesBegun++
	p.active++
	if p.active > p.maxActive {
		p.maxActive = p.active
	}
	if pr := p.CurrentParallel(); pr != nil && p.active > p.maxPerParallel[pr] {
		p.maxPerParallel[pr] = p.active
	}

	// One timestamp for the whole transition: the stub enter in the
	// implicit tree and the task-root enter in the instance tree see the
	// same instant, so stub time and task-tree time stay consistent.
	p.TaskSwitchToAt(ti, now)
	ti.root.openVisit(now)
	return ti
}

// TaskEndAt records completion of the current task instance at now:
// exit of the task region in the instance tree, TaskSwitch back to the
// implicit task, and merging of the instance tree into the thread's
// aggregate tree for the construct — the TaskEnd action of Fig. 12. It
// has only a timestamped form because the runtime resumes the suspended
// task at the same instant (TaskSwitchToAt with the same now).
func (p *ThreadProfile) TaskEndAt(now int64) {
	ti := p.curTask
	if ti == nil {
		panic("core: TaskEnd without active task instance")
	}
	// Close open parameter nodes, then the task root itself.
	cur := ti.cur
	for cur != nil && cur.Kind == KindParameter {
		cur.closeVisit(now)
		cur = cur.Parent
	}
	if cur != ti.root {
		got := "<nil>"
		if cur != nil {
			got = cur.Name()
		}
		panic(fmt.Sprintf("core: TaskEnd with open region %s in task %s", got, ti.Region))
	}
	ti.root.closeVisit(now)
	ti.cur = ti.root

	p.TaskSwitchToAt(nil, now)

	p.mergeInstance(ti)
	p.active--
	p.instancesEnded++
	p.releaseInstance(ti)
}

// TaskSwitchToAt implements the TaskSwitch action of Fig. 12 at now:
//
//	if the current task is an explicit task:
//	    stop time measurement on all its open regions, and the implicit
//	    task exits the stub node of its task region;
//	set the current task;
//	if the new task is an explicit task:
//	    resume time measurement on all its open regions, and the implicit
//	    task enters the stub node of its task region under the implicit
//	    task's current scheduling point.
//
// ti == nil switches to the implicit task. Switching to the task that is
// already current is a no-op.
func (p *ThreadProfile) TaskSwitchToAt(ti *TaskInstance, now int64) {
	if ti == p.curTask {
		return
	}
	p.switches++
	if old := p.curTask; old != nil {
		for n := old.cur; n != nil; n = n.Parent {
			n.suspend(now)
		}
		p.exitStub(old.Region, now)
	}
	p.curTask = ti
	if ti != nil {
		for n := ti.cur; n != nil; n = n.Parent {
			n.resume(now)
		}
		p.enterStub(ti.Region, now)
	}
}

// enterStub makes the implicit task enter the stub node for task region r
// under its current position (the scheduling point where the task
// executes). Stub visits count executed task fragments.
func (p *ThreadProfile) enterStub(r *region.Region, now int64) {
	n := p.child(p.cur, KindStub, r, "", 0, "")
	n.openVisit(now)
	p.cur = n
}

// exitStub closes the stub node for r and moves the implicit task back to
// the scheduling point.
func (p *ThreadProfile) exitStub(r *region.Region, now int64) {
	if p.cur.Kind != KindStub || p.cur.Region != r {
		panic(fmt.Sprintf("core: implicit task at %s, expected stub of %s", p.cur.Name(), r))
	}
	p.cur.closeVisit(now)
	p.cur = p.cur.Parent
}

// mergeInstance folds a completed instance tree into the aggregate tree
// of its construct. "A new node is created for the first occurrence of
// this tasking construct. Later occurrences are merged with this node."
func (p *ThreadProfile) mergeInstance(ti *TaskInstance) {
	agg, ok := p.taskRoots[ti.Region]
	if !ok {
		agg = p.allocNode()
		agg.Kind = KindRegion
		agg.Region = ti.Region
		p.taskRoots[ti.Region] = agg
		p.taskOrder = append(p.taskOrder, ti.Region)
	}
	p.mergeInto(agg, ti.root)
	p.releaseSubtree(ti.root)
	ti.root = nil
	ti.cur = nil
}

// instArenaChunk is the batch size of the per-thread instance arena
// (see nodeArenaChunk).
const instArenaChunk = 32

// allocInstance takes an instance from the pool or carves one out of
// the thread's instance arena, and builds its root node.
func (p *ThreadProfile) allocInstance(r *region.Region) *TaskInstance {
	var ti *TaskInstance
	if n := len(p.instPool); n > 0 {
		ti = p.instPool[n-1]
		p.instPool = p.instPool[:n-1]
	} else {
		if len(p.instArena) == 0 {
			p.instArena = make([]TaskInstance, instArenaChunk)
		}
		ti = &p.instArena[0]
		p.instArena = p.instArena[1:]
		p.instAllocated++
	}
	ti.Region = r
	root := p.allocNode()
	root.Kind = KindRegion
	root.Region = r
	ti.root = root
	ti.cur = root
	return ti
}

// releaseInstance recycles a merged instance.
func (p *ThreadProfile) releaseInstance(ti *TaskInstance) {
	ti.Region = nil
	p.instPool = append(p.instPool, ti)
}

// InstancesAllocated returns how many TaskInstance structs were ever
// allocated (pool hits excluded) — with recycling this stays close to the
// maximum concurrency rather than the task count (Section V-B).
func (p *ThreadProfile) InstancesAllocated() int64 { return p.instAllocated }
