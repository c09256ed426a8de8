package core

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/region"
)

// ThreadProfile is one thread's (location's) profile: the implicit task's
// call tree, the table of active explicit task instances, and the
// per-construct aggregate task trees of completed instances.
//
// All methods must be called from the owning thread; the structure is
// intentionally lock-free ("every thread operates on a separate section
// of preallocated memory and constructs a separate call tree. This avoids
// overhead-prone locking", Section IV-A).
type ThreadProfile struct {
	// ThreadID is the OpenMP thread number this profile belongs to.
	ThreadID int

	clk clock.Clock

	root *Node // implicit task's call tree root
	cur  *Node // implicit task's current position

	curTask *TaskInstance // nil -> the implicit task is current

	// Aggregate task trees of completed instances, keyed by task region,
	// "presented above the main call tree" (Section IV-B4).
	taskRoots map[*region.Region]*Node
	taskOrder []*region.Region // deterministic report order

	// Task-instance accounting for the memory evaluation (Section V-B,
	// Table II): current and maximum number of concurrently active
	// task-instance trees, the maximum also per parallel region.
	active          int
	maxActive       int
	parallelStack   []*region.Region
	maxPerParallel  map[*region.Region]int
	instancesBegun  int64
	instancesEnded  int64
	nodePool        *Node
	nodeArena       []Node // chunked backing store for fresh nodes
	nodesAllocated  int64
	instPool        []*TaskInstance
	instArena       []TaskInstance // chunked backing store for fresh instances
	instAllocated   int64
	switches        int64 // number of TaskSwitch transitions (fragments)
	finished        bool
	poolingDisabled bool
	rootRegionLabel string
}

// NewThreadProfile creates the profile for thread id, reading time from
// clk. The implicit task's root node is opened immediately.
func NewThreadProfile(id int, clk clock.Clock) *ThreadProfile {
	p := &ThreadProfile{
		ThreadID:        id,
		clk:             clk,
		taskRoots:       make(map[*region.Region]*Node),
		maxPerParallel:  make(map[*region.Region]int),
		rootRegionLabel: fmt.Sprintf("THREAD %d", id),
	}
	p.root = p.allocNode()
	p.root.Kind = KindRegion
	p.root.openVisit(clk.Now())
	p.cur = p.root
	return p
}

// Root returns the implicit task's call tree root.
func (p *ThreadProfile) Root() *Node { return p.root }

// RootLabel returns the display label of the thread root node.
func (p *ThreadProfile) RootLabel() string { return p.rootRegionLabel }

// Current returns the node metrics are currently attributed to: the
// current position in the active task instance's tree, or in the
// implicit task's tree.
func (p *ThreadProfile) Current() *Node {
	if p.curTask != nil {
		return p.curTask.cur
	}
	return p.cur
}

// CurrentTask returns the active explicit task instance, or nil.
func (p *ThreadProfile) CurrentTask() *TaskInstance { return p.curTask }

// TaskRoots returns the aggregate task trees in first-completion order.
func (p *ThreadProfile) TaskRoots() []*Node {
	out := make([]*Node, 0, len(p.taskOrder))
	for _, r := range p.taskOrder {
		out = append(out, p.taskRoots[r])
	}
	return out
}

// TaskRoot returns the aggregate tree for one task construct, or nil.
func (p *ThreadProfile) TaskRoot(r *region.Region) *Node { return p.taskRoots[r] }

// MaxActiveInstances returns the maximum number of concurrently active
// task-instance trees observed on this thread (Table II).
func (p *ThreadProfile) MaxActiveInstances() int { return p.maxActive }

// ActiveInstances returns the current number of active instance trees.
func (p *ThreadProfile) ActiveInstances() int { return p.active }

// MaxActivePerParallel returns the per-parallel-region maxima of
// concurrently active instance trees.
func (p *ThreadProfile) MaxActivePerParallel() map[*region.Region]int {
	out := make(map[*region.Region]int, len(p.maxPerParallel))
	for k, v := range p.maxPerParallel {
		out[k] = v
	}
	return out
}

// Switches returns the number of task-switch transitions recorded.
func (p *ThreadProfile) Switches() int64 { return p.switches }

// NodesAllocated returns how many call-tree nodes this thread allocated
// (pool hits excluded); InstancesBegun/Ended count task instances. These
// feed the memory-requirements evaluation (Section V-B).
func (p *ThreadProfile) NodesAllocated() int64 { return p.nodesAllocated }

// InstancesBegun returns the number of task instances that started.
func (p *ThreadProfile) InstancesBegun() int64 { return p.instancesBegun }

// InstancesEnded returns the number of task instances that completed.
func (p *ThreadProfile) InstancesEnded() int64 { return p.instancesEnded }

// Enter records entering region r at the current time. The node is
// created in (or found in) the call tree of the current task — the
// instance tree for explicit tasks, the implicit tree otherwise.
func (p *ThreadProfile) Enter(r *region.Region) {
	p.EnterAt(r, p.clk.Now())
}

// EnterAt is Enter with an explicit timestamp: the measurement's path,
// which takes the instant the runtime read for the event.
func (p *ThreadProfile) EnterAt(r *region.Region, now int64) {
	if p.finished {
		panic("core: Enter after Finish")
	}
	if p.curTask != nil {
		n := p.child(p.curTask.cur, KindRegion, r, "", 0, "")
		n.openVisit(now)
		p.curTask.cur = n
		return
	}
	n := p.child(p.cur, KindRegion, r, "", 0, "")
	n.openVisit(now)
	p.cur = n
	if r.Type == region.Parallel {
		p.parallelStack = append(p.parallelStack, r)
	}
}

// Exit records leaving region r. Open parameter nodes nested below r are
// closed implicitly. Exiting a region that is not the innermost open
// region is an instrumentation error and panics.
func (p *ThreadProfile) Exit(r *region.Region) {
	p.ExitAt(r, p.clk.Now())
}

// ExitAt is Exit with an explicit timestamp (see EnterAt).
func (p *ThreadProfile) ExitAt(r *region.Region, now int64) {
	if p.finished {
		panic("core: Exit after Finish")
	}
	if p.curTask != nil {
		p.curTask.cur = exitOn(p.curTask.cur, r, now)
		return
	}
	p.cur = exitOn(p.cur, r, now)
	if r.Type == region.Parallel && len(p.parallelStack) > 0 {
		p.parallelStack = p.parallelStack[:len(p.parallelStack)-1]
	}
}

// exitOn closes open parameter nodes above cur, then the node for r, and
// returns the new current node.
func exitOn(cur *Node, r *region.Region, now int64) *Node {
	for cur != nil && cur.Kind == KindParameter {
		cur.closeVisit(now)
		cur = cur.Parent
	}
	if cur == nil || cur.Kind != KindRegion || cur.Region != r {
		got := "<nil>"
		if cur != nil {
			got = cur.Name()
		}
		panic(fmt.Sprintf("core: Exit(%s) does not match current node %s", r, got))
	}
	cur.closeVisit(now)
	return cur.Parent
}

// ParameterInt records parameter instrumentation: subsequent children
// nest under a parameter node name=value until the enclosing region
// exits. The paper uses this to split nqueens task statistics by
// recursion depth (Table IV).
func (p *ThreadProfile) ParameterInt(name string, value int64) {
	if p.finished {
		panic("core: ParameterInt after Finish")
	}
	now := p.clk.Now()
	if p.curTask != nil {
		n := p.child(p.curTask.cur, KindParameter, nil, name, value, "")
		n.openVisit(now)
		p.curTask.cur = n
		return
	}
	n := p.child(p.cur, KindParameter, nil, name, value, "")
	n.openVisit(now)
	p.cur = n
}

// ParameterString records string-valued parameter instrumentation
// (Score-P's ParameterString counterpart to ParameterInt): subsequent
// children nest under a parameter node name=value until the enclosing
// region exits.
func (p *ThreadProfile) ParameterString(name, value string) {
	if p.finished {
		panic("core: ParameterString after Finish")
	}
	now := p.clk.Now()
	if p.curTask != nil {
		n := p.child(p.curTask.cur, KindParameter, nil, name, 0, value)
		n.openVisit(now)
		p.curTask.cur = n
		return
	}
	n := p.child(p.cur, KindParameter, nil, name, 0, value)
	n.openVisit(now)
	p.cur = n
}

// CurrentParallel returns the innermost parallel region the implicit
// task is executing, or nil outside parallel regions.
func (p *ThreadProfile) CurrentParallel() *region.Region {
	if len(p.parallelStack) == 0 {
		return nil
	}
	return p.parallelStack[len(p.parallelStack)-1]
}

// Finish closes the thread root and freezes the profile. It panics if
// regions or task instances are still open — unbalanced instrumentation.
func (p *ThreadProfile) Finish() {
	if p.finished {
		return
	}
	if p.curTask != nil {
		panic("core: Finish with active explicit task instance")
	}
	if p.cur != p.root {
		panic(fmt.Sprintf("core: Finish with open region %s", p.cur.Name()))
	}
	if p.active != 0 {
		panic(fmt.Sprintf("core: Finish with %d active task instances", p.active))
	}
	p.root.closeVisit(p.clk.Now())
	p.finished = true
}

// Finished reports whether Finish was called.
func (p *ThreadProfile) Finished() bool { return p.finished }
