// Package core implements the paper's primary contribution: a call-path
// profiling engine that remains correct in the presence of OpenMP 3.0
// tied tasks (Lorenz et al., ICPP 2012, Section IV).
//
// Each thread owns a ThreadProfile with the implicit task's call tree.
// Every active explicit task instance owns a private call tree rooted at
// its task region; trees of completed instances are merged into
// per-construct aggregate trees presented beside the main tree. Stub
// nodes under the implicit task's scheduling points record the share of
// time spent executing tasks there, separating useful task work from
// waiting/management time. Suspension intervals are subtracted from all
// open regions of a suspended instance (Fig. 12 pseudocode), so task
// trees contain pure execution time.
package core

import (
	"fmt"

	"repro/internal/region"
	"repro/internal/stats"
)

// NodeKind distinguishes the three node flavours of the task-aware
// profile.
type NodeKind uint8

const (
	// KindRegion is an ordinary call-tree node for a source region.
	KindRegion NodeKind = iota
	// KindStub is a stub node: a task region appearing as child of a
	// scheduling point in the implicit task's tree, carrying the task
	// execution share of that scheduling point (Section IV-B4).
	KindStub
	// KindParameter is a synthetic node created by parameter
	// instrumentation; it splits its parent's subtree by parameter value
	// (used for the per-recursion-depth analysis of Table IV).
	KindParameter
)

// String returns a short kind label.
func (k NodeKind) String() string {
	switch k {
	case KindRegion:
		return "region"
	case KindStub:
		return "stub"
	case KindParameter:
		return "parameter"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a call-tree node. Nodes store the metrics the paper lists in
// Section IV-A: the number of visits and, for the inclusive time of each
// completed visit, sum/min/max/count for statistical analysis.
//
// Nodes are owned by exactly one thread and must not be shared while a
// measurement is running; aggregation across threads happens afterwards
// in internal/cube.
type Node struct {
	Kind   NodeKind
	Region *region.Region // nil for KindParameter nodes

	// ParamName/ParamValue identify a KindParameter node. String-valued
	// parameters (Score-P's ParameterString) store the value in
	// ParamStr with ParamValue == 0.
	ParamName  string
	ParamValue int64
	ParamStr   string

	Parent   *Node
	Children []*Node

	// Visits counts Enter events (task fragments for stub nodes).
	Visits int64
	// Dur aggregates the inclusive duration of completed visits, with
	// suspension intervals already subtracted.
	Dur stats.Dur

	// Open-visit bookkeeping. A node is open between Enter and Exit;
	// it is running unless its owning task instance is suspended.
	open    bool
	running bool
	start   int64 // timestamp of last resume, valid while running
	accum   int64 // time accumulated in the current visit across suspensions

	free *Node // node-pool linkage
}

// Name renders the node's display name for reports.
func (n *Node) Name() string {
	switch n.Kind {
	case KindParameter:
		if n.ParamStr != "" {
			return fmt.Sprintf("%s=%s", n.ParamName, n.ParamStr)
		}
		return fmt.Sprintf("%s=%d", n.ParamName, n.ParamValue)
	case KindStub:
		return "task " + n.Region.Name
	default:
		if n.Region == nil {
			return "<root>"
		}
		return n.Region.Name
	}
}

// Open reports whether the node currently has an open visit.
func (n *Node) Open() bool { return n.open }

// Running reports whether the node's open visit is currently accumulating
// time (false while the owning task instance is suspended).
func (n *Node) Running() bool { return n.running }

// matches reports whether the node corresponds to the given key.
func (n *Node) matches(kind NodeKind, r *region.Region, pname string, pval int64, pstr string) bool {
	if n.Kind != kind {
		return false
	}
	if kind == KindParameter {
		return n.ParamName == pname && n.ParamValue == pval && n.ParamStr == pstr
	}
	return n.Region == r
}

// child returns the child with the given key, creating it (from the pool)
// if needed.
func (p *ThreadProfile) child(n *Node, kind NodeKind, r *region.Region, pname string, pval int64, pstr string) *Node {
	for _, c := range n.Children {
		if c.matches(kind, r, pname, pval, pstr) {
			return c
		}
	}
	c := p.allocNode()
	c.Kind = kind
	c.Region = r
	c.ParamName = pname
	c.ParamValue = pval
	c.ParamStr = pstr
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// nodeArenaChunk is the batch size of the per-thread node arena: fresh
// nodes are carved out of chunk allocations, so growing a call tree
// costs one heap allocation per chunk instead of one per node, and
// sibling nodes stay cache-adjacent.
const nodeArenaChunk = 128

// allocNode takes a node from the free list (released task-instance
// subtrees) or carves a fresh one out of the thread's node arena.
func (p *ThreadProfile) allocNode() *Node {
	if n := p.nodePool; n != nil {
		p.nodePool = n.free
		n.free = nil
		return n
	}
	if len(p.nodeArena) == 0 {
		p.nodeArena = make([]Node, nodeArenaChunk)
	}
	n := &p.nodeArena[0]
	p.nodeArena = p.nodeArena[1:]
	p.nodesAllocated++
	return n
}

// releaseSubtree resets and returns all nodes of the subtree rooted at n
// to the pool. Called when a completed task-instance tree has been merged
// (Section V-B: "released task-instance tree nodes are reused"). A node
// keeps its emptied child slice: the pool is last in, first out, so the
// next instance's root is the one released last and would otherwise
// grow the slice again for the same children.
func (p *ThreadProfile) releaseSubtree(n *Node) {
	if p.poolingDisabled {
		return // ablation: leave nodes to the garbage collector
	}
	for _, c := range n.Children {
		p.releaseSubtree(c)
	}
	clear(n.Children)
	*n = Node{Children: n.Children[:0], free: p.nodePool}
	p.nodePool = n
}

// SetNodePooling toggles the reuse of released instance-tree nodes. It
// exists for the Section V-B ablation benchmark; production measurements
// keep pooling enabled.
func (p *ThreadProfile) SetNodePooling(enabled bool) { p.poolingDisabled = !enabled }

// openVisit starts a visit of n at time now.
func (n *Node) openVisit(now int64) {
	if n.open {
		panic(fmt.Sprintf("core: double enter of open node %s", n.Name()))
	}
	n.Visits++
	n.open = true
	n.running = true
	n.start = now
	n.accum = 0
}

// closeVisit ends the visit of n at time now and records the inclusive
// duration sample.
func (n *Node) closeVisit(now int64) {
	if !n.open {
		panic(fmt.Sprintf("core: exit of non-open node %s", n.Name()))
	}
	d := n.accum
	if n.running {
		d += now - n.start
	}
	n.Dur.Add(d)
	n.open = false
	n.running = false
	n.accum = 0
}

// suspend stops time accumulation on an open node.
func (n *Node) suspend(now int64) {
	if n.open && n.running {
		n.accum += now - n.start
		n.running = false
	}
}

// resume restarts time accumulation on an open, suspended node.
func (n *Node) resume(now int64) {
	if n.open && !n.running {
		n.start = now
		n.running = true
	}
}

// mergeInto folds this node's metrics and subtree into dst, which must
// have the same key. Used when a completed task-instance tree is merged
// into the thread's aggregate tree for the construct.
func (p *ThreadProfile) mergeInto(dst, src *Node) {
	dst.Visits += src.Visits
	dst.Dur.Merge(src.Dur)
	for _, sc := range src.Children {
		dc := p.child(dst, sc.Kind, sc.Region, sc.ParamName, sc.ParamValue, sc.ParamStr)
		p.mergeInto(dc, sc)
	}
}

// Walk visits the subtree rooted at n in depth-first pre-order.
func (n *Node) Walk(fn func(n *Node, depth int)) {
	n.walk(fn, 0)
}

func (n *Node) walk(fn func(*Node, int), depth int) {
	fn(n, depth)
	for _, c := range n.Children {
		c.walk(fn, depth+1)
	}
}

// FindChild returns the direct child for the region (KindRegion), or nil.
func (n *Node) FindChild(r *region.Region) *Node {
	for _, c := range n.Children {
		if c.Kind == KindRegion && c.Region == r {
			return c
		}
	}
	return nil
}

// FindStub returns the direct stub child for the task region, or nil.
func (n *Node) FindStub(r *region.Region) *Node {
	for _, c := range n.Children {
		if c.Kind == KindStub && c.Region == r {
			return c
		}
	}
	return nil
}

// FindParam returns the direct parameter child name=value, or nil.
func (n *Node) FindParam(name string, value int64) *Node {
	for _, c := range n.Children {
		if c.Kind == KindParameter && c.ParamName == name && c.ParamValue == value {
			return c
		}
	}
	return nil
}

// ExclusiveSum returns inclusive-sum minus the inclusive sums of all
// children: the time spent exclusively inside this node (Fig. 3 of the
// paper). For scheduling-point nodes with stub children this is the
// waiting/management share, since task execution time lives in the stubs.
func (n *Node) ExclusiveSum() int64 {
	excl := n.Dur.Sum
	for _, c := range n.Children {
		excl -= c.Dur.Sum
	}
	return excl
}
