// Package region defines source-code region descriptors and their
// registry. Regions are the static program entities profile metrics are
// attributed to; they correspond to the region handles OPARI2 generates
// when it instruments an OpenMP program (POMP2_Region_handle) and to the
// regions Score-P's compiler instrumentation registers for functions.
package region

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Type classifies a region. The profiling algorithm treats some types
// specially: Task regions root task-instance trees; TaskCreate, Taskwait,
// Barrier and ImplicitBarrier are scheduling-point regions under which
// stub nodes may appear; Parameter nodes are synthesized by parameter
// instrumentation and never registered here.
type Type int

// Region types, mirroring the OPARI2/POMP2 region taxonomy that the
// paper's instrumentation relies on.
const (
	UserFunction    Type = iota // compiler-instrumented function
	Parallel                    // #pragma omp parallel
	Task                        // #pragma omp task (structured block)
	TaskCreate                  // task-creation region around the task pragma
	Taskwait                    // #pragma omp taskwait
	Barrier                     // #pragma omp barrier (explicit)
	ImplicitBarrier             // implicit barrier at end of worksharing/parallel
	Single                      // #pragma omp single
	Master                      // #pragma omp master
	Critical                    // #pragma omp critical
	Loop                        // #pragma omp for
	Parameter                   // synthetic parameter node (never registered)
)

var typeNames = map[Type]string{
	UserFunction:    "function",
	Parallel:        "parallel",
	Task:            "task",
	TaskCreate:      "create_task",
	Taskwait:        "taskwait",
	Barrier:         "barrier",
	ImplicitBarrier: "implicit_barrier",
	Single:          "single",
	Master:          "master",
	Critical:        "critical",
	Loop:            "loop",
	Parameter:       "parameter",
}

// String returns the lower-case POMP2-style name of the region type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// SchedulingPoint reports whether a region of this type is a task
// scheduling point, i.e. a place where the executing thread may switch to
// another task and under which stub nodes are placed in the implicit
// task's call tree (Section IV-B4). It counts TaskCreate, which WaitPoint
// does not: creating a task may suspend the creator, so the profile puts
// stub nodes there, but the thread does not wait in it.
func (t Type) SchedulingPoint() bool {
	return t == TaskCreate || t.WaitPoint()
}

// WaitPoint reports whether a region of this type is one a thread waits
// in until other work is done — taskwait and the barriers: the "last
// synchronization point" the paper's conclusion measures dispatch from.
// The trace analyses, the bottleneck classifier and the timeline open
// their sync-region accounting on these; see SchedulingPoint for the
// wider set the profile places stub nodes under.
func (t Type) WaitPoint() bool {
	switch t {
	case Taskwait, Barrier, ImplicitBarrier:
		return true
	}
	return false
}

// Region is an immutable descriptor of a source-code region. Instances
// are interned by a Registry; identity comparisons of *Region are valid
// within one registry.
type Region struct {
	ID   int32
	Name string
	File string
	Line int
	Type Type

	// taskCreate caches the derived task-creation region so the
	// measurement system resolves it with one atomic load per task spawn
	// instead of a locked map lookup (see Registry.TaskCreateRegion).
	taskCreate atomic.Pointer[Region]
}

// String renders "name@file:line(type)" for reports and errors.
func (r *Region) String() string {
	if r == nil {
		return "<nil region>"
	}
	if r.File == "" {
		return fmt.Sprintf("%s(%s)", r.Name, r.Type)
	}
	return fmt.Sprintf("%s@%s:%d(%s)", r.Name, r.File, r.Line, r.Type)
}

// Registry interns region descriptors and hands out dense int32 IDs.
// It is safe for concurrent use; registration is expected at program
// start (OPARI2 emits registration in initialization code), lookups are
// lock-free reads of immutable descriptors afterwards.
type Registry struct {
	mu      sync.RWMutex
	byKey   map[key]*Region
	regions []*Region
}

type key struct {
	name string
	file string
	line int
	typ  Type
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[key]*Region)}
}

// Register interns a region descriptor. Registering the same
// (name, file, line, type) tuple twice returns the existing descriptor,
// so package-level region variables in different files can share handles.
func (g *Registry) Register(name, file string, line int, typ Type) *Region {
	k := key{name, file, line, typ}
	g.mu.RLock()
	r, ok := g.byKey[k]
	g.mu.RUnlock()
	if ok {
		return r
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok = g.byKey[k]; ok {
		return r
	}
	r = &Region{
		ID:   int32(len(g.regions)),
		Name: name,
		File: file,
		Line: line,
		Type: typ,
	}
	g.byKey[k] = r
	g.regions = append(g.regions, r)
	return r
}

// TaskCreateRegion returns (and interns on first use) the task-creation
// region derived from a task region, as OPARI2 generates it alongside
// the task construct. The result is cached on the task region itself,
// so the per-spawn hot path costs one atomic pointer load; the registry
// is only consulted on the first derivation. The derived region is
// interned in this registry — derive a region only through the registry
// that interned it.
func (g *Registry) TaskCreateRegion(r *Region) *Region {
	if cr := r.taskCreate.Load(); cr != nil {
		return cr
	}
	cr := g.Register(r.Name+" (create)", r.File, r.Line, TaskCreate)
	if r.taskCreate.CompareAndSwap(nil, cr) {
		return cr
	}
	return r.taskCreate.Load()
}

// Get returns the region with the given ID, or nil if out of range.
func (g *Registry) Get(id int32) *Region {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if id < 0 || int(id) >= len(g.regions) {
		return nil
	}
	return g.regions[id]
}

// Len returns the number of registered regions.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.regions)
}

// All returns the registered regions ordered by ID.
func (g *Registry) All() []*Region {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Region, len(g.regions))
	copy(out, g.regions)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Default is the process-wide registry. Benchmark codes register their
// regions here at init time, mirroring OPARI2's generated registration.
var Default = NewRegistry()

// MustRegister registers into the Default registry. It is a convenience
// for package-level variable initialization in instrumented code.
func MustRegister(name, file string, line int, typ Type) *Region {
	return Default.Register(name, file, line, typ)
}
