// Package pomp provides the instrumentation wrappers an OPARI2-rewritten
// program would contain. In the paper, OPARI2 rewrites OpenMP pragmas
// into POMP2 calls around the constructs and Score-P's compiler
// instrumentation wraps function bodies; in Go we write that rewritten
// form by hand: instrumented benchmark variants call these wrappers,
// which both drive the runtime construct and emit the measurement events.
//
// All wrappers degrade to plain runtime calls with zero measurement work
// when the runtime has no listener (the uninstrumented baseline).
package pomp

import (
	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/region"
)

// Function instruments a user function body (compiler instrumentation
// analog): enter/exit events around fn, attributed to the current task.
func Function(t *omp.Thread, r *region.Region, fn func()) {
	t.Enter(r)
	fn()
	t.Exit(r)
}

// Enter emits a raw enter event (paired with Exit). Prefer Function.
func Enter(t *omp.Thread, r *region.Region) { t.Enter(r) }

// Exit emits a raw exit event.
func Exit(t *omp.Thread, r *region.Region) { t.Exit(r) }

// ParameterInt records an integer parameter on the current call path,
// splitting the profile subtree by value — the parameter instrumentation
// the paper inserts into the nqueens task to attribute statistics per
// recursion depth (Table IV).
func ParameterInt(t *omp.Thread, name string, value int64) {
	if p := t.Profile; p != nil {
		p.ParameterInt(name, value)
	}
}

// ParameterString records a string parameter on the current call path
// (Score-P's POMP2_Parameter_string counterpart).
func ParameterString(t *omp.Thread, name, value string) {
	if p := t.Profile; p != nil {
		p.ParameterString(name, value)
	}
}

// CurrentProfile returns the measuring thread profile, or nil when
// uninstrumented. Advanced instrumentation (tests, adapters) may use it.
func CurrentProfile(t *omp.Thread) *core.ThreadProfile { return t.Profile }

// Task models an instrumented "#pragma omp task": creation events are
// emitted by the runtime, execution events fire when the instance runs.
func Task(t *omp.Thread, r *region.Region, fn omp.TaskFunc, opts ...omp.TaskOpt) {
	t.NewTask(r, fn, opts...)
}

// Taskwait models an instrumented "#pragma omp taskwait".
func Taskwait(t *omp.Thread, r *region.Region) {
	t.Taskwait(r)
}

// Barrier models an instrumented "#pragma omp barrier".
func Barrier(t *omp.Thread, r *region.Region) {
	t.Barrier(r)
}

// Parallel models an instrumented "#pragma omp parallel num_threads(n)".
func Parallel(rt *omp.Runtime, n int, r *region.Region, body func(t *omp.Thread)) {
	rt.Parallel(n, r, body)
}

// Single models an instrumented "#pragma omp single nowait".
func Single(t *omp.Thread, r *region.Region, fn func(t *omp.Thread)) {
	t.Single(r, fn)
}

// Master models an instrumented "#pragma omp master".
func Master(t *omp.Thread, r *region.Region, fn func(t *omp.Thread)) {
	t.Master(r, fn)
}

// Critical models an instrumented "#pragma omp critical".
func Critical(t *omp.Thread, r *region.Region, fn func(t *omp.Thread)) {
	t.Critical(r, fn)
}

// For models an instrumented statically scheduled "#pragma omp for".
func For(t *omp.Thread, r *region.Region, n int, fn func(t *omp.Thread, i int)) {
	t.For(r, n, fn)
}
