// Package pomp provides the instrumentation wrappers an OPARI2-rewritten
// program would contain beyond its constructs. In the paper, OPARI2
// rewrites OpenMP pragmas into POMP2 calls around the constructs and
// Score-P's compiler instrumentation wraps function bodies; in Go the
// constructs are the omp.Thread methods (NewTask, Taskwait, Barrier,
// Single, ...), which emit their own events, and these wrappers add the
// rest by hand: function enter/exit and parameters.
//
// All wrappers degrade to plain calls with zero measurement work when
// the runtime has no listener (the uninstrumented baseline).
package pomp

import (
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
