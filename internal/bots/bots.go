// Package bots ports the nine codes of the Barcelona OpenMP Tasks Suite
// (BOTS, Duran et al., ICPP 2009) — the paper's evaluation workload — to
// the task runtime of internal/omp.
//
// Each code mirrors its BOTS counterpart's task structure: who creates
// tasks (recursive tasks vs. a single creator), where taskwaits occur,
// and which codes provide a cut-off variant limiting task-creation depth
// (fib, floorplan, health, nqueens, strassen — exactly the set the
// paper's Figs. 13-15 distinguish). SparseLU is the "single construct"
// version the paper selected. Every code verifies against a serial
// reference implementation.
//
// Input sizes are scaled down from BOTS "medium" so the complete
// evaluation runs on a laptop; each code's file holds its sizes.
package bots

import (
	"fmt"

	"repro/internal/omp"
)

// Size selects the input scale of a benchmark.
type Size int

// Benchmark input scales.
const (
	SizeTiny Size = iota // unit tests
	SizeSmall
	SizeMedium // experiment default
)

// String returns the lower-case size name.
func (s Size) String() string {
	switch s {
	case SizeTiny:
		return "tiny"
	case SizeSmall:
		return "small"
	case SizeMedium:
		return "medium"
	}
	return fmt.Sprintf("size(%d)", int(s))
}

// Kernel is a prepared benchmark kernel: it executes exactly one parallel
// region on the given runtime (the timed section, matching the paper's
// "runtimes of its parallel region, containing the tasking kernel") and
// returns a verification value.
type Kernel func(rt *omp.Runtime, threads int) uint64

// Spec describes one BOTS code to the experiment harness.
type Spec struct {
	// Name is the BOTS code name (fib, nqueens, ...).
	Name string
	// HasCutoff reports whether BOTS provides a cut-off variant — the
	// codes of Figs. 14/15 and the "(cut-off)" rows of Table II.
	HasCutoff bool
	// Prepare allocates the input for the given size and returns the
	// timed kernel. cutoff selects the cut-off variant where available
	// (ignored otherwise).
	Prepare func(size Size, cutoff bool) Kernel
	// Expected returns the reference verification value computed by the
	// serial implementation.
	Expected func(size Size) uint64
}

// All lists the nine BOTS codes in the paper's (alphabetical) order.
var All = []*Spec{
	AlignmentSpec,
	FFTSpec,
	FibSpec,
	FloorplanSpec,
	HealthSpec,
	NQueensSpec,
	SortSpec,
	SparseLUSpec,
	StrassenSpec,
}

// ByName returns the spec with the given name, or nil.
func ByName(name string) *Spec {
	for _, s := range All {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// CutoffCodes returns the specs with a cut-off variant (the Fig. 14/15
// set: fib, floorplan, health, nqueens, strassen).
func CutoffCodes() []*Spec {
	var out []*Spec
	for _, s := range All {
		if s.HasCutoff {
			out = append(out, s)
		}
	}
	return out
}

// lcg is a small deterministic generator for reproducible inputs.
type lcg uint64

func newLCG(seed uint64) lcg { return lcg(seed*2862933555777941757 + 3037000493) }

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 17)
}

// nextN returns a value in [0,n).
func (r *lcg) nextN(n int) int { return int(r.next() % uint64(n)) }

// nextFloat returns a value in [0,1).
func (r *lcg) nextFloat() float64 { return float64(r.next()%(1<<53)) / (1 << 53) }

// fnv64 accumulates a FNV-1a style checksum.
type fnv64 uint64

func newFNV() fnv64 { return 1469598103934665603 }

func (h *fnv64) add(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> (8 * i)) & 0xff
		x *= 1099511628211
	}
	*h = fnv64(x)
}

func (h fnv64) sum() uint64 { return uint64(h) }
