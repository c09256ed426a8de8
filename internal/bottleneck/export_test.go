package bottleneck

import (
	"math/rand"

	"repro/internal/trace"
)

// SideTable returns the side table of the task table c's records lay
// out: the task ids below its dense part, ascending.
func SideTable(c *Collector) []uint64 {
	slots, _ := newTaskSlots(c.observed())
	return slots.side
}

// JoinMismatches holds the critical-path walk's join search over the
// records c collected to the merged list of every task end, and returns
// what differs. It takes the place of Finish.
func JoinMismatches(c *Collector, seed int64) []string {
	return checkJoins(c.observed(), seed)
}

// SlowPaths returns how many times an analysis so far has sorted a
// record stream out of time order, how many task tables had created ids
// too spread for their dense part, and how many walks laid out every
// task's fragment ends because links could not tell a suspension time.
func SlowPaths() (sortFallback, sparseTable, fragTable int64) {
	return sortFallbacks.Load(), sparseTables.Load(), fragTables.Load()
}

// PendingSets returns how many creators' pending windows the analyses
// so far have laid out.
func PendingSets() int64 { return pendingBuilds.Load() }

// RandomTrace is the random task graph seed draws, as
// TestRandomTaskGraphs draws them, with one thread's clock run
// backwards mid-stream when backwards is set.
func RandomTrace(seed int64, backwards bool) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := randomTrace(rng, randomConfig(rng))
	if backwards {
		backwardsClocks(rng, tr)
	}
	return tr
}

// GeneratedTrace is a random task graph of seed on threads threads over
// phases barrier-separated phases, in each of which a random subset of
// the threads creates up to eight roots whose tasks nest three deep:
// some 800 events a phase at four threads.
func GeneratedTrace(seed int64, threads, phases int) *trace.Trace {
	return randomTrace(rand.New(rand.NewSource(seed)), genConfig{Threads: threads, Roots: 8, Phases: phases, MaxDepth: 3, Grid: 1})
}
