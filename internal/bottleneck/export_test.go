package bottleneck

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
