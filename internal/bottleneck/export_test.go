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
// record stream out of time order, and how many task tables had created
// ids too spread for their dense part.
func SlowPaths() (sortFallback, sparseTable int64) {
	return sortFallbacks.Load(), sparseTables.Load()
}
