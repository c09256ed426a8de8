package bottleneck

// SideTable returns the side table of the task table c's records lay
// out: the task ids below its dense part, ascending.
func SideTable(c *Collector) []uint64 {
	tcs := make([]*threadCollector, 0, len(c.threads))
	for _, tc := range c.threads {
		tcs = append(tcs, tc)
	}
	slots, _ := newTaskSlots(tcs)
	return slots.side
}

// SlowPaths returns how many times an analysis so far has sorted a
// record stream out of time order, and how many task tables had created
// ids too spread for their dense part.
func SlowPaths() (sortFallback, sparseTable int64) {
	return sortFallbacks.Load(), sparseTables.Load()
}
