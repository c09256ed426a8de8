package trace

// SyncCoverage is the one shared definition of sync-region coverage:
// how much of a thread's time inside scheduling-point regions
// (taskwait/barrier) is accounted for by task fragments and dispatch
// gaps, and how much is pure idle waiting. Both the aggregate trace
// analysis (ThreadAnalysis.DispatchLatency / SyncRegionTime /
// IdleInSync) and the bottleneck wait-state classifier
// (internal/bottleneck) drive their bookkeeping through this state
// machine, so the two can never disagree about where a sync region,
// a dispatch gap or an idle span begins or ends.
//
// The machine tracks:
//
//   - Depth: the nesting level of scheduling-point regions. Coverage
//     accounting spans one top-level instance, from the Enter that
//     takes Depth 0 -> 1 to the Exit that takes it back to 0.
//   - readiness: the thread is "ready to dispatch" from the enter of
//     the last synchronization point (the paper's phrase), and again
//     whenever a task ends or the thread switches back to the implicit
//     task while inside a sync region. TakeDispatch consumes the
//     readiness when a task fragment begins; the span from ReadyAt to
//     that begin is the dispatch gap.
//   - covered time: fragment and dispatch durations inside the open
//     instance. ExitSync reports the instance's total and its idle
//     remainder (total - covered).
//
// The zero value is ready for use.
type SyncCoverage struct {
	// Depth is the current scheduling-point nesting level.
	Depth int
	// ReadyAt is when the thread last became ready to dispatch; only
	// meaningful while ReadyValid.
	ReadyAt int64
	// ReadyValid reports an open dispatch gap (readiness not yet
	// consumed by a fragment begin or discarded by a sync exit).
	ReadyValid bool

	syncEnter int64 // start of the open top-level instance
	covered   int64 // fragment+dispatch time inside it
}

// EnterSync records the enter of a scheduling-point region. At depth 0
// it opens a new top-level instance; at any depth it re-stamps the
// thread's readiness (entering a scheduling point makes the thread
// ready to pick up tasks).
func (c *SyncCoverage) EnterSync(t int64) {
	if c.Depth == 0 {
		c.syncEnter = t
		c.covered = 0
	}
	c.Depth++
	c.MarkReady(t)
}

// ExitSync records the exit of a scheduling-point region, discarding
// any open readiness. When the exit closes the top-level instance
// (Depth returns to 0) it reports the instance's total duration and
// its idle remainder (total minus covered time; callers clamp — a
// task fragment already open at the instance's enter contributes its
// full duration to covered, which can push idle below zero).
func (c *SyncCoverage) ExitSync(t int64) (total, idle int64, closed bool) {
	c.Depth--
	c.ReadyValid = false
	if c.Depth != 0 {
		return 0, 0, false
	}
	total = t - c.syncEnter
	return total, total - c.covered, true
}

// MarkReady stamps the thread ready to dispatch at t, (re)opening a
// dispatch gap. Callers guard with Depth > 0 except EnterSync, which
// marks unconditionally.
func (c *SyncCoverage) MarkReady(t int64) {
	c.ReadyAt = t
	c.ReadyValid = true
}

// Cover adds a task-fragment duration to the open instance's covered
// time (a no-op outside sync regions).
func (c *SyncCoverage) Cover(d int64) {
	if c.Depth > 0 {
		c.covered += d
	}
}

// TakeDispatch closes the open dispatch gap at t — a task fragment is
// beginning. It returns the gap's start and duration, consumes the
// readiness and counts the gap into the open instance's covered time.
// ok is false when no gap was open (the fragment begins outside any
// dispatch accounting, e.g. the first fragment before any sync enter).
func (c *SyncCoverage) TakeDispatch(t int64) (start, dur int64, ok bool) {
	if !c.ReadyValid {
		return 0, 0, false
	}
	start, dur = c.ReadyAt, t-c.ReadyAt
	c.ReadyValid = false
	if c.Depth > 0 {
		c.covered += dur
	}
	return start, dur, true
}
