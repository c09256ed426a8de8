package trace

import (
	"sync/atomic"
	"testing"

	"repro/internal/bots"
	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
)

// readsPerCall forwards every event to l and counts, per method, the
// clock reads each call took. ThreadBegin and ThreadEnd pass uncounted:
// they are not on the per-event path, and a profile's creation reads
// the clock of its own.
type readsPerCall struct {
	l     omp.Listener
	reads *atomic.Int64
	calls map[string]map[int64]int // method → reads in one call → calls
}

func (c *readsPerCall) count(method string, call func()) {
	before := c.reads.Load()
	call()
	if c.calls[method] == nil {
		c.calls[method] = map[int64]int{}
	}
	c.calls[method][c.reads.Load()-before]++
}

func (c *readsPerCall) ThreadBegin(t *omp.Thread) { c.l.ThreadBegin(t) }
func (c *readsPerCall) ThreadEnd(t *omp.Thread)   { c.l.ThreadEnd(t) }
func (c *readsPerCall) Enter(t *omp.Thread, r *region.Region) {
	c.count("Enter", func() { c.l.Enter(t, r) })
}
func (c *readsPerCall) Exit(t *omp.Thread, r *region.Region) {
	c.count("Exit", func() { c.l.Exit(t, r) })
}
func (c *readsPerCall) TaskCreateBegin(t *omp.Thread, r *region.Region) {
	c.count("TaskCreateBegin", func() { c.l.TaskCreateBegin(t, r) })
}
func (c *readsPerCall) TaskCreateEnd(t *omp.Thread, tk *omp.Task) {
	c.count("TaskCreateEnd", func() { c.l.TaskCreateEnd(t, tk) })
}
func (c *readsPerCall) TaskBegin(t *omp.Thread, tk *omp.Task) {
	c.count("TaskBegin", func() { c.l.TaskBegin(t, tk) })
}
func (c *readsPerCall) TaskEnd(t *omp.Thread, tk, resume *omp.Task) {
	c.count("TaskEnd", func() { c.l.TaskEnd(t, tk, resume) })
}

// TestOneClockReadPerCall pins a fib tiny run to one clock read per
// listener call, TaskEnd included: a task's end and the switch to the
// task it resumes share one reading. It holds for the profile-only
// Measurement and for the fused Tee. The fused Tee is built here by
// hand, because NewTee fuses only clocks it can compare, and a counting
// clock is a clock.Func. One thread, so that the one counter sees one
// thread's reads.
func TestOneClockReadPerCall(t *testing.T) {
	for _, fused := range []bool{false, true} {
		var reads atomic.Int64
		clk := clock.Func(func() int64 { return reads.Add(1) })
		m := measure.NewWithClock(clk, region.Default)
		var l omp.Listener = m
		if fused {
			rec := NewStreamingRecorder(clk, dropSink{}, 0)
			l = &Tee{Listeners: []omp.Listener{m, rec}, fm: m, fr: rec, clk: clk}
		}
		c := &readsPerCall{l: l, reads: &reads, calls: map[string]map[int64]int{}}
		rt := omp.NewRuntime(c)
		if got, want := bots.FibSpec.Prepare(bots.SizeTiny, false)(rt, 1), bots.FibSpec.Expected(bots.SizeTiny); got != want {
			t.Fatalf("fused %v: fib = %d, want %d", fused, got, want)
		}
		for method, byReads := range c.calls {
			for n, calls := range byReads {
				if n != 1 {
					t.Errorf("fused %v: %d %s calls read the clock %d times each, want once", fused, calls, method, n)
				}
			}
		}
		if ends, created := c.calls["TaskEnd"][1], rt.LastTeamStats().TasksCreated; created == 0 || int64(ends) != created {
			t.Errorf("fused %v: %d TaskEnd calls read the clock once, %d tasks were created", fused, ends, created)
		}
	}
}
