package trace

import (
	"fmt"
	"testing"

	"repro/internal/bots"
	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
)

// readsPerCall stands between a runtime and its listeners, and names
// the runtime's clock: a counting wrapper around base. Per listener call
// it checks that the runtime read the clock exactly once since the
// previous call returned, that the instant it passes is that reading,
// and that no listener reads the clock in the call — except a
// profile's creation at ThreadBegin, whose root opens at its own reading
// (ROADMAP item 10). One thread, so that the counter sees one thread's
// reads.
type readsPerCall struct {
	ls         omp.Listeners
	base       clock.Clock
	reads      int64 // clock reads so far
	last       int64 // the last reading
	returned   int64 // reads when the previous call returned
	calls, bad map[string]int
}

func (c *readsPerCall) Clock() clock.Clock {
	return clock.Func(func() int64 {
		c.reads++
		c.last = c.base.Now()
		return c.last
	})
}

func (c *readsPerCall) count(method string, now int64, call func()) {
	before := c.reads
	if before-c.returned != 1 || now != c.last {
		c.bad[fmt.Sprintf("%s: %d reads before the call, now %d, last reading %d", method, before-c.returned, now, c.last)]++
	}
	call()
	if in := c.reads - before; in != 0 && method != "ThreadBegin" {
		c.bad[fmt.Sprintf("%s: the listeners read the clock %d times", method, in)]++
	}
	c.returned = c.reads
	c.calls[method]++
}

func (c *readsPerCall) ThreadBegin(t *omp.Thread, now int64) {
	c.count("ThreadBegin", now, func() { c.ls.ThreadBegin(t, now) })
}
func (c *readsPerCall) ThreadEnd(t *omp.Thread, now int64) {
	c.count("ThreadEnd", now, func() { c.ls.ThreadEnd(t, now) })
}
func (c *readsPerCall) Enter(t *omp.Thread, r *region.Region, now int64) {
	c.count("Enter", now, func() { c.ls.Enter(t, r, now) })
}
func (c *readsPerCall) Exit(t *omp.Thread, r *region.Region, now int64) {
	c.count("Exit", now, func() { c.ls.Exit(t, r, now) })
}
func (c *readsPerCall) TaskCreateBegin(t *omp.Thread, r *region.Region, now int64) {
	c.count("TaskCreateBegin", now, func() { c.ls.TaskCreateBegin(t, r, now) })
}
func (c *readsPerCall) TaskCreateEnd(t *omp.Thread, tk *omp.Task, now int64) {
	c.count("TaskCreateEnd", now, func() { c.ls.TaskCreateEnd(t, tk, now) })
}
func (c *readsPerCall) TaskBegin(t *omp.Thread, tk *omp.Task, now int64) {
	c.count("TaskBegin", now, func() { c.ls.TaskBegin(t, tk, now) })
}
func (c *readsPerCall) TaskEnd(t *omp.Thread, tk, resume *omp.Task, now int64) {
	c.count("TaskEnd", now, func() { c.ls.TaskEnd(t, tk, resume, now) })
}

// TestOneClockReadPerCall pins a fib tiny run to one clock read by the
// runtime per listener call, TaskEnd included (a task's end and the
// switch to the task it resumes share one reading), and to none by the
// listeners: profile only, trace only, profile and trace, and profile
// and trace with an extra listener, under a system, a manual and a
// function clock. The recorders are made with no clock at all.
func TestOneClockReadPerCall(t *testing.T) {
	bases := map[string]clock.Clock{
		"system": clock.NewSystem(),
		"manual": clock.NewManual(7),
		"func":   clock.Func(func() int64 { return 11 }),
	}
	shapes := []struct {
		name           string
		profile, trace bool
		extra          bool
	}{
		{"profile", true, false, false},
		{"trace", false, true, false},
		{"profile+trace", true, true, false},
		{"profile+trace+extra", true, true, true},
	}
	for base, clk := range bases {
		for _, sh := range shapes {
			name := base + "/" + sh.name
			c := &readsPerCall{base: clk, calls: map[string]int{}, bad: map[string]int{}}
			if sh.profile {
				c.ls = append(c.ls, measure.NewWithClock(c.Clock(), region.Default))
			}
			if sh.trace {
				c.ls = append(c.ls, NewStreamingRecorder(nil, dropSink{}, 0))
			}
			if sh.extra {
				c.ls = append(c.ls, NewStreamingRecorder(nil, dropSink{}, 0))
			}
			rt := omp.NewRuntime(c)
			if got, want := bots.FibSpec.Prepare(bots.SizeTiny, false)(rt, 1), bots.FibSpec.Expected(bots.SizeTiny); got != want {
				t.Fatalf("%s: fib = %d, want %d", name, got, want)
			}
			for msg, n := range c.bad {
				t.Errorf("%s: %d calls: %s", name, n, msg)
			}
			if ends, created := c.calls["TaskEnd"], rt.LastTeamStats().TasksCreated; created == 0 || int64(ends) != created {
				t.Errorf("%s: %d TaskEnd calls, %d tasks were created", name, ends, created)
			}
		}
	}
}
