// Package measure is the measurement-system core: it implements the
// runtime's Listener interface and translates the POMP2-style event
// stream into per-thread task-aware profiles using internal/core — the
// role Score-P's measurement core plays between OPARI2 instrumentation
// and the profile (paper Section IV).
//
// The per-event path is lock-free in steady state: the thread's profile
// lives in the typed omp.Thread.Profile slot (bound once at
// ThreadBegin), task instances travel in the typed omp.Task.Instance
// slot, and the derived task-creation region is cached on the task
// region itself — no event between ThreadBegin and ThreadEnd takes a
// lock, consults a map, or allocates.
//
// Filtering (NewFilter) is part of the measurement, as in Score-P: a
// filtered Measurement checks each user region's cached verdict in Enter
// and Exit, and is still the one listener.
package measure

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/region"
)

// Measurement owns the per-thread locations (profiles) of one measured
// program run. Attach it to a runtime via omp.NewRuntime(m); after the
// measured code finished, call Finish and hand Locations to
// internal/cube for aggregation and reporting.
//
// Locations persist across successive parallel regions (threads with the
// same ID map to the same location), matching Score-P's thread pool
// model. Concurrent (nested) parallel regions are not supported by the
// measurement layer.
type Measurement struct {
	clk clock.Clock
	reg *region.Registry

	// filter excludes user regions from the profile (NewFilter); nil
	// when the run is unfiltered.
	filter *filter

	mu        sync.Mutex
	locations map[int]*core.ThreadProfile
	order     []int

	finished bool
}

// New creates a measurement reading time from the system clock and
// interning derived regions in the default registry.
func New() *Measurement {
	return NewWithClock(clock.NewSystem(), region.Default)
}

// NewWithClock creates a measurement with an explicit clock and registry;
// tests use a manual clock for deterministic profiles.
func NewWithClock(clk clock.Clock, reg *region.Registry) *Measurement {
	return &Measurement{
		clk:       clk,
		reg:       reg,
		locations: make(map[int]*core.ThreadProfile),
	}
}

// Profile exposes the location attached to a thread, or nil when the
// thread is not measured. Instrumentation wrappers use it.
func Profile(t *omp.Thread) *core.ThreadProfile { return t.Profile }

// CreateRegion returns (and interns on first use) the task-creation
// region derived from a task region, as OPARI2 generates it alongside
// the task construct region. The derived region is cached on the task
// region itself, so the per-spawn cost is one atomic load.
func (m *Measurement) CreateRegion(r *region.Region) *region.Region {
	return m.reg.TaskCreateRegion(r)
}

// ThreadBegin implements omp.Listener: it binds the location for the
// thread ID to the thread's typed profile slot. This is the only
// measurement event that takes a lock (threads register concurrently);
// every later event reaches its state through the slot.
func (m *Measurement) ThreadBegin(t *omp.Thread) {
	m.mu.Lock()
	p, ok := m.locations[t.ID]
	if !ok {
		p = core.NewThreadProfile(t.ID, m.clk)
		m.locations[t.ID] = p
		m.order = append(m.order, t.ID)
	}
	m.mu.Unlock()
	t.Profile = p
}

// ThreadEnd implements omp.Listener. The location stays open so that a
// later parallel region can continue it; Finish closes all locations.
func (m *Measurement) ThreadEnd(t *omp.Thread) {
	t.Profile = nil
}

// excluded reports whether r is a user region the filter drops.
func (m *Measurement) excluded(r *region.Region) bool {
	return m.filter != nil && m.filter.excluded(r)
}

// Enter implements omp.Listener, dropping a filtered user region.
func (m *Measurement) Enter(t *omp.Thread, r *region.Region) {
	if m.excluded(r) {
		return
	}
	t.Profile.Enter(r)
}

// EnterAt is Enter with an explicit timestamp; the fused
// profiling+tracing tee reads the clock once per event and hands the
// same instant to profile and trace.
func (m *Measurement) EnterAt(t *omp.Thread, r *region.Region, now int64) {
	if m.excluded(r) {
		return
	}
	t.Profile.EnterAt(r, now)
}

// Exit implements omp.Listener, dropping a filtered user region.
func (m *Measurement) Exit(t *omp.Thread, r *region.Region) {
	if m.excluded(r) {
		return
	}
	t.Profile.Exit(r)
}

// ExitAt is Exit with an explicit timestamp (see EnterAt).
func (m *Measurement) ExitAt(t *omp.Thread, r *region.Region, now int64) {
	if m.excluded(r) {
		return
	}
	t.Profile.ExitAt(r, now)
}

// TaskCreateBegin implements omp.Listener: enter the derived
// task-creation region (creation-time metric, Section III).
func (m *Measurement) TaskCreateBegin(t *omp.Thread, r *region.Region) {
	t.Profile.Enter(m.CreateRegion(r))
}

// TaskCreateBeginAt is TaskCreateBegin with an explicit timestamp.
func (m *Measurement) TaskCreateBeginAt(t *omp.Thread, r *region.Region, now int64) {
	t.Profile.EnterAt(m.CreateRegion(r), now)
}

// TaskCreateEnd implements omp.Listener.
func (m *Measurement) TaskCreateEnd(t *omp.Thread, tk *omp.Task) {
	t.Profile.Exit(m.CreateRegion(tk.Region))
}

// TaskCreateEndAt is TaskCreateEnd with an explicit timestamp.
func (m *Measurement) TaskCreateEndAt(t *omp.Thread, tk *omp.Task, now int64) {
	t.Profile.ExitAt(m.CreateRegion(tk.Region), now)
}

// TaskBegin implements omp.Listener: create the instance profile and
// store it in the task's typed slot, exactly as OPARI2 stores instance
// IDs inside the task.
func (m *Measurement) TaskBegin(t *omp.Thread, tk *omp.Task) {
	tk.Instance = t.Profile.TaskBegin(tk.Region)
}

// TaskBeginAt is TaskBegin with an explicit timestamp.
func (m *Measurement) TaskBeginAt(t *omp.Thread, tk *omp.Task, now int64) {
	tk.Instance = t.Profile.TaskBeginAt(tk.Region, now)
}

// TaskEnd implements omp.Listener: complete tk's instance and resume
// resume's (the implicit task for nil), both at one clock reading.
func (m *Measurement) TaskEnd(t *omp.Thread, tk, resume *omp.Task) {
	m.TaskEndAt(t, tk, resume, m.clk.Now())
}

// TaskEndAt is TaskEnd with an explicit timestamp.
func (m *Measurement) TaskEndAt(t *omp.Thread, tk, resume *omp.Task, now int64) {
	p := t.Profile
	p.TaskEndAt(now)
	tk.Instance = nil
	if resume == nil {
		return
	}
	ti := resume.Instance
	if ti == nil {
		panic(fmt.Sprintf("measure: task %d resumes task %d without instance data", tk.ID, resume.ID))
	}
	p.TaskSwitchToAt(ti, now)
}

// Finish closes all locations. Call after the measured code completed.
func (m *Measurement) Finish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finished {
		return
	}
	for _, id := range m.order {
		m.locations[id].Finish()
	}
	m.finished = true
}

// Locations returns the per-thread profiles ordered by thread ID
// (creation order equals ID order for contiguous teams).
func (m *Measurement) Locations() []*core.ThreadProfile {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*core.ThreadProfile, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.locations[id])
	}
	return out
}

// Location returns the profile of one thread ID, or nil.
func (m *Measurement) Location(id int) *core.ThreadProfile {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.locations[id]
}

// Clock returns the measurement's time source.
func (m *Measurement) Clock() clock.Clock { return m.clk }
