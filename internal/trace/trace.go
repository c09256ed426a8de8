// Package trace records the runtime's event stream as an event trace —
// the OTF2/tracing side of Score-P, which the paper's conclusion names
// as the next step: "Automated trace analysis, like Scalasca does for
// other programming paradigms, might provide some additional
// information", specifically "the time between the enter of the last
// synchronization point and the task switch event" and "the ratio of
// overall management time to exclusive execution time for tasks".
//
// The Recorder implements omp.Listener; a runtime combines it with the
// profiling measurement by holding both in an omp.Listeners, and stamps
// both with one clock read per event. It stages each thread's events in
// a block kept in the thread's omp.Thread.TraceData slot (bound at
// ThreadBegin) and hands every full block to an EventSink, so recording
// an event is lock-free and allocation-free in steady state. Analyses
// over recorded traces live in analysis.go.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
)

// EventType enumerates trace record types.
type EventType uint8

// Trace event types, mirroring the POMP2-style runtime events.
const (
	EvEnter EventType = iota
	EvExit
	EvTaskCreateBegin
	EvTaskCreateEnd
	EvTaskBegin
	EvTaskEnd
	EvTaskSwitch // resumption of a suspended task (or the implicit task)
	EvThreadBegin
	EvThreadEnd
)

var evNames = map[EventType]string{
	EvEnter:           "ENTER",
	EvExit:            "EXIT",
	EvTaskCreateBegin: "TASK_CREATE_BEGIN",
	EvTaskCreateEnd:   "TASK_CREATE_END",
	EvTaskBegin:       "TASK_BEGIN",
	EvTaskEnd:         "TASK_END",
	EvTaskSwitch:      "TASK_SWITCH",
	EvThreadBegin:     "THREAD_BEGIN",
	EvThreadEnd:       "THREAD_END",
}

// String returns the OTF2-style record name.
func (e EventType) String() string {
	if s, ok := evNames[e]; ok {
		return s
	}
	return fmt.Sprintf("EV(%d)", uint8(e))
}

// Event is one trace record. Region is nil for pure task events; TaskID
// is 0 for region events of the implicit task and for a switch back to
// the implicit task.
type Event struct {
	Time   int64
	Type   EventType
	Region *region.Region
	TaskID uint64
}

// Trace is a finished recording: per-thread event sequences ordered by
// time (each thread's stream is naturally ordered; no cross-thread order
// is implied, as in any distributed trace).
type Trace struct {
	Threads map[int][]Event
}

// NumEvents returns the total record count.
func (tr *Trace) NumEvents() int {
	n := 0
	for _, evs := range tr.Threads {
		n += len(evs)
	}
	return n
}

// ThreadIDs returns the recorded thread IDs in ascending order.
func (tr *Trace) ThreadIDs() []int {
	ids := make([]int, 0, len(tr.Threads))
	for id := range tr.Threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// EventSink receives flushed per-thread event chunks from a Recorder.
// otf2.Writer implements it; implementations must be safe for concurrent
// use, since runtime threads flush their chunks independently. The
// events slice is only valid for the duration of the call — the
// recorder reuses its backing array.
type EventSink interface {
	WriteEvents(thread int, events []Event) error
}

// Recorder collects events from the runtime. It implements omp.Listener.
// Like the profiling system it keeps strictly per-thread buffers: the
// buffer is bound to the thread's omp.Thread.TraceData slot at
// ThreadBegin, so recording an event is a slot load and an append — no
// lock and no map lookup, also when the recorder shares the event
// stream with the profiling measurement (each listener kind owns its
// own slot). The map of buffers is only consulted when a thread
// registers, at Finish, or for threads that bypassed ThreadBegin.
//
// A thread's buffer is flushed to the sink whenever it reaches the
// configured chunk size, so recording holds at most one chunk per thread
// in memory regardless of run length. An open recorder (NewOpenRecorder)
// also lets another goroutine read the events no flush has handed on
// yet: the flight recorder's front half.
type Recorder struct {
	clk clock.Clock // stamps the runtime's events (Clock); never read here

	sink        EventSink
	chunkEvents int

	// open marks a recorder whose unflushed blocks another goroutine may
	// read while the threads record (NewOpenRecorder, OpenBlocks): its
	// threads publish their block's length after every event.
	open bool

	// sinkErr latches the first sink failure. It is an atomic pointer
	// (not a mutex-guarded field) so the steady-state record path —
	// including the pre-flush failed-check — never touches a lock.
	// discarded counts the events dropped because of it: the batch the
	// sink refused and every batch after.
	sinkErr   atomic.Pointer[error]
	discarded atomic.Int64

	mu      sync.Mutex
	buffers map[int]*buffer
}

// buffer is one thread's event run. rec identifies the owning recorder,
// so two recorders on one runtime cannot mistake each other's slot
// claim.
type buffer struct {
	rec    *Recorder
	events []Event

	// seal is the thread's seal lock: a flush holds it from before the
	// sink sees the block until the block is empty again, OpenBlocks
	// around its visit, so a visitor finds each event either with the
	// sink or in the open block, never in both or neither. An open
	// recorder only: block is the fixed backing array of events, n the
	// length of events its thread last published.
	seal  sync.Mutex
	block []Event
	n     atomic.Int32
}

// DefaultChunkEvents is the per-thread flush threshold used by
// NewStreamingRecorder when chunkEvents <= 0.
const DefaultChunkEvents = 4096

// NewStreamingRecorder creates a recorder whose runtime reads time from
// clk (Clock): whenever a thread has accumulated chunkEvents events
// they are handed to sink and the buffer is reset. Finish flushes the
// remaining partial chunks; the recording lives in whatever the sink
// wrote. The first sink error is latched (see Err) and recording
// continues by discarding — and counting — flushed chunks, so a failing
// disk cannot stall or OOM the instrumented run.
func NewStreamingRecorder(clk clock.Clock, sink EventSink, chunkEvents int) *Recorder {
	if chunkEvents <= 0 {
		chunkEvents = DefaultChunkEvents
	}
	return &Recorder{clk: clk, sink: sink, chunkEvents: chunkEvents, buffers: make(map[int]*buffer)}
}

// Err returns the first sink error encountered while flushing chunks,
// or nil. The batch the sink refused and everything flushed after it
// are dropped; the error says how many events that is so far, and
// wraps the sink's own.
func (r *Recorder) Err() error {
	if p := r.sinkErr.Load(); p != nil {
		return fmt.Errorf("%w (%d events discarded)", *p, r.discarded.Load())
	}
	return nil
}

// flush hands b's events for thread id to the sink and resets the
// buffer in place, preserving its capacity, all under the thread's seal
// lock (uncontended unless OpenBlocks is visiting the thread). The error
// latch is a single atomic: one load on the happy path, one
// CompareAndSwap when the first failure is recorded.
func (r *Recorder) flush(id int, b *buffer) {
	if len(b.events) == 0 {
		return
	}
	b.seal.Lock()
	failed := r.sinkErr.Load() != nil
	if !failed {
		if err := r.sink.WriteEvents(id, b.events); err != nil {
			r.sinkErr.CompareAndSwap(nil, &err)
			failed = true
		}
	}
	if failed {
		r.discarded.Add(int64(len(b.events)))
	}
	b.events = b.events[:0]
	b.n.Store(0)
	b.seal.Unlock()
}

// bufferFor returns (creating on first use) the registered buffer of
// thread id.
func (r *Recorder) bufferFor(id int) *buffer {
	r.mu.Lock()
	b, ok := r.buffers[id]
	if !ok {
		b = &buffer{rec: r}
		if r.open {
			// Never regrown, so a reader of block sees every append.
			b.block = make([]Event, r.chunkEvents)
			b.events = b.block[:0]
		}
		r.buffers[id] = b
	}
	r.mu.Unlock()
	return b
}

// buffer returns the per-thread buffer attached to t. The fast path is
// the thread's TraceData slot (claimed at ThreadBegin); the slow path
// registers the buffer, for threads that bypassed ThreadBegin (unit
// tests) or when another recorder on the same runtime owns the slot.
func (r *Recorder) buffer(t *omp.Thread) *buffer {
	if b, ok := t.TraceData.(*buffer); ok && b.rec == r {
		return b
	}
	b := r.bufferFor(t.ID)
	if t.TraceData == nil {
		t.TraceData = b
	}
	return b
}

// recordAt appends one event at now.
func (r *Recorder) recordAt(t *omp.Thread, now int64, typ EventType, reg *region.Region, task uint64) {
	b := r.buffer(t)
	b.events = append(b.events, Event{Time: now, Type: typ, Region: reg, TaskID: task})
	if r.open {
		b.n.Store(int32(len(b.events)))
	}
	if len(b.events) >= r.chunkEvents {
		r.flush(t.ID, b)
	}
}

// Record appends ev to t's stream at the time ev carries: the way to
// replay a recorded stream into a recorder.
func (r *Recorder) Record(t *omp.Thread, ev Event) {
	r.recordAt(t, ev.Time, ev.Type, ev.Region, ev.TaskID)
}

// Clock returns the time source the recorder was made with, which a
// runtime stamps its events from (omp.NewRuntime).
func (r *Recorder) Clock() clock.Clock { return r.clk }

// ThreadBegin implements omp.Listener: it claims the thread's TraceData
// slot so that all later events from this thread reach their buffer
// without locks or map lookups.
func (r *Recorder) ThreadBegin(t *omp.Thread, now int64) {
	if t.TraceData == nil {
		t.TraceData = r.bufferFor(t.ID)
	}
	r.recordAt(t, now, EvThreadBegin, nil, 0)
}

// ThreadEnd implements omp.Listener.
func (r *Recorder) ThreadEnd(t *omp.Thread, now int64) {
	r.recordAt(t, now, EvThreadEnd, nil, 0)
	if b, ok := t.TraceData.(*buffer); ok && b.rec == r {
		t.TraceData = nil
	}
}

// Enter implements omp.Listener.
func (r *Recorder) Enter(t *omp.Thread, reg *region.Region, now int64) {
	r.recordAt(t, now, EvEnter, reg, 0)
}

// Exit implements omp.Listener.
func (r *Recorder) Exit(t *omp.Thread, reg *region.Region, now int64) {
	r.recordAt(t, now, EvExit, reg, 0)
}

// TaskCreateBegin implements omp.Listener.
func (r *Recorder) TaskCreateBegin(t *omp.Thread, reg *region.Region, now int64) {
	r.recordAt(t, now, EvTaskCreateBegin, reg, 0)
}

// TaskCreateEnd implements omp.Listener.
func (r *Recorder) TaskCreateEnd(t *omp.Thread, tk *omp.Task, now int64) {
	r.recordAt(t, now, EvTaskCreateEnd, tk.Region, tk.ID)
}

// TaskBegin implements omp.Listener.
func (r *Recorder) TaskBegin(t *omp.Thread, tk *omp.Task, now int64) {
	r.recordAt(t, now, EvTaskBegin, tk.Region, tk.ID)
}

// TaskEnd implements omp.Listener: tk's EvTaskEnd and the EvTaskSwitch
// to resume (nil: the implicit task), both at now.
func (r *Recorder) TaskEnd(t *omp.Thread, tk, resume *omp.Task, now int64) {
	r.recordAt(t, now, EvTaskEnd, tk.Region, tk.ID)
	if resume == nil {
		r.recordAt(t, now, EvTaskSwitch, nil, 0)
		return
	}
	r.recordAt(t, now, EvTaskSwitch, resume.Region, resume.ID)
}

// Finish flushes the remaining partial chunks to the sink: the recording
// is whatever the sink wrote. Check Err (and close the sink) afterwards.
// The recorder can be reused after Finish; subsequent events start fresh
// buffers. An open recorder (NewOpenRecorder) flushes nothing: its
// blocks are their reader's to take before, and Finish lets them go.
func (r *Recorder) Finish() {
	// Snapshot the buffer map under the lock, flush outside it, so r.mu
	// is never held across sink I/O.
	r.mu.Lock()
	buffers := r.buffers
	r.buffers = make(map[int]*buffer)
	r.mu.Unlock()
	if !r.open {
		for id, b := range buffers {
			r.flush(id, b)
		}
	}
}

// NewTee lists listeners for one runtime, nil entries dropped. It is a
// forwarder kept for benchmark/probes.go, whose profile+trace probe
// wires its pair by this name; ROADMAP item 3 removes it.
func NewTee(ls ...omp.Listener) omp.Listeners {
	var out omp.Listeners
	for _, l := range ls {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}
