package otf2

import (
	"io"
	"sort"
	"sync"

	"repro/internal/trace"
)

// refFlight is the flight recorder as it was before the rings held
// encoded chunks: per thread a ring of []Event chunks behind a mutex
// taken on every event, and a snapshot that copies the window out. It is
// the reference the encoded ring is held to, event for event and count
// for count.
type refFlight struct {
	ring, chunkEvents int

	mu      sync.Mutex
	buffers map[int]*refBuffer
}

type refBuffer struct {
	mu            sync.Mutex
	events        []trace.Event
	ringv         [][]trace.Event
	head          int
	droppedEvents uint64
	droppedChunks uint64
}

func newRefFlight(ringChunks, chunkEvents int) *refFlight {
	return &refFlight{ring: ringChunks, chunkEvents: chunkEvents, buffers: make(map[int]*refBuffer)}
}

func (r *refFlight) buffer(id int) *refBuffer {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.buffers[id]
	if b == nil {
		b = new(refBuffer)
		r.buffers[id] = b
	}
	return b
}

// record appends ev to the thread's current chunk, sealing it into the
// ring when full.
func (r *refFlight) record(id int, ev trace.Event) {
	b := r.buffer(id)
	b.mu.Lock()
	if cap(b.events) == 0 {
		b.events = make([]trace.Event, 0, r.chunkEvents)
	}
	b.events = append(b.events, ev)
	if len(b.events) >= r.chunkEvents {
		b.sealLocked(r)
	}
	b.mu.Unlock()
}

// sealLocked moves the current chunk into the ring, evicting — and
// counting — the oldest once the ring is full.
func (b *refBuffer) sealLocked(r *refFlight) {
	if len(b.ringv) < r.ring {
		b.ringv = append(b.ringv, b.events)
		b.events = make([]trace.Event, 0, r.chunkEvents)
		return
	}
	old := b.ringv[b.head]
	b.ringv[b.head] = b.events
	b.head = (b.head + 1) % r.ring
	b.droppedChunks++
	b.droppedEvents += uint64(len(old))
	b.events = old[:0]
}

// snapshot copies the retained window out as a Trace, together with the
// accounting that matches it (RetainedBytes excepted, which the
// reference has no notion of).
func (r *refFlight) snapshot() (*trace.Trace, FlightStats) {
	st := FlightStats{FlightInfo: FlightInfo{RingChunks: r.ring, ChunkEvents: r.chunkEvents}}
	r.mu.Lock()
	ids := make([]int, 0, len(r.buffers))
	for id := range r.buffers {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Ints(ids)
	tr := &trace.Trace{Threads: make(map[int][]trace.Event, len(ids))}
	for _, id := range ids {
		b := r.buffer(id)
		b.mu.Lock()
		var evs []trace.Event
		for i := range b.ringv {
			evs = append(evs, b.ringv[(b.head+i)%len(b.ringv)]...)
		}
		evs = append(evs, b.events...)
		ts := FlightThreadInfo{Thread: id, DroppedEvents: b.droppedEvents, DroppedChunks: b.droppedChunks}
		b.mu.Unlock()
		if len(evs) == 0 && ts.DroppedEvents == 0 {
			continue
		}
		if len(evs) > 0 {
			tr.Threads[id] = evs
		}
		st.Threads, st.ThreadRetained = append(st.Threads, ts), append(st.ThreadRetained, len(evs))
		st.RetainedEvents += len(evs)
		st.DroppedEvents += ts.DroppedEvents
		st.DroppedChunks += ts.DroppedChunks
	}
	return tr, st
}

// WriteFlightDump serializes a window held as events as a complete
// archive on w: the 'F' accounting chunk first (none for a nil info),
// then the events ordered by thread then time, then the footer index and
// trailer — the dump as it was written before Flight.Dump, and still how
// the tests make a flight archive out of a trace of their own.
func WriteFlightDump(w io.Writer, tr *trace.Trace, info *FlightInfo, opts ...WriterOption) error {
	aw := NewWriter(w, opts...)
	if info != nil {
		if err := aw.WriteFlightInfo(info); err != nil {
			return err
		}
	}
	for _, id := range tr.ThreadIDs() {
		if err := aw.WriteEvents(id, tr.Threads[id]); err != nil {
			return err
		}
	}
	return aw.Close()
}
