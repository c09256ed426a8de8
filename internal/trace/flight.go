package trace

import (
	"sort"

	"repro/internal/clock"
)

// NewOpenRecorder creates a streaming recorder whose unflushed blocks
// can be read while it records — the recording half of a flight
// recorder, whose sink keeps the flushed blocks and whose dumps must
// also hold the last few thousand events no block has flushed yet.
// Every thread stages into one fixed block of chunkEvents events (<= 0
// picks DefaultChunkEvents), publishes the block's length with one
// atomic store after each event, and hands the sink exactly one full
// block at a time; OpenBlocks reads what is published. Recording takes
// no lock but the thread's own seal lock, once per full block.
func NewOpenRecorder(clk clock.Clock, sink EventSink, chunkEvents int) *Recorder {
	r := NewStreamingRecorder(clk, sink, chunkEvents)
	r.open = true
	return r
}

// NewFlightRecorder creates the recording half of a flight recorder
// with nothing behind it: an open recorder that drops every full block.
// It is a forwarder kept for benchmark/probes.go, which times the
// staging a flight session runs per event (the ring's share, one encode
// per block, is the archive encoder's); ROADMAP item 3 removes it. The
// flight recorder itself is otf2.Flight.
func NewFlightRecorder(clk clock.Clock, _, chunkEvents int) *Recorder {
	return NewOpenRecorder(clk, dropSink{}, chunkEvents)
}

type dropSink struct{}

func (dropSink) WriteEvents(int, []Event) error { return nil }

// OpenBlocks calls visit once for every thread that has recorded, in
// ascending thread order, with the events of the block the thread has
// not flushed yet, oldest first. The visit runs under the thread's seal
// lock, so between two flushes of that thread: whatever the sink holds
// of the thread when visit looks continues, without gap or overlap, in
// open. The thread itself keeps recording behind the events visit sees
// and waits for the visit only if it fills its block; visit must not
// keep open, which the thread overwrites after its next flush. For a
// recorder not made by NewOpenRecorder open is always empty.
func (r *Recorder) OpenBlocks(visit func(thread int, open []Event)) {
	r.mu.Lock()
	ids := make([]int, 0, len(r.buffers))
	for id := range r.buffers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	bufs := make([]*buffer, len(ids))
	for i, id := range ids {
		bufs[i] = r.buffers[id]
	}
	r.mu.Unlock()
	for i, b := range bufs {
		b.seal.Lock()
		visit(ids[i], b.block[:b.n.Load()])
		b.seal.Unlock()
	}
}
