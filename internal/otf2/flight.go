package otf2

import (
	"encoding/binary"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/trace"
)

// FlightThreadInfo is one thread's eviction accounting in a
// flight-recorder dump: how many events and chunks that thread's ring
// discarded before the dump was taken.
type FlightThreadInfo struct {
	Thread        int
	DroppedEvents uint64
	DroppedChunks uint64
}

// FlightInfo is the decoded 'F' chunk of a flight-recorder dump: the
// ring configuration, the retained window size, and the per-thread
// dropped-event/chunk totals (ascending thread ID). It is how an
// archive states "this is the tail of a longer run, and this much of
// the front was evicted" — the accounting every reader and CLI
// surfaces so window truncation is visible, never silent.
type FlightInfo struct {
	// RingChunks and ChunkEvents state the recorder configuration: each
	// thread retained at most RingChunks sealed chunks of ChunkEvents
	// events (plus one partial chunk).
	RingChunks  int
	ChunkEvents int
	// RetainedEvents is the total event count the dump retained across
	// all threads.
	RetainedEvents int
	// DroppedEvents and DroppedChunks total the per-thread counters.
	DroppedEvents uint64
	DroppedChunks uint64
	// Threads holds the per-thread accounting, ascending by thread ID.
	Threads []FlightThreadInfo
}

// appendFlightPayload encodes info as an 'F' chunk payload.
func appendFlightPayload(p []byte, info *FlightInfo) []byte {
	p = binary.AppendUvarint(p, uint64(info.RingChunks))
	p = binary.AppendUvarint(p, uint64(info.ChunkEvents))
	p = binary.AppendUvarint(p, uint64(info.RetainedEvents))
	p = binary.AppendUvarint(p, uint64(len(info.Threads)))
	for _, ts := range info.Threads {
		p = binary.AppendVarint(p, int64(ts.Thread))
		p = binary.AppendUvarint(p, ts.DroppedEvents)
		p = binary.AppendUvarint(p, ts.DroppedChunks)
	}
	return p
}

// decodeFlightInfo parses an 'F' chunk payload.
func decodeFlightInfo(payload []byte) (*FlightInfo, error) {
	c := cursor{payload: payload}
	var err error
	field := func(what string) uint64 { // the first bad field fails them all
		v, ferr := c.uvarint(what)
		if err == nil {
			err = ferr
		}
		return v
	}
	info := &FlightInfo{
		RingChunks:     int(field("flight ring chunks")),
		ChunkEvents:    int(field("flight chunk events")),
		RetainedEvents: int(field("flight retained events")),
	}
	n := field("flight thread count")
	if err != nil {
		return nil, err
	}
	if maxFit := uint64(len(payload)-c.pos)/3 + 1; n > maxFit {
		return nil, corrupt("flight thread count %d overruns chunk", n)
	}
	info.Threads = make([]FlightThreadInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		tid, terr := c.varint("flight thread id")
		if err == nil {
			err = terr
		}
		ts := FlightThreadInfo{Thread: int(tid), DroppedEvents: field("flight dropped events"), DroppedChunks: field("flight dropped chunks")}
		if err != nil {
			return nil, err
		}
		info.Threads = append(info.Threads, ts)
		info.DroppedEvents += ts.DroppedEvents
		info.DroppedChunks += ts.DroppedChunks
	}
	return info, nil
}

// WriteFlightInfo appends info's 'F' chunk to the archive. A
// flight-recorder dump calls it first, before any event is written, so
// the accounting chunk lands directly after the header — inside the
// salvageable prefix of even a dump cut off by a full disk.
func (w *Writer) WriteFlightInfo(info *FlightInfo) error {
	if err := w.Err(); err != nil {
		return err
	}
	p := appendFlightPayload(make([]byte, 0, 16+24*len(info.Threads)), info)
	w.iomu.Lock()
	w.writeChunkLocked(chunkFlight, nil, p)
	w.iomu.Unlock()
	return w.Err()
}

// DefaultFlightRingChunks is the per-thread ring depth NewFlight uses
// when ringChunks <= 0.
const DefaultFlightRingChunks = 8

// Flight is a flight recorder: an always-on bounded recorder that keeps
// only the most recent window of each thread's event stream. Its
// Recorder stages events into per-thread blocks of chunkEvents events
// without a lock; the thread that fills a block encodes it, once, into
// one chunk — the archive's own encoding, a few bytes an event and no
// pointers — and keeps its last ringChunks chunks, a new one evicting
// the oldest into the buffer it encodes to, the evicted events and
// chunks counted. Memory is threads x (ringChunks chunks + one staging
// block) whatever the run length; steady-state recording allocates
// nothing.
//
// Dump writes the window — the retained chunks and every thread's open
// block — as a complete archive at any time, while the threads record.
// Per thread, window and accounting are taken under the thread's seal
// lock (trace.Recorder.OpenBlocks), which the thread takes only when a
// block fills: the dumped events are a gap-free suffix of what it
// recorded, and retained + dropped is exactly that count.
type Flight struct {
	rec         *trace.Recorder
	ringChunks  int
	chunkEvents int
	defs        defTable
	err         atomic.Pointer[error]

	mu    sync.Mutex
	rings map[int]*flightRing
}

// flightRing is one thread's retained chunks, oldest first. It is
// guarded by the thread's seal lock in the recorder: WriteEvents runs
// under it, and every reader goes through OpenBlocks.
type flightRing struct {
	enc           chunkEncoder
	chunks        []flightChunk
	bytes         int64
	droppedEvents uint64
	droppedChunks uint64
}

// flightChunk is one encoded block of a thread: its event records and,
// as ref, its count, base time and time bounds.
type flightChunk struct {
	thread  int
	payload []byte
	ref     ChunkRef
}

// NewFlight creates a flight recorder whose runtime reads time from
// clk, with rings of ringChunks chunks (<= 0 picks
// DefaultFlightRingChunks) of chunkEvents events (<= 0 picks
// trace.DefaultChunkEvents).
func NewFlight(clk clock.Clock, ringChunks, chunkEvents int) *Flight {
	if ringChunks <= 0 {
		ringChunks = DefaultFlightRingChunks
	}
	if chunkEvents <= 0 {
		chunkEvents = trace.DefaultChunkEvents
	}
	f := &Flight{ringChunks: ringChunks, chunkEvents: chunkEvents, rings: make(map[int]*flightRing)}
	f.defs.init(DefaultChunkBytes, func(err error) { f.err.CompareAndSwap(nil, &err) })
	f.rec = trace.NewOpenRecorder(clk, f, chunkEvents)
	return f
}

// Recorder returns the listener that records into f.
func (f *Flight) Recorder() *trace.Recorder { return f.rec }

// ring returns (making it on first use) thread's ring.
func (f *Flight) ring(thread int) *flightRing {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.rings[thread]
	if r == nil {
		r = new(flightRing)
		f.rings[thread] = r
	}
	return r
}

// WriteEvents implements trace.EventSink for f's own recorder, which
// calls it under the thread's seal lock with one full block: the block
// becomes the ring's newest chunk, encoded into the buffer of the chunk
// it evicts.
func (f *Flight) WriteEvents(thread int, events []trace.Event) error {
	r := f.ring(thread)
	c := flightChunk{thread: thread}
	if len(r.chunks) < f.ringChunks {
		c.payload = make([]byte, 0, 4*f.chunkEvents) // records take ~3.3 bytes; encode grows it if not
	} else {
		c = r.chunks[0]
		r.chunks = append(r.chunks[:0], r.chunks[1:]...)
		r.bytes -= int64(len(c.payload))
		r.droppedEvents += c.ref.Events
		r.droppedChunks++
	}
	r.enc.begin(c.payload)
	r.enc.encode(&f.defs, events, math.MaxInt)
	r.chunks = append(r.chunks, flightChunk{thread, r.enc.buf, r.enc.ref()})
	r.bytes += int64(len(r.enc.buf))
	if p := f.err.Load(); p != nil {
		return *p // and every dump from now on
	}
	return nil
}

// FlightStats is a flight recorder's live accounting: the FlightInfo a
// dump taken at that moment would carry, the encoded bytes the rings
// hold (RetainedBytes; the events of the open blocks are not encoded
// before a dump) and, as ThreadRetained[i], the retained events of
// Threads[i].
type FlightStats struct {
	FlightInfo
	RetainedBytes  int64
	ThreadRetained []int
}

// add accounts for one thread: its ring and, as OpenBlocks shows it,
// its open block of open events.
func (st *FlightStats) add(thread int, r *flightRing, open int) {
	ti, retained := FlightThreadInfo{thread, r.droppedEvents, r.droppedChunks}, open
	for _, c := range r.chunks {
		retained += int(c.ref.Events)
	}
	if retained == 0 && ti.DroppedEvents == 0 {
		return
	}
	st.RetainedBytes += r.bytes
	st.Threads, st.ThreadRetained = append(st.Threads, ti), append(st.ThreadRetained, retained)
	st.RetainedEvents += retained
	st.DroppedEvents += ti.DroppedEvents
	st.DroppedChunks += ti.DroppedChunks
}

// Stats returns f's current accounting without copying any events,
// safely while threads record.
func (f *Flight) Stats() FlightStats {
	st := FlightStats{FlightInfo: FlightInfo{RingChunks: f.ringChunks, ChunkEvents: f.chunkEvents}}
	f.rec.OpenBlocks(func(thread int, open []trace.Event) {
		st.add(thread, f.ring(thread), len(open))
	})
	return st
}

// Dump writes the window as a complete archive on w — the 'F'
// accounting chunk first, then the definitions, then thread by thread
// the retained chunks and the open block, then the footer index and
// trailer — and returns the accounting it wrote, which matches the
// events exactly. opts are the Writer's; compression happens here,
// never on a recording thread.
//
// Under a thread's seal lock a dump only copies the thread's chunks and
// encodes its open block (as one last, partial chunk); w is written to
// after. A ring starts mid-stream, its oldest chunk's first time delta
// relative to a chunk that is gone, so the copy re-encodes that one
// record against 0: every thread's first chunk has base time 0 and every
// later one continues the chunk before it, as in any archive.
func (f *Flight) Dump(w io.Writer, opts ...WriterOption) (*FlightInfo, error) {
	var chunks []flightChunk
	st := FlightStats{FlightInfo: FlightInfo{RingChunks: f.ringChunks, ChunkEvents: f.chunkEvents}}
	f.rec.OpenBlocks(func(thread int, open []trace.Event) {
		r := f.ring(thread)
		st.add(thread, r, len(open))
		buf := make([]byte, 0, int(r.bytes)+binary.MaxVarintLen64+8*len(open))
		for i, c := range r.chunks {
			at := len(buf)
			if i == 0 {
				d := timeDeltaAt(c.payload)
				delta, n := binary.Uvarint(c.payload[d:])
				buf = append(buf, c.payload[:d]...)
				buf = binary.AppendUvarint(buf, uint64(c.ref.BaseTime)+delta)
				buf = append(buf, c.payload[d+n:]...)
				c.ref.BaseTime = 0
			} else {
				buf = append(buf, c.payload...)
			}
			c.payload = buf[at:len(buf):len(buf)]
			chunks = append(chunks, c)
		}
		if len(open) > 0 {
			last := chunkEncoder{lastTime: r.enc.lastTime} // continues the ring
			last.begin(buf[len(buf):])
			last.encode(&f.defs, open, math.MaxInt)
			chunks = append(chunks, flightChunk{thread, last.buf, last.ref()})
		}
	})

	aw := NewWriter(w, opts...)
	if p := f.err.Load(); p != nil {
		aw.setErr(*p)
	}
	aw.WriteFlightInfo(&st.FlightInfo) //nolint:errcheck // latched: Close returns it
	// After the chunks were taken: the queue defines all they refer to.
	f.defs.queueOn(&aw.defs)
	for _, c := range chunks {
		aw.writeEventChunk(c.thread, c.ref, c.payload)
	}
	return &st.FlightInfo, aw.Close()
}

// Release lets go of the rings and the recorder's staging blocks: what
// a dump taken before holds is then all that is left of the window.
func (f *Flight) Release() {
	f.mu.Lock()
	f.rings = make(map[int]*flightRing)
	f.mu.Unlock()
	f.rec.Finish()
}
