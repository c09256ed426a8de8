package otf2

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/region"
	"repro/internal/trace"
)

// This file keeps the sequential reader the package once read every
// archive without an index with, as the reference the planned reads are
// held to: it walks the archive front to back through one buffered
// stream, one chunk in memory, the definitions updated in place as they
// come, each thread's clock run on from chunk to chunk. It decodes
// records with its own loop (nextPacked), field by field through
// encoding/binary, so the planned reads' inline loop is held to a second
// implementation.

// reader iterates an archive event by event. It holds one chunk plus
// the definition tables in memory, so arbitrarily large archives can be
// analyzed out of core. Regions referenced by events are interned into
// the registry passed to newReader, giving read events the same
// pointer-identity semantics as live-recorded ones.
type reader struct {
	br     *bufio.Reader
	reg    *region.Registry
	tables *defTables

	// Current event chunk being drained. curLast caches the current
	// thread's running timestamp so the decode hot loop touches no
	// maps; it is persisted to lastTime when the next event chunk
	// begins.
	cur       cursor
	curThread int
	remaining uint64
	curLast   int64
	curTask   uint64 // the last task ID a record of the chunk gave
	inEvents  bool

	// rdbuf is the persistent framed-chunk read buffer; inflbuf is the
	// persistent decompression target for 'C' chunks. The cursor points
	// into one of the two.
	rdbuf   []byte
	inflbuf []byte

	lastTime map[int]int64
	err      error

	// flight holds the archive's flight-recorder accounting once its
	// 'F' chunk has been walked past (the writer places it directly
	// after the header, so it is available before the first event).
	flight *FlightInfo
}

// newReader opens an archive, validating the header.
func newReader(r io.Reader, reg *region.Registry) (*reader, error) {
	br := bufio.NewReader(r)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, cutOrIOErr("reading header", err)
	}
	if err := readHeaderAt(bytes.NewReader(hdr[:])); err != nil {
		return nil, err
	}
	return &reader{
		br:       br,
		reg:      reg,
		tables:   newDefTables(),
		lastTime: make(map[int]int64),
	}, nil
}

// fail latches and returns err.
func (r *reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// Next returns the next event and the thread it belongs to. At the end
// of the archive it returns io.EOF; on an archive cut off mid-chunk it
// returns an error wrapping ErrTruncated (all previously returned
// events belong to the intact prefix). After any error Next keeps
// returning the same error.
func (r *reader) Next() (int, trace.Event, error) {
	if r.err != nil {
		return 0, trace.Event{}, r.err
	}
	for r.remaining == 0 {
		if err := r.nextChunk(); err != nil {
			return 0, trace.Event{}, r.fail(err)
		}
	}
	ev, err := r.nextPacked()
	if err != nil {
		return 0, trace.Event{}, r.fail(err)
	}
	r.remaining--
	return r.curThread, ev, nil
}

// nextPacked decodes the record at the cursor.
func (r *reader) nextPacked() (trace.Event, error) {
	c := &r.cur
	if c.pos >= len(c.payload) {
		return trace.Event{}, corrupt("event chunk shorter than declared count")
	}
	head := c.payload[c.pos]
	c.pos++
	code := head & 0x0f
	sameTask := code >= 9 && code <= 12
	ev := trace.Event{Type: trace.EventType(code)}
	if sameTask {
		ev.Type = trace.EventType(code - 6)
	} else if ev.Type > trace.EvThreadEnd {
		return ev, corrupt("unknown event code %d", code)
	}
	ref := uint64(head >> 5)
	if ref == 7 {
		x, err := c.uvarint("event region ref")
		if err != nil {
			return ev, err
		}
		if x > uint64(len(r.tables.regions)) {
			return ev, corrupt("event references undefined region")
		}
		ref += x
	}
	if ref != 0 {
		if ref > uint64(len(r.tables.regions)) || r.tables.regions[ref-1] == nil {
			return ev, corrupt("event references undefined region %d", ref-1)
		}
		ev.Region = r.tables.regions[ref-1]
	}
	u, n := binary.Uvarint(c.payload[c.pos:])
	if n <= 0 {
		return ev, corrupt("bad uvarint in event time delta")
	}
	c.pos += n
	r.curLast += int64(u)
	ev.Time = r.curLast
	taskEvent := ev.Type >= trace.EvTaskCreateEnd && ev.Type <= trace.EvTaskSwitch
	switch {
	case sameTask:
		if head&0x10 != 0 || r.curTask == 0 {
			return ev, corrupt("same-task code with a task flag or before any task")
		}
		ev.TaskID = r.curTask
	case head&0x10 != 0:
		d, err := c.varint("event task id")
		if err != nil {
			return ev, err
		}
		if d == 0 && taskEvent {
			return ev, corrupt("task event writes a zero task delta")
		}
		r.curTask += uint64(d)
		if r.curTask == 0 {
			return ev, corrupt("event with a task decodes to task id 0")
		}
		ev.TaskID = r.curTask
	}
	return ev, nil
}

// nextChunk reads chunks until an event chunk is current or the archive
// ends. Definition chunks update the tables in place; compressed event
// chunks are inflated transparently; index and trailer chunks — like
// any unknown chunk kind — are skipped for forward compatibility.
func (r *reader) nextChunk() error {
	kind, payload, err := readChunkInto(r.br, r.rdbuf)
	r.rdbuf = payload
	r.cur.payload = payload
	r.cur.pos = 0
	if err != nil {
		return err // includes the clean io.EOF between chunks
	}
	switch kind {
	case chunkDefs:
		return r.tables.decodeDefs(&r.cur, r.reg)
	case chunkCompressed:
		raw, err := inflateChunk(r.inflbuf, payload)
		r.inflbuf = raw
		if err != nil {
			return err
		}
		r.cur.payload = raw
		r.cur.pos = 0
		return r.startEvents()
	case chunkEvents:
		return r.startEvents()
	case chunkFlight:
		// The accounting is advisory, and every other path steps over
		// the chunk: a damaged one means "none" here too (as in
		// StatFile), not an archive only this reader rejects.
		if info, err := decodeFlightInfo(payload); err == nil {
			r.flight = info
		}
		return nil
	default:
		// Index, trailer, and any future chunk kind: skip.
		return nil
	}
}

// FlightInfo returns the flight-recorder accounting of a dump archive,
// or nil when none has been read (a non-dump archive, or a walk that
// has not yet passed the 'F' chunk — dumps place it before the first
// event chunk, so any Next call surfaces it).
func (r *reader) FlightInfo() *FlightInfo { return r.flight }

// startEvents parses the thread/count head of the event payload the
// cursor points at and makes it the current chunk.
func (r *reader) startEvents() error {
	tid, err := r.cur.varint("event chunk thread")
	if err != nil {
		return err
	}
	count, err := r.cur.uvarint("event chunk count")
	if err != nil {
		return err
	}
	if r.inEvents {
		r.lastTime[r.curThread] = r.curLast
	}
	r.curThread = int(tid)
	r.remaining = count
	r.curLast = r.lastTime[r.curThread]
	r.curTask = 0
	r.inEvents = true
	return nil
}

// loadSequential loads a whole archive into memory through the reader,
// event by event on the calling goroutine, interning regions into reg:
// the reference every load is held to. On an archive cut off mid-chunk
// (a crashed run) it returns the decoded prefix together with an error
// wrapping ErrTruncated; on any other error, nil.
func loadSequential(r io.Reader, reg *region.Registry) (*trace.Trace, error) {
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	rd, err := newReader(r, reg)
	for err == nil {
		var tid int
		var ev trace.Event
		if tid, ev, err = rd.Next(); err == nil {
			tr.Threads[tid] = append(tr.Threads[tid], ev)
		}
	}
	if err == io.EOF {
		return tr, nil
	}
	if errors.Is(err, ErrTruncated) {
		return tr, err
	}
	return nil, err
}

// readChunkInto reads the next chunk's kind and payload from br,
// reusing buf's capacity. It returns io.EOF at a clean end between
// chunks.
func readChunkInto(br *bufio.Reader, buf []byte) (byte, []byte, error) {
	kind, err := br.ReadByte()
	if err == io.EOF {
		return 0, buf, io.EOF
	}
	if err != nil {
		return 0, buf, cutOrIOErr("reading chunk kind", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, buf, cutOrIOErr("reading chunk length", err)
	}
	if n > maxChunkLen {
		return 0, buf, corrupt("chunk length %d exceeds limit", n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, buf, cutOrIOErr("chunk payload", err)
	}
	return kind, buf, nil
}
