package otf2

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/region"
	"repro/internal/trace"
)

// cursor walks one chunk payload.
type cursor struct {
	payload []byte
	pos     int
}

// uvarint decodes an unsigned varint from the payload.
func (c *cursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.payload[c.pos:])
	if n <= 0 {
		return 0, corrupt("bad uvarint in %s", what)
	}
	c.pos += n
	return v, nil
}

// varint decodes a zig-zag signed varint from the payload.
func (c *cursor) varint(what string) (int64, error) {
	v, n := binary.Varint(c.payload[c.pos:])
	if n <= 0 {
		return 0, corrupt("bad varint in %s", what)
	}
	c.pos += n
	return v, nil
}

// defTables holds an archive's decoded definitions: the clock
// properties, the string table, and the region table event records
// reference — dense by region ID (the writer numbers regions from 0),
// nil where an ID is undefined. The sequential Reader mutates one
// instance in place; the index-less pipeline clones the region table
// before a definition chunk changes it, so already-dispatched decode
// jobs keep an immutable snapshot.
type defTables struct {
	strings map[uint64]string
	regions []*region.Region

	clockResolution uint64
	clockOffset     int64
}

func newDefTables() *defTables {
	return &defTables{strings: make(map[uint64]string)}
}

// decodeDefs consumes a definitions payload, interning regions into reg.
func (t *defTables) decodeDefs(c *cursor, reg *region.Registry) error {
	for c.pos < len(c.payload) {
		tag := c.payload[c.pos]
		c.pos++
		switch tag {
		case defClock:
			res, err := c.uvarint("clock resolution")
			if err != nil {
				return err
			}
			off, err := c.varint("clock offset")
			if err != nil {
				return err
			}
			t.clockResolution, t.clockOffset = res, off
		case defString:
			id, err := c.uvarint("string id")
			if err != nil {
				return err
			}
			n, err := c.uvarint("string length")
			if err != nil {
				return err
			}
			if uint64(len(c.payload)-c.pos) < n {
				return corrupt("string %d overruns chunk", id)
			}
			t.strings[id] = string(c.payload[c.pos : c.pos+int(n)])
			c.pos += int(n)
		case defRegion:
			id, err := c.uvarint("region id")
			if err != nil {
				return err
			}
			nameID, err := c.uvarint("region name")
			if err != nil {
				return err
			}
			fileID, err := c.uvarint("region file")
			if err != nil {
				return err
			}
			line, err := c.uvarint("region line")
			if err != nil {
				return err
			}
			typ, err := c.uvarint("region type")
			if err != nil {
				return err
			}
			name, ok := t.strings[nameID]
			if !ok {
				return corrupt("region %d references undefined string %d", id, nameID)
			}
			file, ok := t.strings[fileID]
			if !ok {
				return corrupt("region %d references undefined string %d", id, fileID)
			}
			if typ > maxRegionType {
				return corrupt("region %d has unknown type %d", id, typ)
			}
			if id >= maxRegions {
				return corrupt("region id %d exceeds limit", id)
			}
			if grow := int(id) + 1 - len(t.regions); grow > 0 {
				t.regions = append(t.regions, make([]*region.Region, grow)...)
			}
			t.regions[id] = reg.Register(name, file, int(line), region.Type(typ))
		default:
			return corrupt("unknown definition tag %#x", tag)
		}
	}
	return nil
}

// eventFields names the three varints of an event record after its type
// byte, for decodeEvents' error messages.
var eventFields = [3]string{"varint in event time delta", "uvarint in event region ref", "uvarint in event task id"}

// decodeEvents consumes len(dst) event records from c into dst,
// resolving region references in regions and running the thread's
// timestamp on from last; it returns the final timestamp. Every reader
// decodes through this one loop: the sequential Reader an event or a
// chunk at a time, the planned loader a chunk straight into its place.
func decodeEvents(c *cursor, regions []*region.Region, last int64, dst []trace.Event) (int64, error) {
	p, pos := c.payload, c.pos
	for i := range dst {
		if pos >= len(p) {
			return last, corrupt("event chunk shorter than declared count")
		}
		typ := p[pos]
		pos++
		if typ > maxEventType {
			return last, corrupt("unknown event type %d", typ)
		}
		// The record's three varints, decoded in place: binary.Uvarint
		// does not inline, and a call per field is most of a decode.
		var f [3]uint64
		for k := range f {
			if pos < len(p) && p[pos] < 0x80 { // one byte: most region refs
				f[k] = uint64(p[pos])
				pos++
				continue
			}
			for shift := uint(0); ; shift += 7 {
				if pos >= len(p) || shift > 63 {
					return last, corrupt("bad %s", eventFields[k])
				}
				b := p[pos]
				pos++
				f[k] |= uint64(b&0x7f) << shift
				if b < 0x80 {
					if shift == 63 && b > 1 {
						return last, corrupt("bad %s", eventFields[k]) // overflows 64 bits
					}
					break
				}
			}
		}
		last += int64(f[0]>>1) ^ -int64(f[0]&1) // zig-zag, as binary.Varint
		ev := &dst[i]
		ev.Time, ev.Type, ev.TaskID, ev.Region = last, trace.EventType(typ), f[2], nil
		if ref := f[1]; ref != 0 {
			if ref > uint64(len(regions)) || regions[ref-1] == nil {
				return last, corrupt("event references undefined region %d", ref-1)
			}
			ev.Region = regions[ref-1]
		}
	}
	c.pos = pos
	return last, nil
}

// minEventBytes is the smallest encoding of one event record (type byte
// plus three one-byte varints); readers use it to clamp declared run
// lengths against the actual payload size before pre-sizing buffers.
const minEventBytes = 4

// Reader iterates an archive event by event. It holds one chunk plus
// the definition tables in memory, so arbitrarily large archives can be
// analyzed out of core. Regions referenced by events are interned into
// the registry passed to NewReader, giving read events the same
// pointer-identity semantics as live-recorded ones.
type Reader struct {
	br      *bufio.Reader
	reg     *region.Registry
	tables  *defTables
	version byte

	// Current event chunk being drained. curLast caches the current
	// thread's running timestamp so the decode hot loop touches no
	// maps; it is persisted to lastTime when the next event chunk
	// begins.
	cur       cursor
	curThread int
	remaining uint64
	curLast   int64
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

// cutOrIOErr classifies a read failure: a clean or short end of input
// is genuine truncation (salvageable, wrapped in ErrTruncated); any
// other I/O error — a failing disk, a network filesystem hiccup — is
// not a crashed-run artifact and must not be downgraded to a warning
// by callers.
func cutOrIOErr(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	}
	return fmt.Errorf("otf2: %s: %w", what, err)
}

// readHeader validates the archive header on br and returns the
// archive's format version (1 or 2).
func readHeader(br *bufio.Reader) (byte, error) {
	var hdr [len(magic) + 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, cutOrIOErr("reading header", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, corrupt("bad magic %q", hdr[:len(magic)])
	}
	v := hdr[len(magic)]
	if v != version1 && v != version2 {
		return 0, fmt.Errorf("otf2: unsupported format version %d (have %d and %d)", v, version1, version2)
	}
	return v, nil
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

// NewReader opens an archive, validating the header. Both format
// versions are accepted; FormatVersion reports which one the archive
// declares.
func NewReader(r io.Reader, reg *region.Registry) (*Reader, error) {
	br := bufio.NewReader(r)
	v, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return &Reader{
		br:       br,
		reg:      reg,
		tables:   newDefTables(),
		version:  v,
		lastTime: make(map[int]int64),
	}, nil
}

// FormatVersion returns the archive's declared format version (1 or 2).
func (r *Reader) FormatVersion() int { return int(r.version) }

// ClockResolution returns the timer ticks per second declared by the
// archive's clock-properties record (0 before one has been read; the
// writer emits it ahead of the first event chunk).
func (r *Reader) ClockResolution() uint64 { return r.tables.clockResolution }

// ClockOffset returns the declared global timestamp offset.
func (r *Reader) ClockOffset() int64 { return r.tables.clockOffset }

// fail latches and returns err.
func (r *Reader) fail(err error) error {
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
func (r *Reader) Next() (int, trace.Event, error) {
	if r.err != nil {
		return 0, trace.Event{}, r.err
	}
	for r.remaining == 0 {
		if err := r.nextChunk(); err != nil {
			return 0, trace.Event{}, r.fail(err)
		}
	}
	var ev [1]trace.Event
	if err := r.decode(ev[:]); err != nil {
		return 0, trace.Event{}, err
	}
	return r.curThread, ev[0], nil
}

// decode fills dst with the next len(dst) events of the current chunk
// (at most chunkRemaining of them).
func (r *Reader) decode(dst []trace.Event) (err error) {
	if r.curLast, err = decodeEvents(&r.cur, r.tables.regions, r.curLast, dst); err != nil {
		return r.fail(err)
	}
	r.remaining -= uint64(len(dst))
	return nil
}

// chunkRemaining reports how many events of the current chunk's run are
// still undecoded, clamped by what the payload could physically hold —
// a hostile header cannot make callers pre-size huge buffers.
func (r *Reader) chunkRemaining() int {
	rem := r.remaining
	if maxFit := uint64(len(r.cur.payload)-r.cur.pos)/minEventBytes + 1; rem > maxFit {
		rem = maxFit
	}
	return int(rem)
}

// nextChunk reads chunks until an event chunk is current or the archive
// ends. Definition chunks update the tables in place; compressed event
// chunks are inflated transparently; index and trailer chunks — like
// any unknown chunk kind — are skipped for forward compatibility.
func (r *Reader) nextChunk() error {
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
func (r *Reader) FlightInfo() *FlightInfo { return r.flight }

// startEvents parses the thread/count head of the event payload the
// cursor points at and makes it the current chunk.
func (r *Reader) startEvents() error {
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
	r.inEvents = true
	return nil
}

// loadSequential loads a whole archive into memory front to back, on the
// calling goroutine, interning regions into reg: Load's path for an
// input without a usable index, and the reference every other reader is
// held to. On an archive cut off mid-chunk (a crashed run) it returns
// the decoded prefix together with an error wrapping ErrTruncated, so
// the salvaged events remain usable; on any other error, nil.
func loadSequential(r io.Reader, reg *region.Registry) (*trace.Trace, error) {
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	rd, err := NewReader(r, reg)
	if err != nil {
		if errors.Is(err, ErrTruncated) {
			// Archive cut within the header: the prefix is empty but
			// the contract (non-nil trace alongside ErrTruncated) holds.
			return tr, err
		}
		return nil, err
	}
	for {
		for rd.remaining == 0 && err == nil {
			err = rd.nextChunk()
		}
		if err == io.EOF {
			return tr, nil
		}
		if errors.Is(err, ErrTruncated) {
			return tr, err
		}
		if err != nil {
			return nil, err
		}
		// Decode the whole chunk in place at the end of its thread's
		// slice, growing geometrically so repeated small chunks of one
		// thread stay amortized O(1) per event. A chunk that declares more
		// events than it holds fails in decode, after the clamp kept the
		// pre-sizing honest.
		evs, n := tr.Threads[rd.curThread], rd.chunkRemaining()
		if need := len(evs) + n; need > cap(evs) {
			grown := make([]trace.Event, len(evs), max(need, 2*cap(evs)))
			copy(grown, evs)
			evs = grown
		}
		if err = rd.decode(evs[len(evs) : len(evs)+n]); err != nil {
			return nil, err
		}
		tr.Threads[rd.curThread] = evs[:len(evs)+n]
	}
}
