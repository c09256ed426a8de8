package otf2

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

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
// nil where an ID is undefined. A plan hands each event chunk the table
// as the definitions before the chunk left it; held is how much of the
// table such chunks share, and a definition that would change a shared
// entry copies the table first.
type defTables struct {
	strings map[uint64]string
	regions []*region.Region
	held    int

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
			if int(id) < t.held {
				t.regions, t.held = slices.Clone(t.regions), 0
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

// headInfo is what each head byte of a record says, apart from the
// region code in its top bits: the event type, and the info* flags. A
// format that differs from this one only in what its heads mean is
// another table, not another record loop; and the lookup is cheaper than
// the tests on the head it replaces.
type headInfo [256]uint16

const (
	infoType    = 0x0f  // the event type
	infoTask    = 0x10  // a task-ID delta follows
	infoSame    = 0x20  // the task ID is the chunk's last one (the same-task codes)
	infoZeroBad = 0x40  // a zero task-ID delta is corrupt (the task events)
	infoBad     = 0x100 // corrupt: an unknown code, or a same-task code with the task flag
)

// heads tabulates the heads of format version 4.
var heads = func() (t headInfo) {
	for h := range t {
		code, task := uint16(h&headTypeMask), h&headTask != 0
		info := code
		if task {
			info |= infoTask
		}
		switch {
		case code <= uint16(maxEventType):
			if task && code >= uint16(trace.EvTaskCreateEnd) && code <= uint16(trace.EvTaskSwitch) {
				info |= infoZeroBad
			}
		case code <= uint16(maxCodeV4) && !task:
			info = code - uint16(sameTaskShift) | infoSame
		default:
			info = infoBad | code
		}
		t[h] = info
	}
	return t
}()

// decodePacked consumes len(dst) event records from c into dst,
// resolving region references in regions and running the thread's
// timestamp on from last; it returns the final timestamp. Every read
// decodes through this one loop, a chunk straight into its place. The
// task IDs of a chunk's records are deltas against the last one written
// before them in the chunk, so c must be at the chunk's first record.
func decodePacked(c *cursor, regions []*region.Region, last int64, dst []trace.Event) (int64, error) {
	p, pos := c.payload, c.pos
	var task uint64
	for i := range dst {
		if pos >= len(p) {
			return last, corrupt("event chunk shorter than declared count")
		}
		head := p[pos]
		pos++
		info := heads[head]
		if info&infoBad != 0 {
			return last, corrupt("event code %d unknown or with a task flag it may not have", info&infoType)
		}
		var r *region.Region // stored once, with the rest: a pointer store is a write barrier check
		if ref := uint64(head >> headRefShift); ref != 0 {
			if ref == headRefEscape {
				var x uint64
				if pos < len(p) && p[pos] < 0x80 {
					x, pos = uint64(p[pos]), pos+1
				} else if x, pos = uvarintAt(p, pos); pos < 0 {
					return last, corrupt("bad uvarint in event region ref")
				}
				ref += min(x, maxRegions) // no wrap: past maxRegions is undefined anyway
			}
			if ref > uint64(len(regions)) || regions[ref-1] == nil {
				return last, corrupt("event references undefined region %d", ref-1)
			}
			r = regions[ref-1]
		}
		// The varints' one- and two-byte forms, most of them, decode in
		// place: a call per field is much of a decode. A time delta's
		// length is picked without a branch — a recording's deltas
		// straddle 128 ns, and a branch on the first byte mispredicts.
		var u uint64
		if pos+1 < len(p) && p[pos]&p[pos+1] < 0x80 {
			b0, b1 := uint64(p[pos]), uint64(p[pos+1])
			two := b0 >> 7
			u, pos = b0&0x7f|b1<<7&-two, pos+1+int(two)
		} else if u, pos = uvarintAt(p, pos); pos < 0 {
			return last, corrupt("bad varint in event time delta")
		}
		last += int64(u) // two's complement
		ev := &dst[i]
		ev.Time, ev.Type, ev.TaskID, ev.Region = last, trace.EventType(info&infoType), 0, r
		if info&infoTask != 0 {
			if pos < len(p) && p[pos] < 0x80 {
				u, pos = uint64(p[pos]), pos+1
			} else if pos+1 < len(p) && p[pos+1] < 0x80 {
				u, pos = uint64(p[pos]&0x7f)|uint64(p[pos+1])<<7, pos+2
			} else if u, pos = uvarintAt(p, pos); pos < 0 {
				return last, corrupt("bad varint in event task id")
			}
			if u == 0 && info&infoZeroBad != 0 {
				return last, corrupt("task event writes its chunk's last task id, which its code gives")
			}
			if task += uint64(int64(u>>1) ^ -int64(u&1)); task == 0 {
				return last, corrupt("event with a task decodes to task id 0")
			}
			ev.TaskID = task
		} else if info&infoSame != 0 {
			if task == 0 {
				return last, corrupt("same-task code before the chunk's first task")
			}
			ev.TaskID = task
		}
	}
	c.pos = pos
	return last, nil
}

// uvarintAt decodes the uvarint at p[pos:] and returns it with the
// position after it, or -1 for the position if the bytes are cut or
// overflow 64 bits, as binary.Uvarint does. Its loop is its own so that
// it inlines: a call in decodePacked's loop makes the loop spill what it
// keeps in registers.
func uvarintAt(p []byte, pos int) (uint64, int) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if pos >= len(p) {
			return 0, -1
		}
		b := p[pos]
		pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if shift == 63 && b > 1 {
				return 0, -1
			}
			return v, pos
		}
	}
	return 0, -1
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
