// Package otf2 implements a compact binary trace-archive format for the
// runtime's event traces — the OTF2-style storage layer the paper's
// tool chain (Score-P writing OTF2 archives, read by Scalasca/Vampir)
// uses for event tracing. It is the one trace file the readers take
// (ScanFile, LoadFile); JSONL is only a text dump the writers produce
// (WriteFile by extension) and nothing reads back. Delta-encoded
// timestamps, a one-byte record head and LEB128 variable-length
// integers bring the cost per event from ~100 bytes of JSON down to
// about 3.0 to 3.3 bytes, and the chunked, streaming design lets both
// recording and analysis run in bounded memory on traces far larger
// than RAM. Archives are seekable: sealed event chunks may be
// block-compressed, and a footer index plus fixed-size trailer let a
// reader open a time window or thread subset in O(matching chunks)
// instead of O(archive).
//
// # Archive layout
//
// An archive is a header followed by a sequence of self-describing
// chunks. All multi-byte integers are LEB128 varints as produced by
// encoding/binary: "uvarint" below is binary.AppendUvarint, "varint" is
// the zig-zag-encoded signed form binary.AppendVarint.
//
//	archive := header chunk*
//	header  := "SPOTF2\x00" version        // 7 magic bytes + 1 version byte (4)
//	chunk   := kind uvarint(len) payload   // kind is one byte; len = payload length in bytes
//
// The chunk kinds are:
//
//	kind 'D' — definitions
//	kind 'E' — events, raw
//	kind 'C' — events, compressed
//	kind 'I' — footer index
//	kind 'T' — trailer locating the index
//	kind 'F' — flight-recorder accounting
//
// Readers skip chunks with unknown kinds so the format can grow. The
// index and trailer are written once, by Close. A crashed or killed run
// leaves a truncated final chunk and no index; every complete chunk
// before the cut remains readable, planned from the chunk framing, and
// the reader reports the cut as ErrTruncated.
//
// The version byte is 4, the one version the writer writes and the
// readers read. Readers refuse every other version; for versions 1 to 3
// the error names commit a6f702c, whose scorep-convert reads them and
// writes version 4. The rule that keeps it so: a format bump deletes its
// predecessor's reader, fixtures and transcoder in the same change,
// unless the two formats differ only in headInfo data (reader.go), in
// which case the older one stays readable as one more table.
//
// # Definitions
//
// Definition chunks intern the static entities event records reference,
// mirroring OTF2's global definitions. A definitions payload is a
// sequence of records, each introduced by a one-byte tag:
//
//	0x01 clock  := uvarint(resolution) varint(globalOffset)
//	0x02 string := uvarint(stringID) uvarint(byteLen) bytes
//	0x03 region := uvarint(regionID) uvarint(nameStringID) uvarint(fileStringID)
//	               uvarint(line) uvarint(regionType)
//
// The clock record states the timer resolution in ticks per second
// (1e9 for this runtime's nanosecond clock) and the offset added to
// timestamps to recover the recording epoch. String and region IDs are
// dense, start at 0, and must be defined before the first event record
// that references them; the writer emits definitions incrementally, in
// a 'D' chunk immediately preceding the first 'E' chunk that needs
// them, so the readable prefix of a truncated archive is always
// self-contained. regionType is the ordinal of region.Type.
//
// # Events
//
// An event payload carries one run of events of a single thread:
//
//	events := varint(threadID) uvarint(count) event[count]
//
// An event record is a head byte, then the fields the head says are
// there:
//
//	event := head [uvarint(regionRef-7)] uvarint(uint64(timeDelta)) [varint(int64(taskID-prevTask))]
//	head  := code | taskPresent<<4 | regionCode<<5
//
// code (bits 0-3) is the ordinal of trace.EventType, 0..8, or 9..12: the
// task events 3..6 (TaskCreateEnd, TaskBegin, TaskEnd, TaskSwitch) whose
// task ID is prevTask, the last task ID written in the same chunk (0 at
// the chunk's start, so every chunk decodes on its own). regionRef is 0
// for events without a region, otherwise regionID+1; regionCode (bits
// 5-7) holds it when it is 0..6, and 7 escapes to the uvarint after the
// head. timeDelta is the difference to the previous event of the same
// thread (across chunks; the first event of a thread is a delta against
// 0), written as its two's complement, so a monotone clock's steps below
// 128 ns take one byte and a step back takes ten. taskPresent (bit 4)
// says the event has a task ID other than 0 that the code does not give,
// written as its difference to prevTask modulo 2^64. The encoding is
// canonical, so what decodes re-encodes to the same record: codes 13-15
// are corrupt, and so are a code 9-12 with taskPresent set or in a chunk
// that has written no task yet, a present task that decodes to ID 0, and
// a present zero difference on a task event 3..6.
//
// Chunks of different threads appear in flush order and carry no
// cross-thread ordering, as in any distributed trace; per-thread order
// is the record order.
//
// # Compressed events
//
// A 'C' chunk is an 'E' chunk whose payload was compressed when the
// chunk was sealed:
//
//	compressed := method uvarint(rawLen) cdata
//
// method is one byte (1 = DEFLATE, RFC 1951, as produced by
// compress/flate; 0 is reserved for "stored" and never written).
// rawLen is the byte length of the uncompressed payload — a complete
// 'E' payload including its threadID/count head — and cdata is its
// DEFLATE stream. rawLen is bounded by the chunk-length limit; readers
// reject larger declarations before allocating. The writer keeps a
// sealed chunk raw when compression does not shrink it, so 'E' and 'C'
// chunks may interleave freely within one archive.
//
// # Flight-recorder accounting
//
// An archive dumped from a flight recorder (a ring buffer retaining
// only the most recent window of the event stream) carries one 'F'
// chunk stating what the window dropped, so truncation is visible to
// every consumer:
//
//	flight := uvarint(ringChunks) uvarint(chunkEvents) uvarint(retainedEvents)
//	          uvarint(nthreads) fthread[nthreads]
//	fthread := varint(threadID) uvarint(droppedEvents) uvarint(droppedChunks)
//
// ringChunks and chunkEvents state the ring configuration (chunks per
// thread, events per chunk); retainedEvents is the total event count
// the dump retained; per thread (ascending ID) the dropped counters
// tally the events and chunks evicted from that thread's ring before
// the dump. The writer emits the 'F' chunk directly after the header,
// before any definition or event chunk, so even a dump cut off by a
// full disk keeps its accounting in the salvageable prefix.
//
// # Footer index and trailer
//
// Close appends one 'I' chunk describing every definition and event
// chunk written, then a fixed-size 'T' chunk locating it:
//
//	index    := uvarint(ndefs) uvarint(defOffset)[ndefs]
//	            uvarint(nthreads) thread[nthreads]
//	thread   := varint(threadID) uvarint(nchunks) centry[nchunks]
//	centry   := uvarint(offset) uvarint(eventCount)
//	            varint(baseTime) varint(minTime) varint(maxTime)
//	trailer  := uint64le(indexOffset) "SPIX"    // exactly 12 payload bytes
//
// All offsets are absolute byte positions of a chunk's kind byte,
// counted from the start of the archive. Threads appear in ascending
// thread-ID order; a thread's centries appear in archive order, with
// offsets strictly increasing. baseTime is the thread's running
// timestamp before the chunk's first event — its first timeDelta is
// relative to baseTime — so any event chunk can be decoded standalone
// after seeking to its offset. minTime and maxTime are the inclusive
// bounds of the chunk's absolute event timestamps, the pruning
// predicate for time-window queries. The 'T' chunk is always the last
// 14 bytes of a complete archive (1 kind byte, 1 length byte — 12
// encodes as a single-byte uvarint — and the 12-byte payload), so a
// reader locates the index by reading the final 14 bytes, verifying
// kind, length and the "SPIX" magic, and seeking to indexOffset. A
// failed trailer check means "no index" (a crashed run or trailing
// garbage) and readers plan from the chunk framing instead.
//
// # API
//
// Writer streams events into an archive with one in-memory chunk buffer
// per thread (it implements trace.EventSink, so a trace.Recorder can
// flush straight into it). The Writer encodes
// concurrently: each thread's events are encoded in that thread's own
// buffer, region interning publishes atomically, and the writer's only
// shared lock is held just for the append of a framed chunk to the
// underlying io.Writer — one thread's slow sink flush never blocks
// recording or flushing on the others; with WithCompression, chunk
// payloads are compressed outside that lock too.
//
// Reading has two entry points and their file forms. Scan feeds the
// events matching a trace.Query (time window + thread subset; the zero
// query matches everything) to any number of trace.Consumers — the trace
// analysis, the bottleneck collector — in O(workers x chunk) memory,
// without materializing the trace. Load decodes them into a trace.Trace.
// ScanFile and LoadFile open a file, pick the format by its extension
// and turn a cut archive into a warning.
//
// Every archive is planned (query.go), and only the plan's inputs
// differ: from the footer index when the archive carries one, else from
// the archive's own framing (frame.go), walked from the header to the
// first cut or damaged frame. A plan selects the chunks the query can
// match, holds what its input says against the chunks themselves, and
// workers read and decode their own chunks — Load straight into place in
// slices made once, Scan through per-thread in-order shards that deliver
// each run to the consumers (pipeline.go). An input that cannot be read
// at any offset is copied into a Memory first. The results are identical
// either way, and so is the ErrTruncated salvage contract; the input
// decides, no option does. ReadIndex locates and decodes the index in
// O(1) seeks.
package otf2

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/region"
	"repro/internal/trace"
)

// Format constants. magic is 7 bytes so the header including the
// version byte is 8 bytes total.
const (
	magic = "SPOTF2\x00"

	// version4 is the one format version this package writes and reads;
	// readHeaderAt refuses every other.
	version4 = 4

	chunkDefs       = 'D'
	chunkEvents     = 'E'
	chunkCompressed = 'C'
	chunkIndex      = 'I'
	chunkTrailer    = 'T'
	chunkFlight     = 'F'

	defClock  = 0x01
	defString = 0x02
	defRegion = 0x03

	// compressed-chunk method bytes.
	compMethodFlate = 1

	// trailerPayloadLen is the fixed 'T' payload size: an 8-byte LE
	// index offset plus the 4-byte trailerMagic. trailerLen adds the
	// kind byte and the single-byte uvarint length, making a complete
	// trailer exactly 14 bytes — the fixed suffix ReadIndex inspects.
	trailerPayloadLen = 12
	trailerLen        = trailerPayloadLen + 2
	trailerMagic      = "SPIX"

	// maxChunkLen caps the declared payload length a reader will
	// allocate, guarding against corrupt or hostile headers. It also
	// caps the declared rawLen of a compressed chunk.
	maxChunkLen = 1 << 26

	// maxRegions caps the region IDs a reader accepts. IDs index the
	// region table directly — the writer numbers regions densely from 0
	// — so an ID is also a table size.
	maxRegions = 1 << 20

	// maxEventType is the highest trace.EventType ordinal in format
	// version 4.
	maxEventType = uint8(trace.EvThreadEnd)

	// maxRegionType is the highest region.Type ordinal in format
	// version 4.
	maxRegionType = uint64(region.Parameter)

	// The record head: the code in the low nibble, the
	// task-present flag, and the region code in the top three bits —
	// regionRef itself up to headRefMax, headRefEscape when a uvarint
	// of regionRef-headRefEscape follows the head.
	headTypeMask  = 0x0f
	headTask      = 0x10
	headRefShift  = 5
	headRefMax    = 6
	headRefEscape = 7

	// The same-task codes: sameTaskShift past the task event types
	// trace.EvTaskCreateEnd to trace.EvTaskSwitch, up to maxCodeV4.
	sameTaskShift = maxEventType + 1 - uint8(trace.EvTaskCreateEnd)
	maxCodeV4     = uint8(trace.EvTaskSwitch) + sameTaskShift
)

// Ext is the file extension conventionally used for archives.
const Ext = ".otf2"

// FormatVersion is the archive format version this package writes — the
// header's version byte. Experiment metadata records it
// so offline tooling can tell which reader an archive needs.
const FormatVersion = version4

// Compression selects the block compression applied to sealed event
// chunks (the 'C' chunk kind). It trades write CPU for archive size;
// reading decompresses transparently either way.
type Compression int

const (
	// CompressionNone writes raw 'E' chunks only (the default).
	CompressionNone Compression = iota
	// CompressionFlate DEFLATE-compresses each sealed chunk payload
	// (compress/flate at BestSpeed), keeping chunks that do not shrink
	// raw.
	CompressionFlate
)

// String renders the compression the way CLI flags and meta.json spell
// it.
func (c Compression) String() string {
	switch c {
	case CompressionNone:
		return "none"
	case CompressionFlate:
		return "flate"
	}
	return fmt.Sprintf("compression(%d)", int(c))
}

// ParseCompression maps a compression name (as printed by String) back
// to its value.
func ParseCompression(s string) (Compression, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none":
		return CompressionNone, nil
	case "flate", "deflate":
		return CompressionFlate, nil
	}
	return 0, fmt.Errorf("unknown compression %q (want %q or %q)",
		s, CompressionNone, CompressionFlate)
}

// ErrTruncated marks an archive cut off mid-chunk — the typical state
// after a crashed run. Every event returned before the error belongs to
// the intact prefix and is valid.
var ErrTruncated = errors.New("otf2: archive truncated")

// ErrNoIndex reports that an archive carries no readable footer index —
// it was cut off before Close, or its trailer is damaged. Scan and Load
// still read it, planned from its framing.
var ErrNoIndex = errors.New("otf2: archive has no index")

// corrupt builds a format-violation error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("otf2: corrupt archive: "+format, args...)
}
