package otf2

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/region"
	"repro/internal/trace"
)

// DefaultChunkBytes is the per-thread chunk buffer threshold used by
// NewWriter. A thread's buffered events are framed and written out once
// their encoding reaches this size: some 5 k events of a task-parallel
// recording, the unit a window query decodes and a scan's workers share
// out.
const DefaultChunkBytes = 16 * 1024

// IsArchivePath reports whether path names a binary archive by
// extension (".otf2"); WriteFile writes anything else as a JSONL dump.
func IsArchivePath(p string) bool {
	return strings.EqualFold(filepath.Ext(p), Ext)
}

// Writer streams an event trace into an archive. It keeps one chunk
// buffer per thread plus the pending-definitions buffer in memory —
// nothing proportional to trace length. Writer is safe for concurrent
// use, so runtime threads can flush their recorder chunks into it
// directly; it implements trace.EventSink.
//
// Concurrency design: all event encoding happens outside any shared
// lock, in the calling thread's own chunk buffer. Region interning is
// an atomic-publish structure (lock-free lookups once a region is
// interned; a short-lived intern lock assigns IDs and queues definition
// records on first use). The only shared lock, iomu, is held exactly
// for the append of a fully framed chunk to the underlying io.Writer —
// so a streaming flush of thread A (even one blocked in a slow sink)
// never blocks recording or encoding on thread B. Sealed chunk buffers
// are recycled through a sync.Pool instead of being regrown.
//
// Errors from the underlying io.Writer are latched: the first error is
// returned by every subsequent call, including Close.
//
// The Writer emits format version 4: it tracks per-chunk time bounds and
// byte offsets and appends the footer index and trailer on Close, so
// readers can seek. WithCompression additionally DEFLATEs each sealed
// chunk payload (outside all shared locks).
type Writer struct {
	bw         *bufio.Writer
	chunkBytes int
	comp       Compression

	// err latches the first failure; it is an atomic pointer so every
	// path can check it without taking a lock.
	err atomic.Pointer[error]

	// iomu serializes appends to the underlying writer. It is held only
	// while a framed chunk (or the buffered header) is written out,
	// never while events are encoded.
	iomu sync.Mutex

	// defs interns regions and strings and queues their definition
	// records until the next chunk is written; defs.mu also guards
	// threadSeen, the threads in first-registration order, which makes
	// Flush deterministic.
	defs       defTable
	threadSeen []int

	threads sync.Map // int -> *threadBuf

	// Index state, guarded by iomu (it changes only while a chunk is
	// appended). off is the byte offset the next chunk will start at;
	// defOffs and chunkMeta record every written 'D' and event chunk for
	// the footer index; closed latches Close so the index and trailer
	// are appended exactly once.
	off       int64
	defOffs   []int64
	chunkMeta map[int][]ChunkRef
	closed    bool
}

// threadBuf accumulates the encoded events of one thread until they
// fill a chunk. Its mutex is per-thread — uncontended while each
// runtime thread flushes only its own ID, but it keeps the Writer
// correct for callers that share a thread ID across goroutines and for
// Flush sealing partial chunks concurrently with writes.
type threadBuf struct {
	mu sync.Mutex
	chunkEncoder
}

// chunkEncoder encodes one thread's events, in order, into the chunk it
// has open. It is the one event encoder: a Writer's thread buffers and a
// Flight's rings both encode through it, against their own defTable.
type chunkEncoder struct {
	buf      []byte
	count    uint64
	lastTime int64
	prevTask uint64 // the last task ID the open chunk wrote; 0 at its start

	// Per-chunk index metadata: base is the thread's running timestamp
	// before the open chunk's first event (the value the chunk's first
	// delta is relative to); minT/maxT bound the open chunk's absolute
	// timestamps. Reset by begin.
	base       int64
	minT, maxT int64

	// Two-entry region-ref cache: consecutive events overwhelmingly
	// reference the same one or two regions (enter/exit pairs, task
	// lifecycles), so the shared interning structure is consulted only
	// on a region change — keeping the per-event encode cost a couple
	// of pointer compares instead of a concurrent-map load.
	reg0, reg1 *region.Region
	ref0, ref1 uint64
}

// begin opens a fresh chunk in buf: the next time delta is relative to
// lastTime, the next task ID to 0, and the time bounds start at their
// sentinels (minT > maxT means "no events yet").
func (c *chunkEncoder) begin(buf []byte) {
	c.buf, c.count, c.prevTask = buf[:0], 0, 0
	c.base = c.lastTime
	c.minT = int64(^uint64(0) >> 1) // math.MaxInt64
	c.maxT = -c.minT - 1            // math.MinInt64
}

// ref returns the open chunk's index entry, but for its offset.
func (c *chunkEncoder) ref() ChunkRef {
	return ChunkRef{Events: c.count, BaseTime: c.base, MinTime: c.minT, MaxTime: c.maxT}
}

// encode appends events to the open chunk as v4 records until it holds
// limit bytes, interning their regions in defs, and returns how many it
// took. The chunk's buffer, times and task ID are in locals meanwhile
// and stored once at the end: stored per field into the encoder, a heap
// object, each append goes through the write barrier whenever a
// collection is marking.
func (c *chunkEncoder) encode(defs *defTable, events []trace.Event, limit int) int {
	buf, lastTime, prevTask, minT, maxT := c.buf, c.lastTime, c.prevTask, c.minT, c.maxT
	n := len(events)
	for i := range events {
		ev := &events[i]
		var ref uint64
		switch r := ev.Region; r {
		case nil:
		case c.reg0:
			ref = c.ref0
		case c.reg1:
			ref = c.ref1
		default:
			ref = defs.region(r)
			c.reg1, c.ref1 = c.reg0, c.ref0
			c.reg0, c.ref0 = r, ref
		}
		head := byte(ev.Type)
		if id := ev.TaskID; id != 0 {
			if id == prevTask && ev.Type-trace.EvTaskCreateEnd <= trace.EvTaskSwitch-trace.EvTaskCreateEnd {
				head += sameTaskShift
			} else {
				head |= headTask
			}
		}
		if ref <= headRefMax {
			buf = append(buf, head|byte(ref)<<headRefShift)
		} else {
			buf = append(buf, head|headRefEscape<<headRefShift)
			buf = binary.AppendUvarint(buf, ref-headRefEscape)
		}
		buf = binary.AppendUvarint(buf, uint64(ev.Time-lastTime))
		if head&headTask != 0 {
			buf = binary.AppendVarint(buf, int64(ev.TaskID-prevTask))
			prevTask = ev.TaskID
		}
		lastTime = ev.Time
		// Chunk time bounds for the footer index: two predictable
		// compares per event, no branches taken on a monotone clock
		// beyond the max update.
		if ev.Time < minT {
			minT = ev.Time
		}
		if ev.Time > maxT {
			maxT = ev.Time
		}
		if len(buf) >= limit {
			n = i + 1
			break
		}
	}
	c.buf, c.lastTime, c.prevTask, c.minT, c.maxT = buf, lastTime, prevTask, minT, maxT
	c.count += uint64(n)
	return n
}

// timeDeltaAt returns where the time delta of the v4 record at the start
// of rec begins: after the head byte and, if the head escapes the region
// reference, the uvarint holding it.
func timeDeltaAt(rec []byte) int {
	if rec[0]>>headRefShift != headRefEscape {
		return 1
	}
	_, n := binary.Uvarint(rec[1:])
	return 1 + n
}

// chunkPool recycles sealed chunk buffers (and the reader side's
// payload buffers): a seal hands its full buffer to the io path and
// continues encoding into a pooled one, so steady-state streaming
// allocates no new chunk-sized buffers.
var chunkPool sync.Pool

// newChunkBuf returns an empty buffer with at least size capacity.
func newChunkBuf(size int) []byte {
	if v := chunkPool.Get(); v != nil {
		if b := v.([]byte); cap(b) >= size {
			return b[:0]
		}
	}
	// Headroom for the event that overshoots the seal threshold.
	return make([]byte, 0, size+64)
}

// putChunkBuf recycles b.
func putChunkBuf(b []byte) {
	if cap(b) > 0 {
		chunkPool.Put(b[:0]) //nolint:staticcheck // slice header boxing is amortized per chunk, not per event
	}
}

// WriterOption configures a Writer at construction.
type WriterOption func(*writerConfig)

type writerConfig struct {
	chunkBytes int
	comp       Compression
}

// WithChunkBytes sets the per-thread chunk buffer threshold in bytes
// (clamped to [1 KiB, 16 MiB]; the threshold trades
// archive-interleaving granularity against memory per thread). The
// upper clamp keeps every emitted chunk well under the reader's
// maxChunkLen sanity limit, so the Writer can never produce an archive
// its own Reader rejects.
func WithChunkBytes(n int) WriterOption {
	return func(c *writerConfig) { c.chunkBytes = n }
}

// WithCompression selects the block compression for sealed event
// chunks; an unknown one is an error the Writer latches.
func WithCompression(comp Compression) WriterOption {
	return func(c *writerConfig) { c.comp = comp }
}

// NewWriter starts an archive on w, writing the header and clock
// properties (nanosecond resolution, zero offset) immediately. With no
// options it emits an uncompressed archive with the default chunk size.
func NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	cfg := writerConfig{chunkBytes: DefaultChunkBytes}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.chunkBytes < 1024 {
		cfg.chunkBytes = 1024
	}
	if cfg.chunkBytes > maxChunkLen/4 {
		cfg.chunkBytes = maxChunkLen / 4
	}
	wr := &Writer{
		bw:         bufio.NewWriter(w),
		chunkBytes: cfg.chunkBytes,
		comp:       cfg.comp,
		chunkMeta:  make(map[int][]ChunkRef),
	}
	wr.defs.init(cfg.chunkBytes, wr.setErr)
	if cfg.comp != CompressionNone && cfg.comp != CompressionFlate {
		wr.setErr(fmt.Errorf("otf2: unknown compression %d", cfg.comp))
	}
	if _, err := wr.bw.WriteString(magic); err != nil {
		wr.setErr(err)
	} else if err := wr.bw.WriteByte(version4); err != nil {
		wr.setErr(err)
	}
	wr.off = int64(len(magic)) + 1
	// Clock properties: the runtime clock ticks in nanoseconds from an
	// arbitrary epoch.
	wr.defs.open = append(wr.defs.open, defClock)
	wr.defs.open = binary.AppendUvarint(wr.defs.open, 1e9)
	wr.defs.open = binary.AppendVarint(wr.defs.open, 0)
	return wr
}

// NewWriterSize is NewWriter with an explicit chunk buffer threshold —
// shorthand for NewWriter(w, WithChunkBytes(chunkBytes)).
func NewWriterSize(w io.Writer, chunkBytes int) *Writer {
	return NewWriter(w, WithChunkBytes(chunkBytes))
}

// Err returns the first latched error, or nil.
func (w *Writer) Err() error {
	if p := w.err.Load(); p != nil {
		return *p
	}
	return nil
}

// setErr latches the first non-nil error.
func (w *Writer) setErr(err error) {
	if err != nil {
		w.err.CompareAndSwap(nil, &err)
	}
}

// defTable is the definition side of an archive being written: it
// interns regions and strings, assigning the IDs event records refer to,
// and queues a definition record for each on first use. It is an
// atomic-publish structure — lookups of an interned region are
// lock-free; mu guards ID assignment, the string table and the queue.
// The queue is open, the records since the last seal, behind sealed,
// full payloads cut at record boundaries once they reach sealAt bytes:
// each at most sealAt plus one record (a string record is bounded by
// internStringLocked's length check), well under the reader's
// maxChunkLen limit, so a 'D' chunk written from one can never be an
// archive its own Reader rejects. big tells the owner, without the lock,
// that sealed payloads wait to be written.
type defTable struct {
	mu       sync.Mutex
	refs     sync.Map // *region.Region -> uint64 regionRef
	strings  map[string]uint64
	nregions uint64
	open     []byte
	sealed   [][]byte
	big      atomic.Bool
	sealAt   int
	fail     func(error) // latches a definition that cannot be encoded
}

func (d *defTable) init(sealAt int, fail func(error)) {
	d.strings, d.sealAt, d.fail = make(map[string]uint64), sealAt, fail
}

// definable reports whether a definition record can carry s.
func definable(s string) bool { return len(s) < maxChunkLen/2 }

// undefinable returns the first region of events with a string no
// definition record can carry, or nil.
func undefinable(events []trace.Event) *region.Region {
	var last *region.Region
	for i := range events {
		if r := events[i].Region; r != nil && r != last {
			if !definable(r.Name) || !definable(r.File) {
				return r
			}
			last = r
		}
	}
	return nil
}

// internStringLocked interns s, queueing a definition record on first
// use. Caller holds mu.
func (d *defTable) internStringLocked(s string) uint64 {
	id, ok := d.strings[s]
	if ok {
		return id
	}
	if !definable(s) {
		// A single definition record cannot be split across chunks, so
		// a string this long would produce a 'D' chunk the Reader
		// rejects; refuse it up front instead of writing an unreadable
		// archive.
		d.fail(fmt.Errorf("otf2: string of %d bytes exceeds the encodable limit", len(s)))
		return 0
	}
	id = uint64(len(d.strings))
	d.strings[s] = id
	d.open = append(d.open, defString)
	d.open = binary.AppendUvarint(d.open, id)
	d.open = binary.AppendUvarint(d.open, uint64(len(s)))
	d.open = append(d.open, s...)
	d.sealLocked()
	return id
}

// sealLocked moves the open records onto the sealed list once they
// reach the threshold. Caller holds mu.
func (d *defTable) sealLocked() {
	if len(d.open) >= d.sealAt {
		d.sealed = append(d.sealed, d.open)
		d.open = nil
		d.big.Store(true)
	}
}

// region returns r's event-record regionRef (regionID+1), interning it
// on first use. The fast path is a lock-free map load; the slow path
// runs once per distinct region.
func (d *defTable) region(r *region.Region) uint64 {
	if r == nil {
		return 0
	}
	if v, ok := d.refs.Load(r); ok {
		return v.(uint64)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.refs.Load(r); ok {
		return v.(uint64)
	}
	name := d.internStringLocked(r.Name)
	file := d.internStringLocked(r.File)
	id := d.nregions
	d.nregions++
	d.open = append(d.open, defRegion)
	d.open = binary.AppendUvarint(d.open, id)
	d.open = binary.AppendUvarint(d.open, name)
	d.open = binary.AppendUvarint(d.open, file)
	d.open = binary.AppendUvarint(d.open, uint64(r.Line))
	d.open = binary.AppendUvarint(d.open, uint64(r.Type))
	// Definitions accumulate independently of event chunks (many
	// distinct regions, few events); seal them like event chunks so a
	// 'D' chunk can never outgrow the reader's limit.
	d.sealLocked()
	// Publish last: by the time another thread sees the ref, the
	// definition record is queued ahead of any chunk seal.
	d.refs.Store(r, id+1)
	return id + 1
}

// take empties the queue into the caller's hands.
func (d *defTable) take() (sealed [][]byte, open []byte) {
	d.mu.Lock()
	sealed, open = d.sealed, d.open
	d.sealed, d.open = nil, nil
	d.big.Store(false)
	d.mu.Unlock()
	return sealed, open
}

// queueOn appends a copy of d's queue — every definition d has made, if
// nothing ever took from it — to dst's, so that an archive written
// through dst defines what chunks encoded against d refer to. dst must
// intern nothing itself: the IDs are d's.
func (d *defTable) queueOn(dst *defTable) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dst.mu.Lock()
	dst.sealed = append(dst.sealed, d.sealed...) // a sealed payload never changes
	dst.open = append(dst.open, d.open...)
	dst.mu.Unlock()
}

// threadBuf returns (registering on first use) thread id's chunk buffer.
func (w *Writer) threadBuf(id int) *threadBuf {
	if v, ok := w.threads.Load(id); ok {
		return v.(*threadBuf)
	}
	tb := new(threadBuf)
	tb.begin(newChunkBuf(w.chunkBytes))
	if v, loaded := w.threads.LoadOrStore(id, tb); loaded {
		putChunkBuf(tb.buf)
		return v.(*threadBuf)
	}
	w.defs.mu.Lock()
	w.threadSeen = append(w.threadSeen, id)
	w.defs.mu.Unlock()
	return tb
}

// writeChunkLocked frames one chunk whose payload is head followed by
// body (either may be empty); splitting the payload lets the seal path
// prepend the per-chunk event header without copying the chunk buffer.
// The frame and head, a few bytes, are copied into the buffered
// writer's free space, so no slice of the caller's escapes to the heap
// per chunk; a long payload goes in body. Caller holds iomu.
func (w *Writer) writeChunkLocked(kind byte, head, body []byte) {
	if w.Err() != nil {
		return
	}
	frame := append(w.bw.AvailableBuffer(), kind)
	frame = binary.AppendUvarint(frame, uint64(len(head)+len(body)))
	frame = append(frame, head...)
	if _, err := w.bw.Write(frame); err != nil {
		w.setErr(err)
		return
	}
	if len(body) > 0 {
		if _, err := w.bw.Write(body); err != nil {
			w.setErr(err)
			return
		}
	}
	w.off += int64(len(frame)) + int64(len(body))
}

// flushDefsLocked takes ownership of the pending definition records and
// writes them as a chunk. Caller holds iomu (lock order: iomu before
// defs.mu); defs.mu is taken only for the swap, so interning threads are
// never blocked on sink I/O.
// Emitting definitions early is always safe — the format only requires
// them before the first event chunk that references them, and the swap
// happens under iomu, so a definition queued before a seal can never be
// written after that seal's event chunk.
func (w *Writer) flushDefsLocked() {
	sealed, defs := w.defs.take()
	for _, p := range sealed {
		w.recordDefLocked()
		w.writeChunkLocked(chunkDefs, nil, p)
	}
	if len(defs) > 0 {
		w.recordDefLocked()
		w.writeChunkLocked(chunkDefs, nil, defs)
	}
}

// recordDefLocked records the offset of the 'D' chunk about to be
// written for the footer index. Caller holds iomu.
func (w *Writer) recordDefLocked() {
	if w.Err() == nil {
		w.defOffs = append(w.defOffs, w.off)
	}
}

// flushDefs drains oversized pending definitions outside the encode path.
func (w *Writer) flushDefs() {
	w.iomu.Lock()
	w.flushDefsLocked()
	w.iomu.Unlock()
}

// flatePool recycles flate.Writer instances across seals: constructing
// one allocates the full DEFLATE state (~hundreds of KiB), Reset reuses
// it.
var flatePool sync.Pool

// appendWriter adapts an append-grown byte slice to io.Writer for the
// flate encoder.
type appendWriter struct{ b []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// compressChunk DEFLATEs a sealed event payload (head ++ body) into a
// complete 'C' chunk payload (method byte, uvarint rawLen, DEFLATE
// stream), returned in a pooled buffer. ok is false — and no buffer is
// returned — when compression failed to shrink the payload, in which
// case the caller writes the raw 'E' chunk instead.
func compressChunk(head, body []byte) (c []byte, ok bool) {
	rawLen := len(head) + len(body)
	aw := &appendWriter{b: newChunkBuf(rawLen)}
	aw.b = append(aw.b, compMethodFlate)
	aw.b = binary.AppendUvarint(aw.b, uint64(rawLen))
	var fw *flate.Writer
	if v := flatePool.Get(); v != nil {
		fw = v.(*flate.Writer)
		fw.Reset(aw)
	} else {
		fw, _ = flate.NewWriter(aw, flate.BestSpeed)
	}
	_, werr := fw.Write(head)
	if werr == nil {
		_, werr = fw.Write(body)
	}
	cerr := fw.Close()
	flatePool.Put(fw)
	if werr != nil || cerr != nil || len(aw.b) >= rawLen {
		putChunkBuf(aw.b)
		return nil, false
	}
	return aw.b, true
}

// seal frames tb's buffered events and appends them to the archive,
// handing tb a fresh pooled buffer. Caller holds tb.mu.
func (w *Writer) seal(tid int, tb *threadBuf) {
	if tb.count == 0 {
		return
	}
	payload, ref := tb.buf, tb.ref()
	tb.begin(newChunkBuf(w.chunkBytes))
	w.writeEventChunk(tid, ref, payload)
	putChunkBuf(payload)
}

// writeEventChunk appends one thread's encoded chunk to the archive:
// payload is its event records, ref its count and times. Compression
// (if configured) runs here, outside every shared lock; iomu is held
// only for the final append of the already-framed bytes.
func (w *Writer) writeEventChunk(tid int, ref ChunkRef, payload []byte) {
	var head [2 * binary.MaxVarintLen64]byte
	n := binary.PutVarint(head[:], int64(tid))
	n += binary.PutUvarint(head[n:], ref.Events)

	kind := byte(chunkEvents)
	outHead, outBody := head[:n], payload
	var cbuf []byte
	if w.comp == CompressionFlate && w.Err() == nil {
		if c, ok := compressChunk(head[:n], payload); ok {
			kind, outHead, outBody, cbuf = chunkCompressed, nil, c, c
		}
	}

	w.iomu.Lock()
	w.flushDefsLocked()
	if w.Err() == nil {
		ref.Offset = w.off
		refs := w.chunkMeta[tid]
		if len(refs) == cap(refs) {
			// Doubled, not append's quarter: a long stream's index is
			// thousands of entries, regrown a few times instead of dozens.
			refs = slices.Grow(refs, max(len(refs), 16))
		}
		w.chunkMeta[tid] = append(refs, ref)
	}
	w.writeChunkLocked(kind, outHead, outBody)
	w.iomu.Unlock()
	if cbuf != nil {
		putChunkBuf(cbuf)
	}
}

// WriteEvents appends a batch of events of one thread, flushing full
// chunks as the per-thread buffer fills. It implements trace.EventSink,
// so it can serve as the flush target of a trace.Recorder. Encoding runs
// entirely in the thread's own buffer; concurrent batches of different
// threads never contend. A batch is refused whole: one naming a region
// the archive cannot define fails before any of it is encoded, so no
// chunk holding part of it is written.
func (w *Writer) WriteEvents(thread int, events []trace.Event) error {
	if err := w.Err(); err != nil {
		return err
	}
	if r := undefinable(events); r != nil {
		w.defs.region(r) // latches the refusal
		return w.Err()
	}
	tb := w.threadBuf(thread)
	tb.mu.Lock()
	for len(events) > 0 {
		events = events[tb.encode(&w.defs, events, w.chunkBytes):]
		if len(tb.buf) >= w.chunkBytes {
			w.seal(thread, tb)
		}
	}
	tb.mu.Unlock()
	if w.defs.big.Load() {
		w.flushDefs()
	}
	return w.Err()
}

// Flush writes out every partially filled chunk buffer (in first-seen
// thread order, for deterministic output) and flushes the underlying
// buffered writer. The Writer remains usable.
func (w *Writer) Flush() error {
	w.defs.mu.Lock()
	seen := append([]int(nil), w.threadSeen...)
	w.defs.mu.Unlock()
	for _, tid := range seen {
		v, ok := w.threads.Load(tid)
		if !ok {
			continue
		}
		tb := v.(*threadBuf)
		tb.mu.Lock()
		w.seal(tid, tb)
		tb.mu.Unlock()
	}
	w.iomu.Lock()
	// An event-less archive still declares its clock properties.
	w.flushDefsLocked()
	if w.Err() == nil {
		w.setErr(w.bw.Flush())
	}
	w.iomu.Unlock()
	return w.Err()
}

// Close flushes the archive and appends the footer index chunk and the
// fixed-size trailer (exactly once; Close is idempotent). The archive must not be written to afterwards — later
// chunks would displace the trailer from the end of the file and
// readers would plan from the chunk framing, without the index. Close
// does not close the underlying io.Writer (the Writer did not open it).
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		return err
	}
	w.iomu.Lock()
	defer w.iomu.Unlock()
	if w.closed {
		return w.Err()
	}
	w.closed = true
	// Sized once, for the longest entries (five varints, three of them
	// times), so an archive of thousands of chunks does not regrow it; a
	// larger index than a reader takes is dropped below anyway.
	size := 64 + binary.MaxVarintLen64*len(w.defOffs)
	for _, refs := range w.chunkMeta {
		size += 2*binary.MaxVarintLen64 + 5*binary.MaxVarintLen64*len(refs)
	}
	p := w.appendIndexLocked(make([]byte, 0, min(size, maxChunkLen)))
	if len(p) > maxChunkLen {
		// An index the Reader would reject (an archive of tens of
		// millions of chunks) is worse than none: leave the archive
		// sequential-only rather than unreadable.
		return w.Err()
	}
	idxOff := w.off
	w.writeChunkLocked(chunkIndex, nil, p)
	var tp [trailerPayloadLen]byte
	binary.LittleEndian.PutUint64(tp[:8], uint64(idxOff))
	copy(tp[8:], trailerMagic)
	w.writeChunkLocked(chunkTrailer, tp[:], nil)
	if w.Err() == nil {
		w.setErr(w.bw.Flush())
	}
	return w.Err()
}

// appendIndexLocked encodes the footer-index payload: the 'D' chunk
// offsets, then per thread (ascending ID) the per-chunk offset, event
// count and time bounds in archive order. Caller holds iomu.
func (w *Writer) appendIndexLocked(p []byte) []byte {
	p = binary.AppendUvarint(p, uint64(len(w.defOffs)))
	for _, off := range w.defOffs {
		p = binary.AppendUvarint(p, uint64(off))
	}
	tids := make([]int, 0, len(w.chunkMeta))
	for tid := range w.chunkMeta {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	p = binary.AppendUvarint(p, uint64(len(tids)))
	for _, tid := range tids {
		refs := w.chunkMeta[tid]
		p = binary.AppendVarint(p, int64(tid))
		p = binary.AppendUvarint(p, uint64(len(refs)))
		for _, cr := range refs {
			p = binary.AppendUvarint(p, uint64(cr.Offset))
			p = binary.AppendUvarint(p, cr.Events)
			p = binary.AppendVarint(p, cr.BaseTime)
			p = binary.AppendVarint(p, cr.MinTime)
			p = binary.AppendVarint(p, cr.MaxTime)
		}
	}
	return p
}

// Write serializes a whole in-memory trace as an archive on w, ordered
// by thread then time like WriteJSONL. Options configure the format
// (chunk size, compression) as in NewWriter.
func Write(w io.Writer, tr *trace.Trace, opts ...WriterOption) error {
	aw := NewWriter(w, opts...)
	ids := make([]int, 0, len(tr.Threads))
	for id := range tr.Threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := aw.WriteEvents(id, tr.Threads[id]); err != nil {
			return err
		}
	}
	return aw.Close()
}
