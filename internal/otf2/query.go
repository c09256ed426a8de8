package otf2

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/region"
	"repro/internal/trace"
)

// Query selects a slice of an archive: a time window and/or a thread
// subset. It is trace.Query verbatim — every layer of the stack speaks
// the same query vocabulary.
type Query = trace.Query

// QueryStats reports how a query executed against an archive. The
// chunk counters are filled when the footer index planned the query:
// ChunksRead out of ChunksTotal event chunks were actually read and
// decoded — the O(matching chunks) guarantee a seekable archive exists
// for. An archive planned from its framing (a missing or damaged
// index) reports Indexed false and zero counters; all of it was read.
type QueryStats struct {
	Indexed     bool
	ChunksTotal int
	ChunksRead  int
}

// Scan feeds the events of an archive matching q to the consumers, a
// thread's in stream order and with absolute timestamps, on up to workers
// decode goroutines (<= 0 one per processor) and in O(workers x chunk)
// memory. It is the one way an analysis reads an archive. A plan selects
// the chunks whose thread and time bounds can match — from the footer
// index when the archive carries one, O(matching chunks) and not
// O(archive), else from the archive's own framing — and the consumers are
// told beforehand how many events the selected chunks of each thread
// hold. No empty run and no thread q excludes reaches a consumer, and
// what the consumers see equals fully decoding the archive, filtering
// with q.Filter and feeding that, at every worker count.
//
// An archive cut off mid-chunk delivers its intact prefix, and Scan
// returns an error wrapping ErrTruncated: the consumers' results are
// then those of the prefix. After any other error they are of no use.
func Scan(r io.Reader, q Query, workers int, consumers ...trace.Consumer) (QueryStats, error) {
	p, err := newPlan(r, q, region.NewRegistry())
	if err != nil {
		return p.st, err
	}
	all := trace.Consumers(consumers)
	all.Hint(p.threadEvents())
	return p.st, p.analyze(trace.Workers(workers), all.Consume)
}

// Load decodes the sub-trace of an archive matching q into memory,
// interning regions into reg. It is not a Scan with a consumer that
// appends: plan.load makes each thread's slice once and decodes every
// chunk into its place, at every worker count. The loaded trace is
// reflect.DeepEqual-identical to q.Filter of the full decode: threads
// without matching events are absent. An archive cut off mid-chunk
// yields its intact prefix together with an error wrapping ErrTruncated.
func Load(r io.Reader, reg *region.Registry, q Query, workers int) (*trace.Trace, QueryStats, error) {
	var tr *trace.Trace
	p, err := newPlan(r, q, reg)
	if err == nil {
		tr, err = p.load(trace.Workers(workers))
	}
	return tr, p.st, err
}

// source is an archive that several goroutines can read at any offset:
// an *os.File, a *bytes.Reader.
type source interface {
	io.ReadSeeker
	io.ReaderAt
}

// plannedChunk is one selected event chunk: what the index (or its own
// head) says about it, what its framing says, and — once scanned — what
// came out.
type plannedChunk struct {
	tid int
	pos int // position among the thread's chunks in the index
	seq int // position among the thread's selected chunks
	ref ChunkRef
	chunkHead

	regions []*region.Region // the region table as the definitions before the chunk left it
	dst     []trace.Event    // its events: a load's window of the thread's slice, a scan's pooled run
	end     int64            // the thread's timestamp after its last event, from ref.BaseTime
}

// chunkHead is a chunk's framing: its kind, and where its payload lies.
type chunkHead struct {
	kind byte
	body int64
	size int
}

// plan is a query over an archive, ready to run: definitions loaded,
// chunks selected in ascending offset order, and every selected chunk's
// framing read and held against what the plan was made from. An index
// is input: nothing it claims is believed beyond what the chunk it
// points at can hold, so whatever is sized from a plan (thread slices,
// collector hints) is bounded by the archive's content, not by a hostile
// count. A plan made from the framing instead (recover) has no base or
// min/max times, and indexed false says so.
type plan struct {
	src     source
	q       Query
	st      QueryStats
	indexed bool
	end     int64 // where the chunks an index lists must end: at the index
	sel     []plannedChunk
	tail    error // why recover stopped short of the end, if it did
	hdr     [frameBytes]byte

	// The largest stored and inflated payloads selected: a scan worker
	// makes its two chunk buffers once, at these sizes.
	maxStored, maxRaw int
}

// maxInflate bounds the raw length a compressed chunk may declare per
// stored byte: DEFLATE cannot expand further (a 258-byte match costs at
// least two bits).
const maxInflate = 1032

// newPlan plans q over the archive r holds: from its footer index when
// it has a readable one, from its framing (recover) when not — a crashed
// run, a damaged trailer. An r that cannot be read at any offset (a pipe)
// is copied into a Memory first. The input decides, no option does.
func newPlan(r io.Reader, q Query, reg *region.Registry) (*plan, error) {
	p := &plan{q: q}
	src, ok := r.(source)
	var size int64
	var err error
	if ok {
		size, err = src.Seek(0, io.SeekEnd)
	}
	if !ok || err != nil {
		m := new(Memory)
		if _, err := io.Copy(m, r); err != nil {
			return p, fmt.Errorf("otf2: reading archive: %w", err)
		}
		src, size = m.Reader(), m.size
	}
	p.src = src
	if ix, err := ReadIndex(src); err == nil {
		return p, p.fromIndex(ix, reg)
	}
	p.recover(size, reg)
	return p, nil
}

// selects reports whether q can match a chunk of thread tid within ref's
// time bounds.
func (p *plan) selects(tid int, ref ChunkRef) bool {
	return !p.q.Empty() && p.q.MatchThread(tid) && p.q.Overlaps(ref.MinTime, ref.MaxTime)
}

// fromIndex plans from the footer index ix.
func (p *plan) fromIndex(ix *Index, reg *region.Registry) error {
	p.indexed, p.end = true, ix.end
	p.st = QueryStats{Indexed: true, ChunksTotal: ix.NumChunks()}
	tables := newDefTables()
	defEnds := make([]int64, len(ix.DefOffsets))
	defRegions := make([][]*region.Region, len(ix.DefOffsets))
	var buf []byte
	for i, off := range ix.DefOffsets {
		f, err := p.headAt(off)
		if err == nil && f.kind != chunkDefs {
			err = corrupt("index lists definition chunk at %d, found %q", off, f.kind)
		}
		if err == nil {
			buf, err = p.readBody(f.chunkHead, buf)
		}
		if err == nil {
			err = tables.decodeDefs(&cursor{payload: buf}, reg)
		}
		if err != nil {
			return err
		}
		defEnds[i] = f.body + int64(f.size)
		defRegions[i], tables.held = tables.regions, len(tables.regions)
	}

	if !p.q.Windowed {
		p.sel = make([]plannedChunk, 0, p.st.ChunksTotal)
	}
	for ti := range ix.Threads {
		tc := &ix.Threads[ti]
		seq := 0
		for pos, cr := range tc.Chunks {
			if p.selects(tc.Thread, cr) {
				p.sel = append(p.sel, plannedChunk{tid: tc.Thread, pos: pos, seq: seq, ref: cr})
				seq++
			}
		}
	}
	sort.Slice(p.sel, func(i, j int) bool { return p.sel[i].ref.Offset < p.sel[j].ref.Offset })
	p.st.ChunksRead = len(p.sel)
	end, defs := int64(0), 0
	for i := range p.sel {
		pc := &p.sel[i]
		if pc.ref.Offset < end {
			// One chunk listed twice (under two threads, say) would be
			// sized for twice.
			return corrupt("index lists overlapping chunks at %d", pc.ref.Offset)
		}
		for defs < len(defEnds) && ix.DefOffsets[defs] < pc.ref.Offset {
			defs++
		}
		if defs > 0 {
			pc.regions = defRegions[defs-1]
		}
		f, err := p.headAt(pc.ref.Offset)
		if err == nil {
			err = p.admit(pc, f)
		}
		if err != nil {
			return err
		}
		end = pc.body + int64(pc.size)
	}
	if len(p.sel) == p.st.ChunksTotal {
		return p.checkComplete(ix, defEnds)
	}
	return nil
}

// recover plans from the archive's framing, walked from the header to
// size: definition chunks decode as they come, an event chunk's thread
// and count come from its head (a compressed chunk's from the first
// bytes it inflates to), and the chunks the query's threads select are
// admitted to the same bounds as indexed ones. Nothing says when a
// chunk's events happened, so every chunk of a selected thread is read,
// from base 0 (see analyze and load). Where the walk stops short — a
// cut, damaged framing, a bad definition or head — is the plan's tail:
// the error its scan returns unless a chunk before it fails first, so
// the plan of a crashed run is its intact prefix.
func (p *plan) recover(size int64, reg *region.Registry) {
	if p.tail = readHeaderAt(p.src); p.tail != nil {
		return
	}
	tables := newDefTables()
	seqs := make(map[int]int)
	var buf []byte
	_, p.tail = walk(p.src, int64(headerLen), size, func(f frame) (err error) {
		switch f.kind {
		case chunkDefs:
			if buf, err = p.readBody(f.chunkHead, buf); err == nil {
				err = tables.decodeDefs(&cursor{payload: buf}, reg)
			}
			return err
		case chunkEvents, chunkCompressed:
		default:
			return nil // flight accounting, index, trailer, future kinds
		}
		c := cursor{payload: f.head}
		if f.kind == chunkCompressed {
			if c.payload, err = inflateHead(p.src, f); err != nil {
				return err
			}
		}
		tid, err := c.varint("event chunk thread")
		if err != nil {
			return err
		}
		count, err := c.uvarint("event chunk count")
		if err != nil {
			return err
		}
		pc := plannedChunk{tid: int(tid), seq: seqs[int(tid)], ref: ChunkRef{Offset: f.off, Events: count, MinTime: math.MinInt64, MaxTime: math.MaxInt64}}
		if !p.selects(pc.tid, pc.ref) {
			return nil
		}
		if err := p.admit(&pc, f); err != nil {
			return err
		}
		pc.regions, tables.held = tables.regions, len(tables.regions)
		seqs[pc.tid]++
		p.sel = append(p.sel, pc)
		return nil
	})
}

// inflateHead inflates the first bytes of the compressed chunk f, as
// many as an event chunk's thread/count head can take. The decompressor
// decodes ahead of what it is asked for, up to its window (the whole
// chunk), so it is fed only the first 512 bytes of the stream, which
// almost always decode to the head; where they do not, the whole stream
// decides.
func inflateHead(src io.ReaderAt, f frame) ([]byte, error) {
	rawLen, start, err := compressedHead(f.head)
	if err != nil {
		return nil, err
	}
	head := make([]byte, min(rawLen, 2*binary.MaxVarintLen64+1))
	stream := int64(f.size - start)
	for n := min(512, stream); ; n = stream {
		err = inflate(head, bufio.NewReaderSize(io.NewSectionReader(src, f.body+int64(start), n), 512), false)
		if err == nil || n == stream {
			return head, err
		}
	}
}

// headAt reads the framing of the chunk at off, an offset the index
// lists.
func (p *plan) headAt(off int64) (frame, error) {
	f, err := readFrame(p.src, off, &p.hdr)
	if err == nil && f.body+int64(f.size) > p.end {
		err = corrupt("chunk at %d runs into the index", off)
	}
	return f, err
}

// readBody reads the payload of a chunk whose framing was accepted into
// buf, grown as needed. It is safe for concurrent use.
func (p *plan) readBody(h chunkHead, buf []byte) ([]byte, error) {
	if cap(buf) < h.size {
		buf = make([]byte, h.size)
	}
	buf = buf[:h.size]
	// The payload lies inside the file (its framing was checked), so a
	// short read is an I/O failure, not a crashed run's truncation.
	if n, err := p.src.ReadAt(buf, h.body); n < len(buf) {
		return buf, fmt.Errorf("otf2: reading chunk payload at %d: %w", h.body, err)
	}
	return buf, nil
}

// minEventBytes is the size of the smallest event record: a head byte
// and a one-byte time delta.
const minEventBytes = 2

// admit makes f the framing of the selected chunk pc after holding pc's
// event count against it: an event record takes minEventBytes at least.
func (p *plan) admit(pc *plannedChunk, f frame) error {
	raw := uint64(f.size)
	switch f.kind {
	case chunkEvents:
	case chunkCompressed:
		var err error
		if raw, _, err = compressedHead(f.head); err != nil {
			return err
		}
		if raw > maxInflate*uint64(f.size) {
			return corrupt("compressed chunk at %d declares %d raw bytes for %d stored", f.off, raw, f.size)
		}
	default:
		return corrupt("index lists event chunk at %d, found %q", f.off, f.kind)
	}
	if pc.ref.Events > raw/minEventBytes {
		return corrupt("%d events cannot fit the %d-byte chunk at %d", pc.ref.Events, raw, f.off)
	}
	pc.chunkHead = f.chunkHead
	p.maxStored = max(p.maxStored, f.size)
	if f.kind == chunkCompressed {
		p.maxRaw = max(p.maxRaw, int(raw))
	}
	return nil
}

// checkComplete holds a plan that selected every indexed chunk against
// the archive's framing: the definition and event chunks the index lists
// must follow each other from the header to the index, and what lies
// between two of them, walked, must be chunks of other kinds (flight
// accounting, future ones). An index that leaves a chunk out — the one
// lie no chunk-by-chunk check sees — fails here.
func (p *plan) checkComplete(ix *Index, defEnds []int64) error {
	off, di, ci := int64(headerLen), 0, 0
	for {
		next, nextEnd := ix.end, ix.end
		if di < len(defEnds) && (ci == len(p.sel) || ix.DefOffsets[di] < p.sel[ci].ref.Offset) {
			next, nextEnd = ix.DefOffsets[di], defEnds[di]
			di++
		} else if ci < len(p.sel) {
			next, nextEnd = p.sel[ci].ref.Offset, p.sel[ci].body+int64(p.sel[ci].size)
			ci++
		}
		reached, err := walk(p.src, off, next, func(f frame) error {
			if f.kind == chunkDefs || f.kind == chunkEvents || f.kind == chunkCompressed {
				return corrupt("index omits the %q chunk at %d", f.kind, f.off)
			}
			return nil
		})
		if errors.Is(err, ErrTruncated) || (err == nil && reached != next) {
			return corrupt("index lists a chunk at %d that is none of the archive's", next)
		}
		if err != nil || next == ix.end {
			return err
		}
		off = nextEnd
	}
}

// threadEvents returns how many events the selected chunks of each
// thread hold (before any clipping to the query window): a load's slice
// lengths, a scan's hint to its consumers.
func (p *plan) threadEvents() map[int]int {
	events := make(map[int]int)
	for i := range p.sel {
		events[p.sel[i].tid] += int(p.sel[i].ref.Events)
	}
	return events
}

// scan hands each selected chunk's event records to decode, on up to
// workers goroutines that take the chunks in offset order and read
// their own (see open) — no scanner goroutine, no shared read position.
// inflight, when not nil, is a semaphore taken before a chunk is
// claimed (claiming in offset order is what lets a bounded window
// always drain); a decode that returns nil gives the token back itself,
// when it is done with the chunk's memory. The error of the earliest
// chunk that has one is returned, and failing that the plan's tail.
// After a clean scan of an indexed plan the index's base times are held
// against the decoded streams: each chunk must start where its thread's
// previous one ended.
func (p *plan) scan(workers int, inflight chan struct{}, decode func(pc *plannedChunk, c cursor) error) error {
	lat := &errLatch{done: make(chan struct{})}
	acquire := func() bool {
		if inflight == nil {
			return true
		}
		select {
		case inflight <- struct{}{}:
			return true
		case <-lat.done: // the window may never drain after a failure
			return false
		}
	}
	release := func() {
		if inflight != nil {
			<-inflight
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, len(p.sel)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stored, raw := make([]byte, p.maxStored), make([]byte, p.maxRaw)
			for acquire() {
				i := int(next.Add(1)) - 1
				// Chunks before a failed one are still decoded: one of them
				// may hold the earlier error.
				if failed := lat.p.Load(); i >= len(p.sel) || (failed != nil && failed.idx < i) {
					release()
					return
				}
				pc := &p.sel[i]
				c, err := p.open(pc, &stored, &raw)
				if err == nil {
					err = decode(pc, c)
				}
				if err != nil {
					lat.latch(i, err)
					release()
				}
			}
		}()
	}
	wg.Wait()
	if err := lat.get(); err != nil {
		return err
	}
	if !p.indexed {
		return p.tail
	}
	prev := make(map[int]*plannedChunk)
	for i := range p.sel {
		pc := &p.sel[i]
		was, known := int64(0), pc.pos == 0
		if pv := prev[pc.tid]; pv != nil && pv.pos+1 == pc.pos {
			was, known = pv.end, true
		}
		if known && pc.ref.BaseTime != was {
			return corrupt("index gives the chunk at %d base time %d, its thread's clock stood at %d", pc.ref.Offset, pc.ref.BaseTime, was)
		}
		prev[pc.tid] = pc
	}
	return nil
}

// open reads a selected chunk into the worker's buffers, inflates it if
// compressed, and returns a cursor at its first event record — after
// requiring the thread/count head before it to say what the index said.
func (p *plan) open(pc *plannedChunk, stored, raw *[]byte) (c cursor, err error) {
	if *stored, err = p.readBody(pc.chunkHead, *stored); err != nil {
		return c, err
	}
	c.payload = *stored
	if pc.kind == chunkCompressed {
		if *raw, err = inflateChunk(*raw, *stored); err != nil {
			return c, err
		}
		c.payload = *raw
	}
	tid, err := c.varint("event chunk thread")
	if err != nil {
		return c, err
	}
	count, err := c.uvarint("event chunk count")
	if err != nil {
		return c, err
	}
	if tid != int64(pc.tid) || count != pc.ref.Events {
		return c, corrupt("index lists the chunk at %d as %d events of thread %d, the chunk holds %d of thread %d",
			pc.ref.Offset, pc.ref.Events, pc.tid, count, tid)
	}
	return c, nil
}

// clip drops the events outside the query window from a decoded chunk,
// in place. A chunk whose indexed time bounds lie inside the window —
// all but the few a window's edges cut — is returned whole, unread.
func (p *plan) clip(pc *plannedChunk, events []trace.Event) []trace.Event {
	if q := p.q; q.Windowed && (pc.ref.MinTime < q.MinTime || pc.ref.MaxTime > q.MaxTime) {
		return q.Clip(events)
	}
	return events
}

// analyze runs the plan for an analysis: chunks decode into pooled run
// buffers from their indexed BaseTime (0 without an index), and
// per-thread shards hand the runs to consume in archive order, one run
// per thread at a time — run on to the thread's clock where the plan has
// no base times, and clipped to the query window. consume must not
// retain a run. Decoded runs waiting for their turn are bounded by the
// in-flight window: 4 chunks per worker may wait for an earlier chunk of
// their thread.
func (p *plan) analyze(workers int, consume func(int, []trace.Event)) error {
	shards := make(map[int]*shard)
	for i := range p.sel {
		if tid := p.sel[i].tid; shards[tid] == nil {
			shards[tid] = &shard{}
		}
	}
	inflight := make(chan struct{}, 4*workers)
	apply := func(pc *plannedChunk) {
		evs := pc.dst
		if !p.indexed {
			sh := shards[pc.tid]
			for i := range evs {
				evs[i].Time += sh.last
			}
			sh.last += pc.end
		}
		if evs = p.clip(pc, evs); len(evs) > 0 {
			consume(pc.tid, evs)
		}
		putRunBuf(pc.dst)
		pc.dst = nil
		<-inflight
	}
	return p.scan(workers, inflight, func(pc *plannedChunk, c cursor) (err error) {
		pc.dst = newRunBuf(int(pc.ref.Events))
		if pc.end, err = decodePacked(&c, pc.regions, pc.ref.BaseTime, pc.dst); err != nil {
			putRunBuf(pc.dst)
			return err
		}
		shards[pc.tid].deliver(pc, apply)
		return nil
	})
}

// load runs the plan for a load. Each thread's event slice is made
// once, at the length its selected chunks add up to (the counts the plan
// held against the chunks), and every chunk decodes straight into its
// own window of it from its indexed BaseTime: no per-chunk slice, no
// append, no ordering between workers. Without base times every chunk
// decodes from 0, and each thread's clock is then run on through its
// chunks in archive order. A windowed load sizes by the selected chunks,
// clips the few that straddle the window in place, and closes the gaps
// that leaves.
func (p *plan) load(workers int) (*trace.Trace, error) {
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	for tid, n := range p.threadEvents() {
		if n > 0 { // as in q.Filter, a thread without events is absent
			tr.Threads[tid] = make([]trace.Event, n)
		}
	}
	filled := make(map[int]int, len(tr.Threads))
	for i := range p.sel {
		pc := &p.sel[i]
		lo := filled[pc.tid]
		filled[pc.tid] = lo + int(pc.ref.Events)
		pc.dst = tr.Threads[pc.tid][lo:filled[pc.tid]]
	}
	err := p.scan(workers, nil, func(pc *plannedChunk, c cursor) (err error) {
		pc.end, err = decodePacked(&c, pc.regions, pc.ref.BaseTime, pc.dst)
		if p.indexed {
			pc.dst = p.clip(pc, pc.dst)
		}
		return err
	})
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, err
	}
	if p.indexed && !p.q.Windowed {
		return tr, err // nothing was clipped
	}
	last := make(map[int]int64)
	clear(filled)
	for i := range p.sel {
		pc := &p.sel[i]
		if !p.indexed {
			base := last[pc.tid]
			for k := range pc.dst {
				pc.dst[k].Time += base
			}
			last[pc.tid] = base + pc.end
			pc.dst = p.clip(pc, pc.dst)
		}
		if p.q.Windowed {
			filled[pc.tid] += copy(tr.Threads[pc.tid][filled[pc.tid]:], pc.dst)
		}
	}
	if p.q.Windowed {
		for tid, n := range filled {
			if tr.Threads[tid] = tr.Threads[tid][:n]; n == 0 {
				delete(tr.Threads, tid)
			}
		}
	}
	return tr, err
}
