package otf2

import (
	"fmt"
	"io"
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
// chunk counters are filled by the index-driven path: ChunksRead out of
// ChunksTotal event chunks were actually read and decoded — the
// O(matching chunks) guarantee a seekable archive exists for. On the
// sequential fallback (v1 archive, missing or damaged index) Indexed is
// false and the counters are zero; the whole archive was scanned.
type QueryStats struct {
	Indexed     bool
	ChunksTotal int
	ChunksRead  int
}

// Scan feeds the events of an archive matching q to the consumers, a
// thread's in stream order and with absolute timestamps, on up to workers
// decode goroutines (<= 0 one per processor) and in O(workers x chunk)
// memory. It is the one way an analysis reads an archive. When r can be
// read at any offset (an *os.File, a *bytes.Reader, a Memory's Reader)
// and the archive carries a footer index, a plan selects the chunks
// whose thread and time bounds can match and only those are read —
// O(matching chunks), not O(archive) — and the consumers are told
// beforehand how many events the selected chunks of each thread hold.
// Any other input — a v1 archive, a crashed run, a plain stream — is
// read front to back, every run filtered in place. Either way no empty
// run and no thread q excludes reaches a consumer, and what the
// consumers see equals fully decoding the archive, filtering with
// q.Filter and feeding that, at every worker count.
//
// An archive cut off mid-chunk delivers its intact prefix, and Scan
// returns an error wrapping ErrTruncated: the consumers' results are
// then those of the prefix. After any other error they are of no use.
func Scan(r io.Reader, q Query, workers int, consumers ...trace.Consumer) (QueryStats, error) {
	workers = trace.Workers(workers)
	all := trace.Consumers(consumers)
	if src, ix := indexed(r); ix != nil {
		p, err := newPlan(src, ix, q, region.NewRegistry())
		if err != nil {
			return p.st, err
		}
		all.Hint(p.threadEvents())
		return p.st, p.analyze(workers, all.Consume)
	}
	all.Hint(nil)
	consume := all.Consume
	if !q.All() {
		consume = func(tid int, events []trace.Event) {
			if !q.MatchThread(tid) {
				return
			}
			if events = q.Clip(events); len(events) > 0 { // the run is the pipeline's pooled buffer
				all.Consume(tid, events)
			}
		}
	}
	return QueryStats{}, runPipeline(r, region.NewRegistry(), workers, consume)
}

// Load decodes the sub-trace of an archive matching q into memory,
// interning regions into reg. It is not a Scan with a consumer that
// appends: an indexed archive is loaded by plan.load, which makes each
// thread's slice once and decodes every chunk into its place, at every
// worker count; anything else — a v1 archive, a crashed run, a reader
// without random access — is read front to back by one goroutine, then
// filtered. The loaded trace is reflect.DeepEqual-identical to q.Filter
// of the full decode: threads without matching events are absent. An
// archive cut off mid-chunk yields its intact prefix together with an
// error wrapping ErrTruncated.
func Load(r io.Reader, reg *region.Registry, q Query, workers int) (*trace.Trace, QueryStats, error) {
	if src, ix := indexed(r); ix != nil {
		var tr *trace.Trace
		p, err := newPlan(src, ix, q, reg)
		if err == nil {
			tr, err = p.load(trace.Workers(workers))
		}
		return tr, p.st, err
	}
	tr, err := loadSequential(r, reg)
	if tr != nil && !q.All() {
		tr = q.Filter(tr) // the semantics every query path is defined against
	}
	return tr, QueryStats{}, err
}

// source is an archive that several goroutines can read at any offset:
// an *os.File, a *bytes.Reader.
type source interface {
	io.ReadSeeker
	io.ReaderAt
}

// indexed returns r as a source together with its footer index, when r
// is one and the index is readable. Otherwise — a v1 archive, a crashed
// run, a damaged trailer, a plain stream — the index is nil, r is back
// at its start, and the caller reads it front to back: the one fallback
// of every reading function, decided by the input and by no option.
func indexed(r io.Reader) (source, *Index) {
	src, ok := r.(source)
	if !ok {
		return nil, nil
	}
	if ix, err := ReadIndex(src); err == nil {
		return src, ix
	}
	// A source that cannot rewind (a pipe behind an *os.File) could not
	// seek to its trailer either: ReadIndex read nothing.
	_, _ = src.Seek(0, io.SeekStart)
	return nil, nil
}

// plannedChunk is one selected event chunk: what the index says about
// it, what its own framing says, and — once scanned — what came out.
type plannedChunk struct {
	tid int
	pos int // position among the thread's chunks in the index
	seq int // position among the thread's selected chunks
	ref ChunkRef
	chunkHead

	dst []trace.Event // load: the window of the thread's slice its events go to
	end int64         // the thread's timestamp after its last event
}

// chunkHead is a chunk's framing: its kind, and where its payload lies.
type chunkHead struct {
	kind byte
	body int64
	size int
}

// plan is a query over an indexed archive, ready to run: definitions
// loaded, chunks selected in ascending offset order, and every selected
// chunk's framing read and held against the index. An index is input:
// nothing it claims is believed beyond what the chunk it points at can
// hold, so whatever is sized from a plan (thread slices, collector
// hints) is bounded by the archive's content, not by a hostile count.
type plan struct {
	src     source
	ix      *Index
	q       Query
	st      QueryStats
	regions []*region.Region
	sel     []plannedChunk
	hdr     [2*10 + 2]byte // headAt's scratch: kind, length, method, raw length

	// The largest stored and inflated payloads selected: a scan worker
	// makes its two chunk buffers once, at these sizes.
	maxStored, maxRaw int
}

// maxInflate bounds the raw length a compressed chunk may declare per
// stored byte: DEFLATE cannot expand further (a 258-byte match costs at
// least two bits).
const maxInflate = 1032

func newPlan(src source, ix *Index, q Query, reg *region.Registry) (*plan, error) {
	p := &plan{src: src, ix: ix, q: q, st: QueryStats{Indexed: true, ChunksTotal: ix.NumChunks()}}
	tables := newDefTables()
	defEnds := make([]int64, len(ix.DefOffsets))
	var buf []byte
	for i, off := range ix.DefOffsets {
		h, _, err := p.headAt(off)
		if err == nil && h.kind != chunkDefs {
			err = corrupt("index lists definition chunk at %d, found %q", off, h.kind)
		}
		if err == nil {
			buf, err = p.readBody(h, buf)
		}
		if err == nil {
			err = tables.decodeDefs(&cursor{payload: buf}, reg)
		}
		if err != nil {
			return p, err
		}
		defEnds[i] = h.body + int64(h.size)
	}
	p.regions = tables.regions

	if !q.Windowed {
		p.sel = make([]plannedChunk, 0, p.st.ChunksTotal)
	}
	for ti := range ix.Threads {
		tc := &ix.Threads[ti]
		if q.Empty() || !q.MatchThread(tc.Thread) {
			continue
		}
		seq := 0
		for pos, cr := range tc.Chunks {
			if q.Overlaps(cr.MinTime, cr.MaxTime) {
				p.sel = append(p.sel, plannedChunk{tid: tc.Thread, pos: pos, seq: seq, ref: cr})
				seq++
			}
		}
	}
	sort.Slice(p.sel, func(i, j int) bool { return p.sel[i].ref.Offset < p.sel[j].ref.Offset })
	p.st.ChunksRead = len(p.sel)
	end := int64(0)
	for i := range p.sel {
		pc := &p.sel[i]
		if pc.ref.Offset < end {
			// One chunk listed twice (under two threads, say) would be
			// sized for twice.
			return p, corrupt("index lists overlapping chunks at %d", pc.ref.Offset)
		}
		if err := p.checkHead(pc); err != nil {
			return p, err
		}
		end = pc.body + int64(pc.size)
	}
	if len(p.sel) == p.st.ChunksTotal {
		return p, p.checkComplete(defEnds)
	}
	return p, nil
}

// headAt reads the framing of the chunk at off. The cursor it returns
// stands at the first payload byte within the few bytes read.
func (p *plan) headAt(off int64) (chunkHead, cursor, error) {
	n, err := p.src.ReadAt(p.hdr[:], off)
	if n == 0 || (err != nil && err != io.EOF) {
		return chunkHead{}, cursor{}, fmt.Errorf("otf2: reading chunk at %d: %w", off, err)
	}
	c := cursor{payload: p.hdr[:n], pos: 1}
	size, err := c.uvarint("chunk length")
	if err != nil {
		return chunkHead{}, c, err
	}
	if size > maxChunkLen {
		return chunkHead{}, c, corrupt("chunk length %d exceeds limit", size)
	}
	h := chunkHead{kind: p.hdr[0], body: off + int64(c.pos), size: int(size)}
	if h.body+int64(size) > p.ix.end {
		return h, c, corrupt("chunk at %d runs into the index", off)
	}
	return h, c, nil
}

// readBody reads the payload of a chunk headAt accepted into buf, grown
// as needed. It is safe for concurrent use.
func (p *plan) readBody(h chunkHead, buf []byte) ([]byte, error) {
	if cap(buf) < h.size {
		buf = make([]byte, h.size)
	}
	buf = buf[:h.size]
	// The payload lies inside the file (headAt checked), so a short read
	// is an I/O failure, not a crashed run's truncation.
	if n, err := p.src.ReadAt(buf, h.body); n < len(buf) {
		return buf, fmt.Errorf("otf2: reading chunk payload at %d: %w", h.body, err)
	}
	return buf, nil
}

// checkHead reads the framing of a selected chunk and holds the index's
// event count against it: an event record takes minEventBytes at least.
func (p *plan) checkHead(pc *plannedChunk) error {
	h, c, err := p.headAt(pc.ref.Offset)
	if err != nil {
		return err
	}
	raw := uint64(h.size)
	switch h.kind {
	case chunkEvents:
	case chunkCompressed:
		if c.pos++; c.pos >= len(c.payload) { // past the method byte, which inflateChunk checks
			return corrupt("compressed chunk of %d bytes", h.size)
		}
		if raw, err = c.uvarint("compressed raw length"); err != nil {
			return err
		}
		if raw > maxChunkLen || raw > maxInflate*uint64(h.size) {
			return corrupt("compressed chunk at %d declares %d raw bytes for %d stored", pc.ref.Offset, raw, h.size)
		}
	default:
		return corrupt("index lists event chunk at %d, found %q", pc.ref.Offset, h.kind)
	}
	if pc.ref.Events > raw/minEventBytes {
		return corrupt("index lists %d events in the %d-byte chunk at %d", pc.ref.Events, raw, pc.ref.Offset)
	}
	pc.chunkHead = h
	p.maxStored = max(p.maxStored, h.size)
	if h.kind == chunkCompressed {
		p.maxRaw = max(p.maxRaw, int(raw))
	}
	return nil
}

// checkComplete holds a plan that selected every indexed chunk against
// the archive's framing: walking from the header to the index, each
// definition or event chunk must be the next one the index lists. An
// index that leaves a chunk out — the one lie no chunk-by-chunk check
// sees — fails here; chunks of other kinds (flight accounting, future
// ones) are stepped over, as every reader does.
func (p *plan) checkComplete(defEnds []int64) error {
	off, di, ci := int64(len(magic))+1, 0, 0
	for off < p.ix.end {
		switch {
		case di < len(defEnds) && p.ix.DefOffsets[di] == off:
			off, di = defEnds[di], di+1
		case ci < len(p.sel) && p.sel[ci].ref.Offset == off:
			off, ci = p.sel[ci].body+int64(p.sel[ci].size), ci+1
		default:
			h, _, err := p.headAt(off)
			if err != nil {
				return err
			}
			if h.kind == chunkDefs || h.kind == chunkEvents || h.kind == chunkCompressed {
				return corrupt("index omits the %q chunk at %d", h.kind, off)
			}
			off = h.body + int64(h.size)
		}
	}
	if di < len(defEnds) || ci < len(p.sel) {
		return corrupt("index lists a chunk that is none of the archive's")
	}
	return nil
}

// threadEvents returns how many events the selected chunks of each
// thread hold (before any clipping to the query window): a load's slice
// lengths, a scan's hint to its consumers.
func (p *plan) threadEvents() map[int]int {
	events := make(map[int]int, len(p.ix.Threads))
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
// chunk that has one is returned. After a clean scan the index's base
// times are held against the decoded streams: each chunk must start
// where its thread's previous one ended.
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
	prev := make(map[int]*plannedChunk, len(p.ix.Threads))
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

// analyze runs the plan for an analysis: chunks decode with absolute
// timestamps (from their indexed BaseTime) into pooled run buffers, and
// per-thread shards hand the clipped runs to consume in archive order,
// one run per thread at a time. consume must not retain a run. Decoded
// runs waiting for their turn are bounded by the in-flight window.
func (p *plan) analyze(workers int, consume func(int, []trace.Event)) error {
	shards := make(map[int]*shard, len(p.ix.Threads))
	for i := range p.sel {
		if tid := p.sel[i].tid; shards[tid] == nil {
			shards[tid] = &shard{tid: tid, absolute: true}
		}
	}
	// As in runPipeline: 4 decoded chunks per worker may wait for an
	// earlier chunk of their thread.
	inflight := make(chan struct{}, 4*workers)
	release := func() { <-inflight }
	return p.scan(workers, inflight, func(pc *plannedChunk, c cursor) (err error) {
		events := newRunBuf(int(pc.ref.Events))
		if pc.end, err = decodeEvents(&c, p.regions, pc.ref.BaseTime, events); err != nil {
			putRunBuf(events)
			return err
		}
		shards[pc.tid].deliver(pc.seq, &decodedRun{events: p.clip(pc, events)}, consume, release)
		return nil
	})
}

// load runs the plan for a load. Each thread's event slice is made
// once, at the length its selected chunks add up to (the index's counts,
// which newPlan held against the chunks), and every chunk decodes
// straight into its own window of it from its indexed BaseTime: no
// per-chunk slice, no append, no ordering between workers. A windowed
// load sizes by the selected chunks, clips the few that straddle the
// window in place, and closes the gaps that leaves.
func (p *plan) load(workers int) (*trace.Trace, error) {
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	for tid, n := range p.threadEvents() {
		if n > 0 { // as in loadSequential, a thread without events is absent
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
		pc.end, err = decodeEvents(&c, p.regions, pc.ref.BaseTime, pc.dst)
		pc.dst = p.clip(pc, pc.dst)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !p.q.Windowed {
		return tr, nil // nothing was clipped
	}
	clear(filled)
	for i := range p.sel {
		pc := &p.sel[i]
		filled[pc.tid] += copy(tr.Threads[pc.tid][filled[pc.tid]:], pc.dst)
	}
	for tid, n := range filled {
		if tr.Threads[tid] = tr.Threads[tid][:n]; n == 0 {
			delete(tr.Threads, tid)
		}
	}
	return tr, nil
}
