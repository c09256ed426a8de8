package otf2

import (
	"bufio"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/region"
	"repro/internal/trace"
)

// This file implements parallel out-of-core analysis: chunks decode on
// a bounded worker pool, while per-thread shards re-serialize each
// thread's chunks in archive order — the structure of Scalasca's
// parallel trace analysis, where one analysis process owns each trace
// location. Decoding (the varint-heavy part) runs fully parallel across
// chunks of all threads; only the consume step (feeding an analyzer's
// per-thread shard) is serialized per thread, so analysis scales with
// min(worker count, chunk parallelism), not with the archive's thread
// count alone. An archive with a footer index is scanned by plan
// (query.go), its workers reading their own chunks; runPipeline here is
// the fallback for one without, where only a sequential frame scanner
// can find the chunks.

// chunkJob is one event chunk handed to the worker pool.
type chunkJob struct {
	sh      *shard
	seq     int // per-thread chunk sequence number
	idx     int // global chunk index, for earliest-error selection
	payload []byte
	pos     int // payload offset past the thread/count head
	count   uint64
	regions []*region.Region // immutable snapshot at scan time
}

// decodedRun is one chunk's events with chunk-relative timestamps;
// total is the sum of the chunk's time deltas, i.e. the running-time
// advance the chunk contributes to its thread.
type decodedRun struct {
	events []trace.Event
	total  int64
}

// runPool recycles the decoded event slices of analysis runs, which no
// consumer retains. Reuse matters beyond allocator pressure: a fresh
// chunk-sized []trace.Event must be zeroed at allocation (it holds
// pointers), which costs more than the decode itself on large chunks.
var runPool sync.Pool

// newRunBuf returns a run buffer of length n with stale contents.
func newRunBuf(n int) []trace.Event {
	if v := runPool.Get(); v != nil {
		if b := v.([]trace.Event); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]trace.Event, n)
}

func putRunBuf(b []trace.Event) {
	if cap(b) > 0 {
		runPool.Put(b[:0]) //nolint:staticcheck // slice header boxing is amortized per chunk
	}
}

// shard serializes one trace thread's chunks. Workers decode chunks of
// any thread concurrently; deliver applies decoded runs strictly in
// per-thread sequence order, rebasing the chunk-relative timestamps
// onto the thread's running clock. Whichever worker completes the
// in-order chunk drains any runs parked by faster siblings, so no
// dedicated per-thread goroutine exists.
type shard struct {
	tid     int
	scanSeq int // next sequence number to assign (scanner only)

	// absolute marks runs decoded with absolute timestamps already (the
	// planned scan, which primes each chunk from its indexed BaseTime):
	// deliver then applies them without rebasing, and `last` is unused.
	absolute bool

	mu      sync.Mutex
	next    int
	pending map[int]*decodedRun
	last    int64 // running absolute timestamp; owned by the in-order worker
}

// deliver hands a decoded run to the shard. consume is invoked with
// absolute-time events, per-thread serially and in archive order, and
// never with an empty run; the run's buffer then goes back to runPool.
// release returns one in-flight-budget token per applied run.
func (sh *shard) deliver(seq int, run *decodedRun, consume func(int, []trace.Event), release func()) {
	sh.mu.Lock()
	if seq != sh.next {
		if sh.pending == nil {
			sh.pending = make(map[int]*decodedRun)
		}
		sh.pending[seq] = run
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	// This goroutine owns the shard state until it fails to find the
	// successor run: only the holder of seq == next can reach here.
	for {
		evs := run.events
		if !sh.absolute {
			base := sh.last
			for i := range evs {
				evs[i].Time += base
			}
			sh.last = base + run.total
		}
		if len(evs) > 0 {
			consume(sh.tid, evs)
		}
		putRunBuf(evs)
		release()
		sh.mu.Lock()
		sh.next++
		nxt, ok := sh.pending[sh.next]
		if !ok {
			sh.mu.Unlock()
			return
		}
		delete(sh.pending, sh.next)
		sh.mu.Unlock()
		run = nxt
	}
}

// decodeRun decodes one chunk's events with chunk-relative timestamps.
func decodeRun(j *chunkJob) (*decodedRun, error) {
	c := cursor{payload: j.payload, pos: j.pos}
	// Clamp the declared count by what the payload could hold before
	// taking a buffer, like Reader.chunkRemaining: decoding one event more
	// than fits fails.
	n := min(j.count, uint64(len(j.payload)-j.pos)/minEventBytes+1)
	events := newRunBuf(int(n))
	total, err := decodeEvents(&c, j.regions, 0, events)
	if err != nil {
		putRunBuf(events)
		return nil, err
	}
	return &decodedRun{events: events, total: total}, nil
}

// errAt orders pipeline errors by archive position, so the parallel
// path reports the same (earliest) failure a sequential read would.
type errAt struct {
	idx int
	err error
}

type errLatch struct {
	p    atomic.Pointer[errAt]
	done chan struct{} // closed on first latch; unblocks the scanner
	once sync.Once
}

func (l *errLatch) latch(idx int, err error) {
	for {
		cur := l.p.Load()
		if cur != nil && cur.idx <= idx {
			return
		}
		if l.p.CompareAndSwap(cur, &errAt{idx: idx, err: err}) {
			l.once.Do(func() { close(l.done) })
			return
		}
	}
}

func (l *errLatch) get() error {
	if e := l.p.Load(); e != nil {
		return e.err
	}
	return nil
}

// runPipeline scans an archive front to back and feeds every event, in
// per-thread order and with absolute timestamps, to consume — using
// workers decode goroutines. consume is called with at most one run per
// thread at a time and must not retain it. In-flight decoded chunks are
// bounded, so memory stays O(workers x chunk) regardless of archive
// size.
func runPipeline(r io.Reader, reg *region.Registry, workers int, consume func(int, []trace.Event)) error {
	br := bufio.NewReader(r)
	if _, err := readHeader(br); err != nil {
		return err
	}

	lat := &errLatch{done: make(chan struct{})}
	jobs := make(chan *chunkJob, workers)
	// inflight bounds decoded-but-unapplied chunks: the scanner acquires
	// a token per dispatched chunk, the owning shard releases it when
	// the run is applied. Dispatch order is archive order, so the
	// in-order run of every shard is always inside the window and the
	// window always drains.
	inflight := make(chan struct{}, 4*workers)
	release := func() { <-inflight }

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if lat.p.Load() != nil {
					putChunkBuf(j.payload)
					release()
					continue
				}
				run, err := decodeRun(j)
				putChunkBuf(j.payload)
				if err != nil {
					lat.latch(j.idx, err)
					release()
					continue
				}
				j.sh.deliver(j.seq, run, consume, release)
			}
		}()
	}

	tables := newDefTables()
	shards := make(map[int]*shard)
	snapshotHeld := false // a dispatched job holds tables.regions
	var scanErr error
	idx := 0
scan:
	for lat.p.Load() == nil {
		kind, payload, err := readChunkInto(br, newChunkBuf(0))
		if err == io.EOF {
			putChunkBuf(payload)
			break
		}
		if err != nil {
			putChunkBuf(payload)
			scanErr = err
			break
		}
		idx++
		if kind == chunkCompressed {
			// The thread/count head lives inside the compressed stream,
			// and the scanner needs the thread ID to sequence the chunk
			// onto its shard — so the sequential scan inflates inline.
			// (The indexed query planner knows the thread without
			// decompressing and parallelizes inflation across workers.)
			raw, err := inflateChunk(newChunkBuf(0), payload)
			putChunkBuf(payload)
			if err != nil {
				putChunkBuf(raw)
				scanErr = err
				break
			}
			kind, payload = chunkEvents, raw
		}
		switch kind {
		case chunkDefs:
			// Copy-on-write, but only when a dispatched job actually
			// holds the current table — runs of back-to-back 'D' chunks
			// mutate one clone instead of copying the table per chunk.
			if snapshotHeld {
				tables.regions = slices.Clone(tables.regions)
				snapshotHeld = false
			}
			c := cursor{payload: payload}
			err := tables.decodeDefs(&c, reg)
			putChunkBuf(payload)
			if err != nil {
				scanErr = err
				break scan
			}
		case chunkEvents:
			c := cursor{payload: payload}
			tid, err := c.varint("event chunk thread")
			if err == nil {
				var count uint64
				if count, err = c.uvarint("event chunk count"); err == nil && count == 0 {
					putChunkBuf(payload)
					continue
				}
				if err == nil {
					sh := shards[int(tid)]
					if sh == nil {
						sh = &shard{tid: int(tid)}
						shards[int(tid)] = sh
					}
					job := &chunkJob{
						sh: sh, seq: sh.scanSeq, idx: idx,
						payload: payload, pos: c.pos, count: count,
						regions: tables.regions,
					}
					sh.scanSeq++
					select {
					case inflight <- struct{}{}:
					case <-lat.done:
						// A worker failed; stop scanning rather than
						// wait on a window that may never drain.
						putChunkBuf(payload)
						break scan
					}
					jobs <- job
					snapshotHeld = true
					continue
				}
			}
			putChunkBuf(payload)
			scanErr = err
			break scan
		default:
			putChunkBuf(payload) // unknown chunk kind: skip
		}
	}
	close(jobs)
	wg.Wait()

	// A decode error earlier in the archive outranks a later scan
	// error, matching what a sequential read would have hit first.
	if werr := lat.get(); werr != nil && (scanErr == nil || lat.p.Load().idx <= idx) {
		return werr
	}
	return scanErr
}
