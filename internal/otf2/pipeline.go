package otf2

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// This file holds what a plan's scan shares between its workers: chunks
// decode on a bounded worker pool, while per-thread shards re-serialize
// each thread's chunks in archive order — the structure of Scalasca's
// parallel trace analysis, where one analysis process owns each trace
// location. Decoding (the varint-heavy part) runs fully parallel across
// chunks of all threads; only the consume step (feeding an analyzer's
// per-thread shard) is serialized per thread, so analysis scales with
// min(worker count, chunk parallelism), not with the archive's thread
// count alone.

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
// any thread concurrently; deliver applies decoded chunks strictly in
// per-thread sequence order. Whichever worker completes the in-order
// chunk drains any chunks parked by faster siblings, so no dedicated
// per-thread goroutine exists.
type shard struct {
	mu      sync.Mutex
	next    int
	pending map[int]*plannedChunk

	// last is the thread's running timestamp, which a plan without base
	// times runs on from chunk to chunk; only the in-order worker owns it.
	last int64
}

// deliver hands a decoded chunk to the shard: apply runs on it, and on
// every chunk of the thread, one at a time and in sequence order.
func (sh *shard) deliver(pc *plannedChunk, apply func(*plannedChunk)) {
	sh.mu.Lock()
	if pc.seq != sh.next {
		if sh.pending == nil {
			sh.pending = make(map[int]*plannedChunk)
		}
		sh.pending[pc.seq] = pc
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	// This goroutine owns the shard state until it fails to find the
	// successor chunk: only the holder of seq == next can reach here.
	for {
		apply(pc)
		sh.mu.Lock()
		sh.next++
		nxt, ok := sh.pending[sh.next]
		if !ok {
			sh.mu.Unlock()
			return
		}
		delete(sh.pending, sh.next)
		sh.mu.Unlock()
		pc = nxt
	}
}

// errAt orders scan errors by archive position, so the parallel scan
// reports the same (earliest) failure a sequential read would.
type errAt struct {
	idx int
	err error
}

type errLatch struct {
	p    atomic.Pointer[errAt]
	done chan struct{} // closed on first latch; unblocks waiting workers
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
