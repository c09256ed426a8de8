package sink

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/otf2"
)

// sendWindow sits between the archive writer and the sender goroutine.
// It buffers the raw archive byte stream — not frames; framing happens
// at send time — so every buffered byte has an absolute archive offset
// and the window doubles as the replay buffer for resumable streams:
//
//	base          acked              sent            end
//	 |--- retained --|---- in flight ---|--- unsent ---|
//
// Bytes below acked are durable at the server; up to retain of them are
// kept anyway, so a reconnect that finds the server's durable offset
// regressed (daemon crash recovery truncates shards to a chunk
// boundary) can still replay. Backpressure gates on the unsent backlog
// [sent, end), bounded by maxUnacked: producers block when the sender
// falls that far behind — a dead connection stalls sent
// and trips the bound, so a lost daemon costs the measured program a
// bounded stall, not unbounded memory. (The bound is deliberately not
// on unacked bytes: the server acks in DefaultAckIntervalBytes strides,
// so a small buffer would deadlock waiting for an ack that only comes
// after more bytes than the buffer holds.)
//
// The bytes lie in fixed segments (otf2.Memory) at their archive
// offsets. Write fills the last segment and takes another when it is
// full; an ack hands the segments wholly below base back for Write to
// fill again. No byte is moved or copied on its way through, and a
// stream longer than the window stops allocating once the window is
// full: retain, plus what is sent and not yet acked (the server's ack
// stride, the frame that crosses it and the frame on its way), plus
// maxUnacked and the write that crosses it, rounded out to whole
// segments at both ends. The sender writes to the connection straight
// from the segments: bytes below end never change, and a segment is
// filled again only once it lies below acked - retain, after the server
// has read and flushed every byte of it. That is the server's word, so
// an ack gives up no segment from the start of the batch the sender took
// last: a server that acks what it has not read cannot have a segment
// filled again while the sender still writes from it.
//
// A latched failure empties the window and wakes every waiter, so no
// recording thread can stay blocked on a dead connection; entering
// spill mode does the same but redirects the stream into a local
// fallback archive instead of discarding it; and a sender that ends for
// any other reason releases the segments too.
type sendWindow struct {
	mu   sync.Mutex
	cond *sync.Cond

	store otf2.Memory // the stream from base's segment on, until released
	base  int64       // first archive offset held for replay
	acked int64       // server-durable bytes
	sent  int64       // next unsent archive offset
	end   int64       // bytes produced; base once failed or spilling
	out   int64       // start of the batch next gave the sender last, which may still be on its way

	// Occupancy, written under mu: the most bytes [base, end) has held,
	// the segments allocated for them, and the time producers have
	// waited for the sender in Write and admit.
	highWater int64
	segments  int
	blockedNs int64

	maxUnacked int
	retain     int

	closed bool
	failed error
	kicked bool

	spill      *os.File
	spillStart int64 // archive offset of the fallback file's first byte
}

func newSendWindow(maxUnacked, retain int) *sendWindow {
	w := &sendWindow{maxUnacked: maxUnacked, retain: retain}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// waitLocked is a producer's wait for the sender.
func (w *sendWindow) waitLocked() {
	t := time.Now()
	w.cond.Wait()
	w.blockedNs += int64(time.Since(t))
}

// admit is the pre-encode backpressure gate: it waits for window space
// and returns nil to encode, or an error once the stream has failed or
// been closed.
func (w *sendWindow) admit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		switch {
		case w.failed != nil:
			return w.failed
		case w.closed:
			return fmt.Errorf("sink: write after Close")
		case w.spill != nil:
			// Spilling to local disk: no window bound applies, the
			// fallback archive takes everything.
			return nil
		case w.end-w.sent < int64(w.maxUnacked):
			return nil
		}
		w.waitLocked()
	}
}

// Write implements io.Writer for the archive writer: p is appended to
// the window (or, in spill mode, written straight to the fallback
// archive). Write waits for window space — it runs on the encoding
// thread, under the writer's io lock, exactly where a slow file sink
// would block too.
func (w *sendWindow) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.spill != nil {
		return w.writeSpillLocked(p)
	}
	for w.end-w.sent >= int64(w.maxUnacked) && w.failed == nil && !w.closed && w.spill == nil {
		w.waitLocked()
	}
	if w.failed != nil {
		return 0, w.failed
	}
	if w.spill != nil {
		return w.writeSpillLocked(p)
	}
	_, _ = w.store.Write(p) // never fails
	w.end += int64(len(p))
	w.highWater = max(w.highWater, w.end-w.base)
	w.segments = max(w.segments, int(w.store.Held()/otf2.MemorySegment))
	w.cond.Broadcast()
	return len(p), nil
}

// writeSpillLocked appends p to the fallback archive. A fallback write
// failure is final: the stream latches it (there is nowhere left to
// degrade to).
func (w *sendWindow) writeSpillLocked(p []byte) (int, error) {
	n, err := w.spill.Write(p)
	if err != nil {
		err = fmt.Errorf("sink: fallback archive: %w", err)
		w.failLocked(err)
		return n, err
	}
	return n, nil
}

// next hands the sender the next run of unsent bytes, n <= limit of
// them, as views of the window's segments appended to views: they are
// not copied, and the window lock is not held during the network write.
// It waits when everything is sent; done reports that the stream was
// closed and fully sent, and kicked that an interrupt (reader-observed
// connection death) asked the sender to re-check its connection state.
func (w *sendWindow) next(views [][]byte, limit int64) (batch [][]byte, n int64, done, kicked bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.sent == w.end && !w.closed && w.failed == nil && w.spill == nil && !w.kicked {
		w.cond.Wait()
	}
	if w.kicked {
		w.kicked = false
		return views, 0, false, true
	}
	if w.failed != nil || w.spill != nil {
		return views, 0, true, false
	}
	n = min(w.end-w.sent, limit)
	batch = w.store.Views(views, w.sent, n)
	w.out = w.sent
	w.sent += n
	// sent advanced: producers gated on the unsent backlog can move.
	w.cond.Broadcast()
	return batch, n, w.closed && w.sent == w.end, false
}

// kick wakes the sender out of an idle next wait so it can notice a
// dead connection discovered by the ack reader.
func (w *sendWindow) kick() {
	w.mu.Lock()
	w.kicked = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// ack records the server's durable offset and evicts window bytes no
// longer needed for replay (everything below acked-retain).
func (w *sendWindow) ack(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n <= w.acked {
		return
	}
	if n > w.end {
		n = w.end
	}
	w.acked = n
	if n > w.sent {
		w.sent = n
	}
	if cut := w.acked - int64(w.retain); cut > w.base {
		w.base = cut
		w.store.Discard(min(cut, w.out))
	}
	w.cond.Broadcast()
}

// gapError reports a resume the window cannot cover: the server's
// durable offset lies below the retained history.
type gapError struct {
	durable, have int64
}

func (e *gapError) Error() string {
	return fmt.Sprintf("sink: cannot resume at durable offset %d: replay window starts at %d (gap of %d bytes)",
		e.durable, e.have, e.have-e.durable)
}

// rewind repositions the sender at the server's durable offset after a
// reconnect. A durable offset below the retained history is a
// *gapError (the caller declares the gap and degrades); one beyond the
// bytes ever produced is protocol corruption.
func (w *sendWindow) rewind(durable int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if durable < w.base {
		return &gapError{durable: durable, have: w.base}
	}
	if durable > w.end {
		return fmt.Errorf("sink: server claims %d durable bytes, only %d were ever produced", durable, w.end)
	}
	w.sent = durable
	// The server's word overrides the old connection's acks in both
	// directions: a crash-recovered daemon may know less than we
	// thought (retained history covers the difference), a lost ack may
	// mean it knows more.
	w.acked = durable
	w.cond.Broadcast()
	return nil
}

// snapshot returns the current offsets (for stats and tests).
func (w *sendWindow) snapshot() (base, acked, sent, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base, w.acked, w.sent, w.end
}

// beginSpill switches the stream into local-fallback mode: the whole
// retained window [base, end) is written to a fresh archive file at
// path and every later Write goes straight there. Returns the archive
// offset of the file's first byte. The window keeps accepting bytes so
// the measured program finishes its run with a lossless local copy.
func (w *sendWindow) beginSpill(path string) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.spill != nil {
		return w.spillStart, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		w.failLocked(fmt.Errorf("sink: creating fallback dir: %w", err))
		return 0, w.failed
	}
	f, err := os.Create(path)
	if err != nil {
		w.failLocked(fmt.Errorf("sink: creating fallback archive: %w", err))
		return 0, w.failed
	}
	for _, seg := range w.store.Views(nil, w.base, w.end-w.base) {
		if _, err := f.Write(seg); err != nil {
			_ = f.Close()
			w.failLocked(fmt.Errorf("sink: fallback archive: %w", err))
			return 0, w.failed
		}
	}
	w.spill = f
	w.spillStart = w.base
	w.emptyLocked()
	return w.spillStart, nil
}

// finishSpill syncs and closes the fallback archive, if one is active,
// returning its first write error. Called from Close after the stream
// drained.
func (w *sendWindow) finishSpill() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.spill == nil {
		return nil
	}
	err := w.spill.Sync()
	if cerr := w.spill.Close(); err == nil {
		err = cerr
	}
	w.spill = nil
	if err != nil {
		return fmt.Errorf("sink: sealing fallback archive: %w", err)
	}
	return nil
}

// failLatch kills the stream: the window is discarded and every waiter
// (producers in admit/Write, the sender in next) is released.
func (w *sendWindow) failLatch(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
}

func (w *sendWindow) failLocked(err error) {
	if w.failed == nil {
		w.failed = err
	}
	w.emptyLocked()
}

// emptyLocked lets the window's bytes go, for the fallback archive or
// for good, and wakes every waiter.
func (w *sendWindow) emptyLocked() {
	w.store, w.end = otf2.Memory{}, w.base
	w.cond.Broadcast()
}

// release lets the segments go once no sender is left to read them.
func (w *sendWindow) release() {
	w.mu.Lock()
	w.store = otf2.Memory{}
	w.mu.Unlock()
}

// closeStream marks the end of the stream: the sender drains what is
// buffered and finishes.
func (w *sendWindow) closeStream() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}
