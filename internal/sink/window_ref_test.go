package sink

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// refWindow is the send window as it was while it kept its bytes in one
// contiguous slice — appended to by Write, compacted lazily by ack,
// copied into the sender's scratch by next — less its protocol-v1 mode.
// It is the reference the tests hold sendWindow to: the same calls must
// leave the same offsets, hand the sender the same bytes and write the
// same fallback file.
type refWindow struct {
	mu   sync.Mutex
	cond *sync.Cond

	buf   []byte // buf[head:] is the window
	head  int    // evicted bytes not yet moved over
	base  int64  // archive offset of buf[head]
	acked int64  // server-durable bytes
	sent  int64  // next unsent archive offset

	maxUnacked int
	retain     int
	block      bool

	closed bool
	failed error
	kicked bool

	spill      *os.File
	spillStart int64
}

func newRefWindow(maxUnacked, retain int, block bool) *refWindow {
	w := &refWindow{maxUnacked: maxUnacked, retain: retain, block: block}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *refWindow) end() int64 { return w.base + int64(len(w.buf)-w.head) }

func (w *refWindow) admit() (bool, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		switch {
		case w.failed != nil:
			return false, w.failed
		case w.closed:
			return false, fmt.Errorf("sink: write after Close")
		case w.spill != nil:
			return true, nil
		case w.end()-w.sent < int64(w.maxUnacked):
			return true, nil
		case !w.block:
			return false, nil
		}
		w.cond.Wait()
	}
}

func (w *refWindow) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, w.failed
	}
	if w.spill != nil {
		return w.writeSpillLocked(p)
	}
	if w.block {
		for w.end()-w.sent >= int64(w.maxUnacked) && w.failed == nil && !w.closed && w.spill == nil {
			w.cond.Wait()
		}
		if w.failed != nil {
			return 0, w.failed
		}
		if w.spill != nil {
			return w.writeSpillLocked(p)
		}
	}
	w.buf = append(w.buf, p...)
	w.cond.Broadcast()
	return len(p), nil
}

func (w *refWindow) writeSpillLocked(p []byte) (int, error) {
	n, err := w.spill.Write(p)
	if err != nil {
		err = fmt.Errorf("sink: fallback archive: %w", err)
		w.failLocked(err)
		return n, err
	}
	return n, nil
}

// next copies the next run of unsent bytes into scratch, whose capacity
// (if any) bounds it.
func (w *refWindow) next(scratch []byte) (batch []byte, done, kicked bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.sent == w.end() && !w.closed && w.failed == nil && w.spill == nil && !w.kicked {
		w.cond.Wait()
	}
	if w.kicked {
		w.kicked = false
		return nil, false, true
	}
	if w.failed != nil || w.spill != nil {
		return nil, true, false
	}
	n := w.end() - w.sent
	if max := int64(cap(scratch)); max > 0 && n > max {
		n = max
	}
	off := int64(w.head) + w.sent - w.base
	batch = append(scratch[:0], w.buf[off:off+n]...)
	w.sent += n
	w.cond.Broadcast()
	return batch, w.closed && w.sent == w.end(), false
}

func (w *refWindow) kick() {
	w.mu.Lock()
	w.kicked = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *refWindow) ack(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n <= w.acked {
		return
	}
	if n > w.end() {
		n = w.end()
	}
	w.acked = n
	if n > w.sent {
		w.sent = n
	}
	if cut := w.acked - int64(w.retain); cut > w.base {
		// The bytes below cut leave the window at once and the buffer
		// lazily: the window is moved over them only when they are at
		// least as many as it holds.
		w.head += int(cut - w.base)
		w.base = cut
		if live := len(w.buf) - w.head; w.head >= live {
			copy(w.buf, w.buf[w.head:])
			w.buf, w.head = w.buf[:live], 0
		}
	}
	w.cond.Broadcast()
}

func (w *refWindow) rewind(durable int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if durable < w.base {
		return &gapError{durable: durable, have: w.base}
	}
	if durable > w.end() {
		return fmt.Errorf("sink: server claims %d durable bytes, only %d were ever produced", durable, w.end())
	}
	w.sent = durable
	w.acked = durable
	w.cond.Broadcast()
	return nil
}

func (w *refWindow) snapshot() (base, acked, sent, end int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base, w.acked, w.sent, w.end()
}

func (w *refWindow) beginSpill(path string) (int64, error) {
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
	if _, err := f.Write(w.buf[w.head:]); err != nil {
		_ = f.Close()
		w.failLocked(fmt.Errorf("sink: fallback archive: %w", err))
		return 0, w.failed
	}
	w.spill = f
	w.spillStart = w.base
	w.buf, w.head = nil, 0
	w.cond.Broadcast()
	return w.spillStart, nil
}

func (w *refWindow) finishSpill() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.spill == nil {
		return nil
	}
	err := w.spill.Close()
	w.spill = nil
	return err
}

func (w *refWindow) failLatch(err error) {
	w.mu.Lock()
	w.failLocked(err)
	w.mu.Unlock()
}

func (w *refWindow) failLocked(err error) {
	if w.failed == nil {
		w.failed = err
	}
	w.buf, w.head = nil, 0
	w.cond.Broadcast()
}

func (w *refWindow) closeStream() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}
