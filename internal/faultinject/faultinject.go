// Package faultinject provides deterministic fault injectors for
// transport and disk I/O — the building blocks of the measurement
// service's fault-tolerance tests. A Conn wraps a net.Conn and severs
// it after a configured byte count (optionally mid-frame, by slicing
// writes) or on demand; a Writer wraps an io.Writer and simulates a
// full disk (ENOSPC after a byte budget, with the short write a real
// filesystem produces) or transient EIO failures. All injectors are count-driven and deterministic: the same
// configuration and byte stream trips the same fault at the same byte,
// which is what lets the fault matrix run under -race -count=3 without
// flaking.
//
// The injectors are generic io plumbing: nothing in here knows about
// the sink protocol or the archive format, so otf2 and sink tests (or
// any other package's) can reuse them.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
)

// ErrSevered is the error surfaced by a Conn once its fault has
// tripped: every later Read and Write fails with an error wrapping it.
var ErrSevered = errors.New("faultinject: connection severed")

// ConnOption configures a Conn.
type ConnOption func(*Conn)

// SeverWriteAfter trips the fault once n bytes have been written
// through the connection: the write that crosses the boundary delivers
// only the bytes up to it (so the peer sees a mid-frame cut), the
// underlying connection is closed, and every later operation fails
// with ErrSevered. n <= 0 severs on the first write.
func SeverWriteAfter(n int64) ConnOption {
	return func(c *Conn) { c.severAfter.Store(n); c.armed.Store(true) }
}

// SliceWrites caps each underlying write to max bytes, so one logical
// frame lands in several small writes — the peer can observe (and a
// sever can hit) partial frames.
func SliceWrites(max int) ConnOption {
	return func(c *Conn) {
		if max > 0 {
			c.sliceMax = max
		}
	}
}

// Conn wraps a net.Conn with deterministic write-path faults. The zero
// configuration passes everything through; see SeverWriteAfter,
// SliceWrites, and the on-demand Sever.
type Conn struct {
	net.Conn

	severAfter atomic.Int64 // byte budget; meaningful only when armed
	armed      atomic.Bool
	written    atomic.Int64
	tripped    atomic.Bool

	sliceMax int
}

// NewConn wraps conn with the configured faults.
func NewConn(conn net.Conn, opts ...ConnOption) *Conn {
	c := &Conn{Conn: conn, sliceMax: 1 << 20}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Sever trips the fault now: the underlying connection closes and
// every later Read/Write fails with ErrSevered. Idempotent, safe from
// any goroutine.
func (c *Conn) Sever() {
	if c.tripped.CompareAndSwap(false, true) {
		// Closing the underlying conn makes the peer see the cut too,
		// like a crashed process's kernel resetting its sockets.
		_ = c.Conn.Close()
	}
}

// Severed reports whether the fault has tripped.
func (c *Conn) Severed() bool { return c.tripped.Load() }

// Written returns the bytes successfully written so far.
func (c *Conn) Written() int64 { return c.written.Load() }

// Write delivers p in slices of at most the configured size, tripping
// the sever fault at the exact configured byte.
func (c *Conn) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		if c.tripped.Load() {
			return n, fmt.Errorf("%w (after %d bytes)", ErrSevered, c.written.Load())
		}
		chunk := p
		if len(chunk) > c.sliceMax {
			chunk = chunk[:c.sliceMax]
		}
		if c.armed.Load() {
			rem := c.severAfter.Load() - c.written.Load()
			if rem <= 0 {
				c.Sever()
				return n, fmt.Errorf("%w (after %d bytes)", ErrSevered, c.written.Load())
			}
			if int64(len(chunk)) > rem {
				chunk = chunk[:rem]
			}
		}
		m, err := c.Conn.Write(chunk)
		c.written.Add(int64(m))
		n += m
		if err != nil {
			return n, err
		}
		p = p[len(chunk):]
	}
	return n, nil
}

// Read passes through until the fault trips, then fails like the
// write side — a severed connection is dead in both directions.
func (c *Conn) Read(p []byte) (int, error) {
	if c.tripped.Load() {
		return 0, ErrSevered
	}
	return c.Conn.Read(p)
}

// WriterOption configures a Writer.
type WriterOption func(*Writer)

// CapacityBytes simulates a disk with n bytes left: the write that
// crosses the budget delivers the bytes that fit (a short write, as a
// real filesystem produces on ENOSPC) and fails with an error wrapping
// syscall.ENOSPC; every later write fails immediately.
func CapacityBytes(n int64) WriterOption {
	return func(w *Writer) { w.capacity = n; w.capped = true }
}

// TransientEIOEvery fails every k-th Write call with an error wrapping
// syscall.EIO, delivering nothing; the calls between succeed. k <= 0
// disables the injector.
func TransientEIOEvery(k int) WriterOption {
	return func(w *Writer) { w.eioEvery = k }
}

// Writer wraps an io.Writer with deterministic disk faults; see
// CapacityBytes and TransientEIOEvery. Writer is safe for use by one
// goroutine at a time, like the writers it wraps.
type Writer struct {
	w io.Writer

	mu       sync.Mutex
	capacity int64
	capped   bool
	written  int64
	eioEvery int
	calls    int
}

// NewWriter wraps w with the configured faults.
func NewWriter(w io.Writer, opts ...WriterOption) *Writer {
	fw := &Writer{w: w}
	for _, opt := range opts {
		opt(fw)
	}
	return fw
}

// Written returns the bytes successfully written through so far.
func (w *Writer) Written() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Write applies the configured faults, then forwards to the wrapped
// writer.
func (w *Writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	if w.eioEvery > 0 && w.calls%w.eioEvery == 0 {
		return 0, fmt.Errorf("faultinject: transient i/o error: %w", syscall.EIO)
	}
	if w.capped {
		rem := w.capacity - w.written
		if rem <= 0 {
			return 0, fmt.Errorf("faultinject: disk full: %w", syscall.ENOSPC)
		}
		if int64(len(p)) > rem {
			n, err := w.w.Write(p[:rem])
			w.written += int64(n)
			if err != nil {
				return n, err
			}
			return n, fmt.Errorf("faultinject: disk full: %w", syscall.ENOSPC)
		}
	}
	n, err := w.w.Write(p)
	w.written += int64(n)
	return n, err
}
