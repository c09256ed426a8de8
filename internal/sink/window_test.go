package sink

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/otf2"
	"repro/internal/region"
)

const segment = otf2.MemorySegment

// streamTable is one period of the synthetic stream the window tests
// write: long, and no multiple of a segment, so that the same bytes
// never lie at the same place in two segments a window holds at once,
// and a view of the wrong segment shows.
var streamTable = func() []byte {
	b := make([]byte, 1<<20+7)
	rand.New(rand.NewSource(1)).Read(b)
	return b
}()

// fillStream makes p the stream's bytes from offset off on.
func fillStream(p []byte, off int64) {
	for len(p) > 0 {
		n := copy(p, streamTable[off%int64(len(streamTable)):])
		p, off = p[n:], off+int64(n)
	}
}

// isStream reports whether p is the stream's bytes from offset off on.
func isStream(p []byte, off int64) bool {
	want := make([]byte, len(p))
	fillStream(want, off)
	return bytes.Equal(p, want)
}

// TestWindowEvictionMovesNothing streams 64 MiB through a window that
// retains 4 MiB, acked every 256 KiB as the server does. Once the window
// is full it allocates nothing more — the segments an ack evicts are the
// ones Write fills next — it never holds more segments than its bound
// rounded out at both ends, no byte it holds changes its place between
// being sent and being replayed, and what it then replays is still the
// stream.
func TestWindowEvictionMovesNothing(t *testing.T) {
	const total, retain, stride = 64 << 20, DefaultReplayBytes, DefaultAckIntervalBytes
	w := newSendWindow(1<<20, retain)
	chunk := make([]byte, stride)
	views := make([][]byte, 0, 8)
	sentAt := map[int64]*byte{} // where the byte at an offset lay when it was sent
	var full runtime.MemStats
	for off := int64(0); off < total; off += stride {
		if off == 2*retain {
			runtime.ReadMemStats(&full)
		}
		fillStream(chunk, off)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		var n int64
		if views, n, _, _ = w.next(views[:0], stride); n != stride {
			t.Fatalf("offset %d: sender got %d bytes, want %d", off, n, stride)
		}
		if off >= total-retain {
			sentAt[off] = &views[0][0]
		}
		w.ack(off + stride)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - full.TotalAlloc; grown >= segment {
		t.Errorf("the full window allocated %d bytes more while %d went through it", grown, total-2*retain)
	}
	if base, acked, sent, end := w.snapshot(); base != total-retain || acked != total || sent != total || end != total {
		t.Fatalf("window [base %d, acked %d, sent %d, end %d], want [%d, %d, %d, %d]", base, acked, sent, end, total-retain, total, total, total)
	}
	if most := (retain+stride)/segment + 2; w.segments > most || w.segments < retain/segment {
		t.Errorf("the window allocated %d segments, want %d to %d", w.segments, retain/segment, most)
	}
	if w.highWater != retain+stride {
		t.Errorf("the window held %d bytes at most, want %d", w.highWater, retain+stride)
	}
	if w.blockedNs != 0 {
		t.Errorf("producers waited %d ns for a sender that kept up", w.blockedNs)
	}

	// The whole retained history replays, from where it lay when it was
	// first sent; one byte more is a gap.
	if err := w.rewind(total - retain - 1); err == nil {
		t.Fatal("rewind below the retained history succeeded")
	}
	if err := w.rewind(total - retain); err != nil {
		t.Fatal(err)
	}
	for off := int64(total - retain); off < total; off += stride {
		views, _, _, _ = w.next(views[:0], stride)
		if !isStream(bytes.Join(views, nil), off) {
			t.Fatalf("replay at offset %d differs from the stream", off)
		}
		if &views[0][0] != sentAt[off] {
			t.Fatalf("the byte at offset %d moved between its sending and its replay", off)
		}
	}

	w.release()
	if held := w.store.Held(); held != 0 {
		t.Errorf("a released window holds %d bytes", held)
	}
}

// TestAckPastTheSenderKeepsItsBatch has the server acknowledge a batch
// the sender has taken and not finished writing, with no replay window
// to keep it: its segments are not filled again until the sender has
// come back for the next batch, and then they are, so the window still
// stops allocating.
func TestAckPastTheSenderKeepsItsBatch(t *testing.T) {
	const batch = 4 * segment
	w := newSendWindow(1<<20, 0)
	chunk := make([]byte, batch)
	var writing [][]byte // the batch the sender is still writing
	for off := int64(0); off < 16*batch; off += batch {
		fillStream(chunk, off)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if writing != nil && !isStream(bytes.Join(writing, nil), off-batch) {
			t.Fatalf("the batch at offset %d changed under the sender once it was acknowledged", off-batch)
		}
		var n int64
		if writing, n, _, _ = w.next(nil, batch); n != batch {
			t.Fatalf("offset %d: sender got %d bytes, want %d", off, n, batch)
		}
		w.ack(off + batch)
		if base, _, _, _ := w.snapshot(); base != off+batch {
			t.Fatalf("offset %d: base %d, want %d", off, base, off+batch)
		}
	}
	if want := 2 * batch / segment; w.segments != want {
		t.Errorf("the window allocated %d segments, want %d: the batch on its way and the one written behind it", w.segments, want)
	}
}

// windowPair drives a sendWindow and the reference through the same
// calls and holds every observable result of the one against the other,
// and the bytes both hand out against the stream.
type windowPair struct {
	t     *testing.T
	w     *sendWindow
	ref   *refWindow
	step  int
	what  string
	views [][]byte
}

func (p *windowPair) failf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d, %s: %s", p.step, p.what, fmt.Sprintf(format, args...))
}

// check compares the offsets; every call ends with it.
func (p *windowPair) check() {
	p.t.Helper()
	b, a, s, e := p.w.snapshot()
	rb, ra, rs, re := p.ref.snapshot()
	if b != rb || a != ra || s != rs || e != re {
		p.failf("window [base %d, acked %d, sent %d, end %d], reference [%d, %d, %d, %d]", b, a, s, e, rb, ra, rs, re)
	}
}

func sameError(a, b error) bool {
	var ga, gb *gapError
	if errors.As(a, &ga) || errors.As(b, &gb) {
		return errors.As(a, &ga) && errors.As(b, &gb) && *ga == *gb
	}
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

func (p *windowPair) write(data []byte) {
	p.t.Helper()
	n, err := p.w.Write(data)
	rn, rerr := p.ref.Write(data)
	if n != rn || !sameError(err, rerr) {
		p.failf("Write = %d, %v; reference %d, %v", n, err, rn, rerr)
	}
	p.check()
}

func (p *windowPair) next(scratch []byte) {
	p.t.Helper()
	_, _, from, _ := p.ref.snapshot()
	var n int64
	var done, kicked bool
	p.views, n, done, kicked = p.w.next(p.views[:0], int64(cap(scratch)))
	batch, rdone, rkicked := p.ref.next(scratch)
	got := bytes.Join(p.views, nil)
	if !bytes.Equal(got, batch) || n != int64(len(got)) || done != rdone || kicked != rkicked {
		p.failf("next = %d bytes, done %v, kicked %v; reference %d bytes, %v, %v", len(got), done, kicked, len(batch), rdone, rkicked)
	}
	if !isStream(got, from) {
		p.failf("the %d bytes from %d handed to the sender are not the stream's", len(got), from)
	}
	for _, v := range p.views {
		if len(v) == 0 {
			p.failf("an empty view among %d", len(p.views))
		}
	}
	p.check()
}

// TestWindowMatchesReference holds the segmented window to the
// contiguous one it replaced over random interleavings of everything
// its owners do to it — writes that fit in, fill and straddle segments,
// the sender at every frame size, acks and rewinds at offsets that make
// no sense, kicks, and each of the three ways a stream ends — at replay
// windows below, at and above a segment: after every call the same
// offsets, to the sender the same bytes, to the fallback file the same
// file.
func TestWindowMatchesReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	writeSizes := []int{1, 2, 100, 4096, 32 << 10, segment - 1, segment, segment + 1, 2*segment + 7, 300 << 10}
	var scratches [][]byte
	for _, limit := range []int{1, segment - 1, segment, segment + 1, 256 << 10, 4 << 20} {
		scratches = append(scratches, make([]byte, 0, limit))
	}
	data := make([]byte, 300<<10)
	for _, retain := range []int{0, 1, segment - 1, segment, 4 << 20} {
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)))
			maxUnacked := []int{1 << 10, 100 << 10, 1 << 20}[rng.Intn(3)]
			dir := t.TempDir()
			p := &windowPair{t: t, w: newSendWindow(maxUnacked, retain), ref: newRefWindow(maxUnacked, retain)}
			ended := 0 // steps since the stream closed, failed or began to spill
			for p.step = 0; p.step < 400 && ended < 40; p.step++ {
				r := p.ref
				_, _, sent, end := r.snapshot()
				over := r.failed != nil || r.closed || r.spill != nil
				if over {
					ended++
				}
				switch op := rng.Intn(100); {
				case op < 40:
					p.what = "Write"
					if end-sent >= int64(maxUnacked) && !over {
						continue // would wait for the sender
					}
					n := writeSizes[rng.Intn(len(writeSizes))]
					if rng.Intn(3) == 0 {
						n = 1 + rng.Intn(len(data))
					}
					// The bytes go where Write puts them: at the end, or
					// into the fallback file, which continues there.
					at := end
					if r.spill != nil {
						fi, err := r.spill.Stat()
						if err != nil {
							t.Fatal(err)
						}
						at = r.spillStart + fi.Size()
					}
					fillStream(data[:n], at)
					p.write(data[:n])
				case op < 65:
					p.what = "next"
					if sent == end && !over && !r.kicked {
						continue // would wait for a producer
					}
					p.next(scratches[rng.Intn(len(scratches))])
				case op < 85:
					p.what = "ack"
					n := rng.Int63n(end + 100<<10)
					if rng.Intn(2) == 0 {
						n = sent - 2*segment + rng.Int63n(4*segment)
					}
					p.w.ack(n)
					r.ack(n)
					p.check()
				case op < 91:
					p.what = "rewind"
					base, _, _, _ := r.snapshot()
					n := []int64{base - 1 - rng.Int63n(1000), base, base + rng.Int63n(end-base+1), end, end + 1 + rng.Int63n(1000)}[rng.Intn(5)]
					if err, rerr := p.w.rewind(n), r.rewind(n); !sameError(err, rerr) {
						p.failf("rewind(%d) = %v, reference %v", n, err, rerr)
					}
					p.check()
				case op < 94:
					p.what = "kick"
					p.w.kick()
					r.kick()
					p.check()
				case op < 97:
					p.what = "admit"
					if end-sent >= int64(maxUnacked) && !over {
						continue
					}
					if err, rerr := p.w.admit(), r.admit(); !sameError(err, rerr) {
						p.failf("admit = %v; reference %v", err, rerr)
					}
				case op < 98:
					p.what = "beginSpill"
					start, err := p.w.beginSpill(filepath.Join(dir, "w", "spill"))
					if rstart, rerr := r.beginSpill(filepath.Join(dir, "ref", "spill")); start != rstart || !sameError(err, rerr) {
						p.failf("beginSpill = %d, %v; reference %d, %v", start, err, rstart, rerr)
					}
					p.check()
				case op < 99:
					p.what = "failLatch"
					err := fmt.Errorf("failure at step %d", p.step)
					p.w.failLatch(err)
					r.failLatch(err)
					p.check()
				default:
					p.what = "closeStream"
					p.w.closeStream()
					r.closeStream()
					p.check()
				}
			}
			if err := errors.Join(p.w.finishSpill(), p.ref.finishSpill()); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "w", "spill"))
			want, rerr := os.ReadFile(filepath.Join(dir, "ref", "spill"))
			if !bytes.Equal(got, want) || (err == nil) != (rerr == nil) {
				t.Fatalf("retain %d, seed %d: fallback file of %d bytes (%v), reference %d bytes (%v)", retain, seed, len(got), err, len(want), rerr)
			}
			if !isStream(got, p.w.spillStart) {
				t.Fatalf("retain %d, seed %d: the fallback file is not the stream from %d on", retain, seed, p.w.spillStart)
			}
			if p.w.highWater > int64(p.w.segments)*segment {
				t.Fatalf("the window held %d bytes in %d segments", p.w.highWater, p.w.segments)
			}
		}
	}
}

// cutConn severs a client's connection once a given byte of the stream
// has gone through it: it follows the client's side of the protocol to
// know which payload byte that is.
type cutConn struct {
	net.Conn
	cut     int64 // stream offset of the first byte not delivered
	skip    int   // handshake or frame-header bytes still to pass
	payload int64 // payload bytes left in the open frame
	lenAt   uint  // shift of the next length byte; the frame kind comes first
	n       uint64
	off     int64 // stream offset of the next payload byte
	severed bool
}

var errCut = errors.New("cut: connection severed")

func (c *cutConn) Write(p []byte) (int, error) {
	for i := 0; i < len(p); {
		switch {
		case c.severed:
			return i, errCut
		case c.skip > 0:
			k := min(c.skip, len(p)-i)
			if _, err := c.Conn.Write(p[i : i+k]); err != nil {
				return i, err
			}
			c.skip, i = c.skip-k, i+k
		case c.payload > 0:
			k := min(c.payload, int64(len(p)-i), c.cut-c.off)
			if _, err := c.Conn.Write(p[i : i+int(k)]); err != nil {
				return i, err
			}
			c.payload, c.off, i = c.payload-k, c.off+k, i+int(k)
			if c.off == c.cut {
				c.severed = true
				_ = c.Conn.Close()
			}
		default:
			// Frame kind, then the length's bytes, low seven bits first.
			if _, err := c.Conn.Write(p[i : i+1]); err != nil {
				return i, err
			}
			b := p[i]
			i++
			if c.lenAt == 0 {
				c.lenAt, c.n = 1, 0
				continue
			}
			c.n |= uint64(b&0x7f) << (c.lenAt - 1)
			if c.lenAt += 7; b < 0x80 {
				c.payload, c.lenAt = int64(c.n), 0 // after 'Z' it counts nothing that follows
			}
		}
	}
	return len(p), nil
}

// TestSeverAtSegmentBoundaries cuts a stream of a megabyte and more at
// every boundary between two of the window's segments, one byte before
// it and one after, so that the resumed connection starts reading the
// window at each such place — over segments the acks before the cut
// have already handed back to Write — and holds the resumed shard
// against the archive a writer over a file makes of the same events:
// the window is a relay and adds or loses nothing, raw or compressed,
// disturbed or not.
func TestSeverAtSegmentBoundaries(t *testing.T) {
	srv, addr := startServer(t)
	network, address, err := SplitAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	batches := synthBatches(region.NewRegistry(), 1, 180, 1200)
	for _, comp := range []otf2.Compression{otf2.CompressionNone, otf2.CompressionFlate} {
		ref := filepath.Join(t.TempDir(), "ref.otf2")
		writeLocal(t, ref, batches, otf2.WithCompression(comp))
		fi, err := os.Stat(ref)
		if err != nil {
			t.Fatal(err)
		}
		if comp == otf2.CompressionNone && fi.Size() < 1<<20 {
			t.Fatalf("the stream is %d bytes, want a megabyte", fi.Size())
		}
		cuts := []int64{0} // 0: undisturbed
		for b := int64(segment); b < fi.Size(); b += segment {
			cuts = append(cuts, b-1, b, b+1)
		}
		if testing.Short() {
			cuts = cuts[:min(len(cuts), 10)]
		}
		for _, cut := range cuts {
			id := fmt.Sprintf("c%d-at-%d", comp, cut)
			var dials atomic.Int64
			dial := func() (net.Conn, error) {
				conn, err := net.Dial(network, address)
				if err != nil || dials.Add(1) > 1 || cut == 0 {
					return conn, err
				}
				// The handshake: magic, version, length and id, token.
				return &cutConn{Conn: conn, cut: cut, skip: len(Magic) + 2 + len(id) + 1}, nil
			}
			cl, err := NewClient(dial,
				WithStreamID(id),
				WithStreamToken(0x55), // one byte on the wire
				WithReplayWindow(segment),
				WithWriterOptions(otf2.WithCompression(comp)),
				WithReconnect(10, time.Millisecond, 10*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			streamAll(t, cl, batches)
			if err := cl.Close(); err != nil {
				t.Fatalf("%s: Close = %v", id, err)
			}
			if want := int64(min(cut, 1)); cl.Resumes() != want || cl.GapBytes() != 0 {
				t.Fatalf("%s: %d resumes, %d gap bytes, want %d and none", id, cl.Resumes(), cl.GapBytes(), want)
			}
			if held := cl.win.store.Held(); held != 0 {
				t.Fatalf("%s: the closed client holds %d bytes of its stream", id, held)
			}
			mustEqualFiles(t, id, ref, filepath.Join(srv.Dir(), shardFileName(id)))
		}
	}
}
