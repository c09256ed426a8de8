package sink

import (
	"bytes"
	"testing"
)

// TestWindowEvictionMovesEachByteOnce streams 64 MiB through a window
// that retains 4 MiB, acked every 256 KiB as the server does: eviction
// may move at most two bytes per byte written (moving the retained
// window on every ack moved sixteen), and what the window then replays
// is still the stream.
func TestWindowEvictionMovesEachByteOnce(t *testing.T) {
	const total, retain, stride = 64 << 20, DefaultReplayBytes, DefaultAckIntervalBytes
	w := newSendWindow(1<<20, retain, false, false)
	// Byte i of the stream is a function of i, so any run can be checked.
	fill := func(p []byte, off int64) {
		for i := range p {
			p[i] = byte((off + int64(i)) * 2654435761 >> 7)
		}
	}
	chunk, scratch := make([]byte, stride), make([]byte, 0, stride)
	for off := int64(0); off < total; off += stride {
		fill(chunk, off)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if batch, _, _ := w.next(scratch); len(batch) != stride {
			t.Fatalf("offset %d: sender got %d bytes, want %d", off, len(batch), stride)
		}
		w.ack(off + stride)
	}
	if base, acked, sent, end := w.snapshot(); base != total-retain || acked != total || sent != total || end != total {
		t.Fatalf("window [base %d, acked %d, sent %d, end %d], want [%d, %d, %d, %d]", base, acked, sent, end, total-retain, total, total, total)
	}
	if w.moved > 2*total {
		t.Errorf("eviction moved %d bytes for %d written: more than two per byte", w.moved, total)
	}
	if len(w.buf) > 2*(retain+stride) {
		t.Errorf("buffer holds %d bytes for a window of %d", len(w.buf), retain)
	}

	// The whole retained history replays; one byte more is a gap.
	if err := w.rewind(total - retain - 1); err == nil {
		t.Fatal("rewind below the retained history succeeded")
	}
	if err := w.rewind(total - retain); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, stride)
	for off := int64(total - retain); off < total; off += stride {
		batch, _, _ := w.next(scratch)
		if fill(want, off); !bytes.Equal(batch, want) {
			t.Fatalf("replay at offset %d differs from the stream", off)
		}
	}
}
