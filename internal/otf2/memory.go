package otf2

import (
	"bytes"
	"io"
)

// Memory is an archive kept in memory: a Writer writes into it, and once
// the Writer is closed every reading function reads it like a file
// (Reader). It grows by whole segments, so what was written is never
// copied again — a bytes.Buffer of a few megabytes copies its content
// about twice over while it doubles, each time into memory the kernel
// has to fault in fresh, and does so under the Writer's io lock — and
// after Clip it holds nothing beyond its length. A stream that is read
// behind its writer (the sink client's send window) discards at the
// other end: Discard takes whole segments out for Write to fill again,
// so such a Memory stops allocating once it is as long as it gets, and
// Views hands out what lies between as it lies. Write, Clip and Discard
// are not safe for concurrent use (a Writer serializes its writes);
// reads are, once writing is over, and a view stays valid while Write
// goes on.
type Memory struct {
	segs [][]byte // each of MemorySegment bytes, but the last
	off  int64    // offset of segs[0]: what Discard took out, in whole segments
	size int64    // offset of the end
	free [][]byte // the segments Discard took out
}

// MemorySegment is the size of the pieces a Memory grows and shrinks by.
const MemorySegment = 64 << 10

// Write implements io.Writer. It never fails.
func (m *Memory) Write(p []byte) (int, error) {
	n := len(p)
	m.size += int64(n)
	for len(p) > 0 {
		if len(m.segs) == 0 || len(m.segs[len(m.segs)-1]) == MemorySegment {
			var seg []byte
			if k := len(m.free) - 1; k >= 0 {
				seg, m.free = m.free[k], m.free[:k]
			} else {
				seg = make([]byte, 0, MemorySegment)
			}
			m.segs = append(m.segs, seg)
		}
		last := &m.segs[len(m.segs)-1]
		k := min(len(p), MemorySegment-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
	return n, nil
}

// Clip gives up the unused rest of the last segment; call it when
// writing is over.
func (m *Memory) Clip() {
	if n := len(m.segs); n > 0 {
		m.segs[n-1] = bytes.Clone(m.segs[n-1])
	}
}

// Discard gives up the bytes below offset upTo by whole segments — a
// segment goes once its last byte lies below upTo — and keeps the
// segments for Write. What went can no longer be read; no byte moves.
func (m *Memory) Discard(upTo int64) {
	n := int((min(upTo, m.size) - m.off) / MemorySegment)
	if n <= 0 {
		return
	}
	for _, seg := range m.segs[:n] {
		m.free = append(m.free, seg[:0])
	}
	m.segs = append(m.segs[:0], m.segs[n:]...)
	m.off += int64(n) * MemorySegment
}

// Held returns the bytes of memory the archive occupies: its segments
// and those Discard keeps for Write.
func (m *Memory) Held() int64 { return int64(len(m.segs)+len(m.free)) * MemorySegment }

// Segments returns the archive's bytes in order, in pieces, uncopied.
func (m *Memory) Segments() [][]byte { return m.segs }

// Views appends to dst the n bytes from offset off on, in pieces,
// uncopied. A piece keeps its content until Discard has taken its
// segment and Write filled it again.
func (m *Memory) Views(dst [][]byte, off, n int64) [][]byte {
	for n > 0 && off >= m.off && off < m.size {
		seg := m.segs[(off-m.off)/MemorySegment][off%MemorySegment:]
		seg = seg[:min(int64(len(seg)), n)]
		dst = append(dst, seg)
		off, n = off+int64(len(seg)), n-int64(len(seg))
	}
	return dst
}

// ReadAt implements io.ReaderAt.
func (m *Memory) ReadAt(p []byte, off int64) (n int, err error) {
	for n < len(p) && off >= m.off && off < m.size {
		k := copy(p[n:], m.segs[(off-m.off)/MemorySegment][off%MemorySegment:])
		n, off = n+k, off+int64(k)
	}
	if n < len(p) {
		err = io.EOF
	}
	return n, err
}

// Reader returns a reader of the whole archive that can seek and read
// at any offset: to the reading functions an indexed source, like an
// *os.File.
func (m *Memory) Reader() *io.SectionReader { return io.NewSectionReader(m, 0, m.size) }
