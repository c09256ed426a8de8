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
// after Clip it holds nothing beyond its length. Write and Clip are not
// safe for concurrent use (a Writer serializes its writes); reads are,
// once writing is over.
type Memory struct {
	segs [][]byte // each of memorySegment bytes, but the last
	size int64
}

const memorySegment = 64 << 10

// Write implements io.Writer. It never fails.
func (m *Memory) Write(p []byte) (int, error) {
	n := len(p)
	m.size += int64(n)
	for len(p) > 0 {
		if len(m.segs) == 0 || len(m.segs[len(m.segs)-1]) == memorySegment {
			m.segs = append(m.segs, make([]byte, 0, memorySegment))
		}
		last := &m.segs[len(m.segs)-1]
		k := min(len(p), memorySegment-len(*last))
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

// Segments returns the archive's bytes in order, in pieces, uncopied.
func (m *Memory) Segments() [][]byte { return m.segs }

// ReadAt implements io.ReaderAt.
func (m *Memory) ReadAt(p []byte, off int64) (n int, err error) {
	for n < len(p) && off >= 0 && off < m.size {
		k := copy(p[n:], m.segs[off/memorySegment][off%memorySegment:])
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
