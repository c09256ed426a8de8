package otf2

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// ChunkRef describes one event chunk of an archive, as recorded in the
// footer index: where it starts, how many events it holds, and the
// timestamp state needed to decode it standalone. BaseTime is the
// thread's running timestamp before the chunk's first event (its first
// time delta is relative to BaseTime); MinTime and MaxTime bound the
// chunk's absolute event timestamps inclusively, so a time-window query
// can prune the chunk without reading it.
type ChunkRef struct {
	Offset   int64
	Events   uint64
	BaseTime int64
	MinTime  int64
	MaxTime  int64
}

// ThreadChunks lists one thread's event chunks in archive order.
type ThreadChunks struct {
	Thread int
	Chunks []ChunkRef
}

// Index is an archive's decoded footer index: the offsets of every
// definition chunk plus, per thread in ascending ID order, every event
// chunk with its event count and time bounds. It is the seekable
// entry point of an archive — ReadIndex locates it in O(1) seeks via the
// fixed-size trailer.
type Index struct {
	DefOffsets []int64
	Threads    []ThreadChunks

	// end is the offset of the index chunk itself: every chunk the index
	// describes lies before it.
	end int64
}

// NumChunks returns the total number of event chunks in the index.
func (ix *Index) NumChunks() int {
	n := 0
	for i := range ix.Threads {
		n += len(ix.Threads[i].Chunks)
	}
	return n
}

// NumEvents returns the total event count declared by the index,
// saturating at math.MaxInt (an index is input: its counts may lie).
func (ix *Index) NumEvents() int {
	n := uint64(0)
	for i := range ix.Threads {
		for _, c := range ix.Threads[i].Chunks {
			if n += c.Events; n < c.Events || n > math.MaxInt {
				return math.MaxInt
			}
		}
	}
	return int(n)
}

// ThreadIDs returns the indexed thread IDs in ascending order.
func (ix *Index) ThreadIDs() []int {
	ids := make([]int, len(ix.Threads))
	for i := range ix.Threads {
		ids[i] = ix.Threads[i].Thread
	}
	return ids
}

// ReadIndex locates and decodes the footer index of an archive in O(1)
// reads: it checks the header, reads the fixed-size trailer at the end of
// src, validates it, and decodes the index chunk it points at. It returns
// ErrNoIndex when the archive has no readable index — it was cut off
// before Close wrote the footer, or its trailer is damaged — in which
// case a plan is made from the archive's framing instead. The read
// position of src is unspecified afterwards.
func ReadIndex(src source) (*Index, error) {
	size, err := src.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("otf2: locating index: %w", err)
	}
	if size < int64(headerLen)+trailerLen {
		return nil, ErrNoIndex
	}
	if err := readHeaderAt(src); err != nil {
		return nil, err
	}
	var tr [trailerLen]byte
	if n, err := src.ReadAt(tr[:], size-trailerLen); n < len(tr) {
		return nil, cutOrIOErr("reading trailer", err)
	}
	if tr[0] != chunkTrailer || tr[1] != trailerPayloadLen ||
		string(tr[2+8:]) != trailerMagic {
		return nil, ErrNoIndex // no trailer: crashed run or foreign suffix
	}
	idxOff := int64(binary.LittleEndian.Uint64(tr[2 : 2+8]))
	if idxOff < int64(headerLen) || idxOff >= size-trailerLen {
		return nil, corrupt("index offset %d out of range", idxOff)
	}
	kind, payload, err := ReadChunkAt(src, idxOff)
	if err != nil {
		return nil, err
	}
	if kind != chunkIndex {
		return nil, corrupt("trailer points at %q chunk, want index", kind)
	}
	var lenbuf [binary.MaxVarintLen64]byte
	framed := 1 + binary.PutUvarint(lenbuf[:], uint64(len(payload))) + len(payload)
	if idxOff+int64(framed) != size-trailerLen {
		// Bytes between index and trailer are no part of a finished
		// archive, and a front-to-back read would trip over them.
		return nil, corrupt("index chunk does not end at the trailer")
	}
	return decodeIndex(payload, idxOff)
}

// decodeIndex parses an index-chunk payload; end is the index chunk's
// own offset, which bounds the offsets it may declare.
func decodeIndex(payload []byte, end int64) (*Index, error) {
	c := cursor{payload: payload}
	ndefs, err := c.uvarint("index def count")
	if err != nil {
		return nil, err
	}
	// Lists are made once, at their declared length clamped by what the
	// rest of the payload could hold (an offset takes a byte at least, a
	// thread two, a chunk entry five).
	sized := func(n uint64, entryBytes int) int {
		return int(min(n, uint64((len(payload)-c.pos)/entryBytes)))
	}
	ix := &Index{end: end, DefOffsets: make([]int64, 0, sized(ndefs, 1))}
	var prevDef int64 = -1
	for i := uint64(0); i < ndefs; i++ {
		off, err := c.uvarint("index def offset")
		if err != nil {
			return nil, err
		}
		if int64(off) <= prevDef || int64(off) >= end {
			return nil, corrupt("index def offset %d out of order or range", off)
		}
		prevDef = int64(off)
		ix.DefOffsets = append(ix.DefOffsets, int64(off))
	}
	nthreads, err := c.uvarint("index thread count")
	if err != nil {
		return nil, err
	}
	ix.Threads = make([]ThreadChunks, 0, sized(nthreads, 2))
	prevTid := int64(0)
	for i := uint64(0); i < nthreads; i++ {
		tid, err := c.varint("index thread id")
		if err != nil {
			return nil, err
		}
		if i > 0 && tid <= prevTid {
			return nil, corrupt("index thread %d out of order", tid)
		}
		prevTid = tid
		nchunks, err := c.uvarint("index chunk count")
		if err != nil {
			return nil, err
		}
		tc := ThreadChunks{Thread: int(tid), Chunks: make([]ChunkRef, 0, sized(nchunks, 5))}
		prevOff := int64(-1)
		for j := uint64(0); j < nchunks; j++ {
			var cr ChunkRef
			off, err := c.uvarint("index chunk offset")
			if err != nil {
				return nil, err
			}
			cr.Offset = int64(off)
			if cr.Events, err = c.uvarint("index chunk events"); err != nil {
				return nil, err
			}
			if cr.BaseTime, err = c.varint("index chunk base time"); err != nil {
				return nil, err
			}
			if cr.MinTime, err = c.varint("index chunk min time"); err != nil {
				return nil, err
			}
			if cr.MaxTime, err = c.varint("index chunk max time"); err != nil {
				return nil, err
			}
			if cr.Offset <= prevOff || cr.Offset >= end {
				return nil, corrupt("index chunk offset %d out of order or range", cr.Offset)
			}
			if cr.MinTime > cr.MaxTime {
				return nil, corrupt("index chunk at %d has inverted time bounds", cr.Offset)
			}
			prevOff = cr.Offset
			tc.Chunks = append(tc.Chunks, cr)
		}
		ix.Threads = append(ix.Threads, tc)
	}
	if c.pos != len(c.payload) {
		return nil, corrupt("%d trailing bytes after index", len(c.payload)-c.pos)
	}
	return ix, nil
}

// ReadChunkAt reads the single framed chunk starting at byte offset off
// of src, returning its kind and payload. Offsets come from the footer
// index; an offset not at a chunk boundary yields a corruption error or
// garbage, never a panic.
func ReadChunkAt(src io.ReaderAt, off int64) (byte, []byte, error) {
	var buf [frameBytes]byte
	f, err := readFrame(src, off, &buf)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, f.size)
	if n, err := src.ReadAt(payload, f.body); n < f.size {
		return 0, nil, cutOrIOErr("chunk payload", err)
	}
	return f.kind, payload, nil
}

// inflatePool recycles flate decompressor state across chunks.
var inflatePool sync.Pool

// compressedHead reads the method byte and raw length that open a 'C'
// chunk payload, returning the raw length, bounded by maxChunkLen, and
// where the DEFLATE stream starts.
func compressedHead(payload []byte) (uint64, int, error) {
	if len(payload) < 2 {
		return 0, 0, corrupt("compressed chunk of %d bytes", len(payload))
	}
	if payload[0] != compMethodFlate {
		return 0, 0, corrupt("unknown compression method %d", payload[0])
	}
	c := cursor{payload: payload, pos: 1}
	rawLen, err := c.uvarint("compressed raw length")
	if err == nil && rawLen > maxChunkLen {
		err = corrupt("compressed chunk declares %d raw bytes, exceeds limit", rawLen)
	}
	return rawLen, c.pos, err
}

// inflateChunk decodes a 'C' chunk payload (method byte, uvarint
// rawLen, DEFLATE stream) into the raw 'E' payload it wraps, reusing
// dst's capacity. The declared rawLen is bounded by maxChunkLen before
// any allocation, and the stream must decode to exactly rawLen bytes.
func inflateChunk(dst, payload []byte) ([]byte, error) {
	rawLen, start, err := compressedHead(payload)
	if err != nil {
		return dst, err
	}
	if uint64(cap(dst)) < rawLen {
		dst = make([]byte, rawLen)
	}
	dst = dst[:rawLen]
	return dst, inflate(dst, bytes.NewReader(payload[start:]), true)
}

// inflate fills dst from the DEFLATE stream r; whole requires the stream
// to end there, or trailing data would silently vanish.
func inflate(dst []byte, r io.Reader, whole bool) error {
	var fr io.ReadCloser
	if v := inflatePool.Get(); v != nil {
		fr = v.(io.ReadCloser)
		if err := fr.(flate.Resetter).Reset(r, nil); err != nil {
			return corrupt("resetting decompressor: %v", err)
		}
	} else {
		fr = flate.NewReader(r)
	}
	defer inflatePool.Put(fr)
	if _, err := io.ReadFull(fr, dst); err != nil {
		return corrupt("compressed chunk: %v", err)
	}
	if whole {
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return corrupt("compressed chunk longer than declared %d bytes", len(dst))
		}
	}
	return nil
}
