package otf2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// headerLen is the byte length of the archive header: the magic and the
// version byte. The first chunk starts there.
const headerLen = len(magic) + 1

// errVersion marks a header whose magic is right and whose version byte
// this build does not read: such a file is an archive, just not one for
// this reader, and must not be mistaken for a damaged one.
var errVersion = errors.New("otf2: unsupported format version")

// readHeaderAt validates the archive header of src: the magic and format
// version 4, the only one this package reads. A source shorter than the
// header is a cut archive. An older version is refused with the last
// commit whose scorep-convert reads it and writes version 4, and a file
// that is no archive at all with the last commit whose scorep-convert
// reads a JSONL trace: the readers take archives only.
func readHeaderAt(src io.ReaderAt) error {
	var hdr [headerLen]byte
	if n, err := src.ReadAt(hdr[:], 0); n < len(hdr) {
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return cutOrIOErr("reading header", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return corrupt("bad magic %q: not an archive (a JSONL trace converts with scorep-convert built at commit 72ec01f)", hdr[:len(magic)])
	}
	switch v := hdr[len(magic)]; {
	case v == version4:
		return nil
	case v >= 1 && v < version4:
		return fmt.Errorf("%w %d (have %d): convert the file with scorep-convert built at commit a6f702c", errVersion, v, version4)
	default:
		return fmt.Errorf("%w %d (have %d)", errVersion, v, version4)
	}
}

// frame is one chunk as its framing gives it: its kind and extent, the
// offset of its kind byte, and head, the first bytes of its payload as
// far as they came with the framing — enough for an event chunk's
// thread/count head and a compressed chunk's method and raw length.
type frame struct {
	chunkHead
	off  int64
	head []byte
}

// frameBytes is what readFrame reads at a chunk's offset: the kind byte,
// a length (an eleventh length byte would overflow), and an event
// chunk's thread and count.
const frameBytes = 1 + 3*binary.MaxVarintLen64 + 1

// readFrame reads the framing of the chunk at off into buf. Bytes that
// end before the length does are a cut (an error wrapping ErrTruncated);
// a length that overflows or exceeds maxChunkLen is corruption. Whether
// the payload lies inside the archive is for the caller to say.
func readFrame(src io.ReaderAt, off int64, buf *[frameBytes]byte) (frame, error) {
	n, err := src.ReadAt(buf[:], off)
	if err != nil && err != io.EOF {
		return frame{}, fmt.Errorf("otf2: reading chunk at %d: %w", off, err)
	}
	size, k := binary.Uvarint(buf[1:max(n, 1)])
	switch {
	case n <= 1 || (k == 0 && n-1 < binary.MaxVarintLen64):
		if n > 1 {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, cutOrIOErr("reading chunk length", err)
	case k <= 0:
		return frame{}, corrupt("chunk length at %d overflows", off)
	case size > maxChunkLen:
		return frame{}, corrupt("chunk length %d exceeds limit", size)
	}
	h := chunkHead{kind: buf[0], body: off + 1 + int64(k), size: int(size)}
	return frame{h, off, buf[1+k : min(n, 1+k+int(size))]}, nil
}

// walk reads the chunk framing of src from off up to end, in archive
// order, and hands every chunk that lies whole before end to visit. It
// returns where the chunks it walked end, and why it stopped there: nil
// at end, an error wrapping ErrTruncated for a chunk end cuts off, a
// corruption error for a damaged length, an I/O error, or what visit
// returned. It reads the framing only — a payload is visit's to read —
// and it is the one walk over an archive's framing: a plan without an
// index is recovered from it, and IntactPrefixSize and StatFile read it.
func walk(src io.ReaderAt, off, end int64, visit func(f frame) error) (int64, error) {
	var buf *[frameBytes]byte // made on the first chunk: many walks have none
	for off < end {
		if buf == nil {
			buf = new([frameBytes]byte)
		}
		f, err := readFrame(src, off, buf)
		if err != nil {
			return off, err
		}
		if stop := f.body + int64(f.size); stop > end {
			err := io.ErrUnexpectedEOF
			if f.body >= end {
				err = io.EOF
			}
			return off, cutOrIOErr("chunk payload", err)
		}
		if visit != nil {
			if err := visit(f); err != nil {
				return off, err
			}
		}
		off = f.body + int64(f.size)
	}
	return off, nil
}
