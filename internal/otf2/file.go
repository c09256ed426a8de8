package otf2

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/region"
	"repro/internal/trace"
)

// ReadFile loads a trace file in the format chosen by its extension
// (".otf2" is a binary archive, anything else JSONL), interning regions
// into reg. Archives are decoded with workers goroutines (<= 0 one per
// processor; JSONL is always sequential): by plan when the archive has
// its footer index, one worker or many, and by the sequential ReadAll
// when it does not — see ReadAllParallel. An archive cut off mid-chunk
// (crashed run) is salvaged: the intact prefix is returned together
// with an error wrapping ErrTruncated, and the caller decides whether
// to use it.
func ReadFile(path string, reg *region.Registry, workers int) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if IsArchivePath(path) {
		return ReadAllParallel(f, reg, workers)
	}
	return trace.ReadJSONL(f, reg)
}

// ReadFileLenient is ReadFile with the warn-and-continue truncation
// policy applied: an archive cut off mid-chunk (the typical state after
// a crashed or killed run) yields the salvaged intact prefix and a
// human-readable warning instead of an error. Anything else — I/O
// failures, corruption, a bad JSONL line — still fails. The warning is
// "" for an intact trace.
func ReadFileLenient(path string, reg *region.Registry, workers int) (*trace.Trace, string, error) {
	tr, err := ReadFile(path, reg, workers)
	if errors.Is(err, ErrTruncated) {
		return tr, fmt.Sprintf("%v; using the intact prefix (%d events)", err, tr.NumEvents()), nil
	}
	return tr, "", err
}

// AnalyzeFile runs the trace analysis over a trace file in either
// format (by extension, like ReadFile). Archives are replayed streaming
// in O(workers x chunk) memory, so they may be far larger than RAM;
// workers <= 0 analyzes with one worker per processor — the result is
// identical at every worker count.
// Truncated archives are salvaged under the same lenient policy as
// ReadFileLenient: the analysis of the intact prefix is returned with a
// warning.
func AnalyzeFile(path string, workers int) (*trace.Analysis, string, error) {
	if !IsArchivePath(path) {
		tr, warn, err := ReadFileLenient(path, region.NewRegistry(), 1)
		if err != nil {
			return nil, "", err
		}
		return trace.AnalyzeParallel(tr, workers), warn, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	a, err := AnalyzeParallel(f, workers)
	if errors.Is(err, ErrTruncated) {
		return a, fmt.Sprintf("%v; analyzing the intact prefix", err), nil
	}
	return a, "", err
}

// CountFileEvents counts a trace file's events. Archives are iterated
// without materializing the trace, in O(chunk) memory; truncation is
// salvaged leniently, returning the intact prefix's count plus a
// warning.
func CountFileEvents(path string) (int, string, error) {
	if !IsArchivePath(path) {
		tr, warn, err := ReadFileLenient(path, region.NewRegistry(), 1)
		if err != nil {
			return 0, "", err
		}
		return tr.NumEvents(), warn, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	rd, err := NewReader(f, region.NewRegistry())
	events := 0
	if err == nil {
		for {
			if _, _, err = rd.Next(); err != nil {
				break
			}
			events++
		}
	}
	if err != nil && err != io.EOF {
		if !errors.Is(err, ErrTruncated) {
			return 0, "", err
		}
		return events, fmt.Sprintf("%v; counting the intact prefix", err), nil
	}
	return events, "", nil
}

// AnalyzeFileQuery runs the trace analysis over the sub-trace of a
// trace file matching q, with the same lenient truncation policy as
// AnalyzeFile. Archives carrying a footer index are accessed through
// it, reading only the chunks whose thread and time bounds can match;
// v1, truncated and JSONL traces fall back to a full scan with
// event-level filtering. The analysis is always identical to
// filtering the fully decoded trace with q and analyzing that.
func AnalyzeFileQuery(path string, q Query, workers int) (*trace.Analysis, QueryStats, string, error) {
	if !IsArchivePath(path) {
		tr, warn, err := ReadFileLenient(path, region.NewRegistry(), 1)
		if err != nil {
			return nil, QueryStats{}, "", err
		}
		return trace.AnalyzeParallel(q.Filter(tr), workers), QueryStats{}, warn, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, QueryStats{}, "", err
	}
	defer f.Close()
	a, st, err := AnalyzeQuery(f, q, workers)
	if errors.Is(err, ErrTruncated) {
		return a, st, fmt.Sprintf("%v; analyzing the intact prefix", err), nil
	}
	return a, st, "", err
}

// ReadFileQuery loads the sub-trace of a trace file matching q, with
// the same index-driven access, fallback and lenient salvage as
// AnalyzeFileQuery. The loaded trace equals q.Filter of the full
// trace: threads without matching events are absent.
func ReadFileQuery(path string, reg *region.Registry, q Query, workers int) (*trace.Trace, QueryStats, string, error) {
	if !IsArchivePath(path) {
		tr, warn, err := ReadFileLenient(path, reg, 1)
		if err != nil {
			return nil, QueryStats{}, "", err
		}
		return q.Filter(tr), QueryStats{}, warn, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, QueryStats{}, "", err
	}
	defer f.Close()
	tr, st, err := ReadAllQuery(f, reg, q, workers)
	if errors.Is(err, ErrTruncated) {
		return tr, st, fmt.Sprintf("%v; using the intact prefix (%d events)", err, tr.NumEvents()), nil
	}
	return tr, st, "", err
}

// ArchiveStats describes the physical layout of a binary archive — the
// material scorep-convert -stats reports.
type ArchiveStats struct {
	// FormatVersion is the archive's header version byte (1 or 2).
	FormatVersion int
	// SizeBytes is the archive file size.
	SizeBytes int64
	// Indexed reports whether a readable footer index is present.
	Indexed bool
	// Chunks counts event chunks; CompressedChunks of them are
	// flate-compressed. Both require an index (zero otherwise).
	Chunks, CompressedChunks int
	// RawEventBytes and StoredEventBytes total the event-chunk payload
	// sizes before and after compression (equal when uncompressed);
	// their ratio is the event-stream compression ratio. Index required.
	RawEventBytes, StoredEventBytes int64
	// IndexedEvents is the event count the index declares.
	IndexedEvents int
	// ThreadChunks maps thread ID -> event chunk count (index required).
	ThreadChunks map[int]int
	// Flight is the flight-recorder accounting of a dump archive (nil
	// otherwise). It is read from the front of the archive, so it is
	// reported even for truncated, index-less dumps.
	Flight *FlightInfo
}

// StatFile inspects a binary archive's physical layout without
// decoding its event stream: format version, index presence, per-thread
// chunk counts and compression effectiveness. Archives without a
// readable index (v1, truncated) report version and size only.
func StatFile(path string) (*ArchiveStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(f, br); err != nil {
		return nil, cutOrIOErr("reading archive header", err)
	}
	if string(br[:len(magic)]) != magic {
		return nil, corrupt("bad magic %q", br[:len(magic)])
	}
	st := &ArchiveStats{FormatVersion: int(br[len(magic)]), SizeBytes: fi.Size()}
	if st.FormatVersion != int(version1) && st.FormatVersion != int(version2) {
		return nil, corrupt("unsupported format version %d", st.FormatVersion)
	}
	// Flight-recorder accounting sits at the front of a dump archive
	// (before any definition or event chunk), so a short sequential scan
	// finds it even when the archive is truncated and index-less.
	st.Flight = scanFlightInfo(f)
	ix, err := ReadIndex(f)
	if err != nil {
		if errors.Is(err, ErrNoIndex) {
			return st, nil
		}
		return nil, err
	}
	st.Indexed = true
	st.IndexedEvents = ix.NumEvents()
	st.ThreadChunks = make(map[int]int, len(ix.Threads))
	for _, tc := range ix.Threads {
		st.ThreadChunks[tc.Thread] = len(tc.Chunks)
		for _, cr := range tc.Chunks {
			kind, payload, err := ReadChunkAt(f, cr.Offset)
			if err != nil {
				return nil, err
			}
			st.Chunks++
			st.StoredEventBytes += int64(len(payload))
			switch kind {
			case chunkEvents:
				st.RawEventBytes += int64(len(payload))
			case chunkCompressed:
				st.CompressedChunks++
				if len(payload) == 0 {
					return nil, corrupt("empty compressed chunk at %d", cr.Offset)
				}
				c := cursor{payload: payload, pos: 1} // skip the method byte
				rawLen, err := c.uvarint("uncompressed length")
				if err != nil {
					return nil, err
				}
				st.RawEventBytes += int64(rawLen)
			default:
				return nil, corrupt("index lists event chunk at %d, found %q", cr.Offset, kind)
			}
		}
	}
	return st, nil
}

// scanFlightInfo reads chunks sequentially from f's current position
// (directly after the header) until it finds the 'F' accounting chunk
// or reaches the first event chunk. Dumps place 'F' before everything
// else, so the scan touches at most a couple of chunk headers. It is
// best-effort: any read or decode failure reports "no accounting".
func scanFlightInfo(f io.Reader) *FlightInfo {
	br := bufio.NewReader(f)
	var buf []byte
	for {
		kind, payload, err := readChunkInto(br, buf)
		buf = payload
		if err != nil {
			return nil
		}
		switch kind {
		case chunkFlight:
			info, err := decodeFlightInfo(payload)
			if err != nil {
				return nil
			}
			return info
		case chunkDefs:
			continue
		default:
			// An event chunk (or the index of an event-less archive):
			// no accounting ahead of the event stream means none at all.
			return nil
		}
	}
}

// IntactPrefixSize scans the chunk framing of the archive at path and
// returns the byte length of its intact prefix: the 8-byte header plus
// every complete chunk before the first truncated or over-long one.
// This is the cut point the lenient readers salvage to, computed
// without decoding any payload (chunk headers are read, payloads are
// skipped), so it is O(chunks) in time and O(1) in memory. A file
// shorter than the header, or one whose magic or version byte is wrong,
// has an intact prefix of 0. The typical caller is crash recovery:
// truncating a shard to its intact prefix makes the file a valid,
// fully readable archive prefix again, and the returned size is the
// durable byte offset a resuming writer must continue from.
func IntactPrefixSize(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	hdr := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil
		}
		return 0, err
	}
	if string(hdr[:len(magic)]) != magic ||
		(hdr[len(magic)] != version1 && hdr[len(magic)] != version2) {
		return 0, nil
	}
	intact := int64(len(hdr))
	pos := intact
	for {
		if _, err := br.ReadByte(); err != nil { // chunk kind
			if err == io.EOF {
				return intact, nil
			}
			return 0, err
		}
		pos++
		n, err := binary.ReadUvarint(countingByteReader{br, &pos})
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return intact, nil
			}
			return 0, err
		}
		if n > maxChunkLen {
			// An impossible length means the header itself is damaged;
			// everything from this chunk on is unusable.
			return intact, nil
		}
		skipped, err := br.Discard(int(n))
		pos += int64(skipped)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return intact, nil
			}
			return 0, err
		}
		intact = pos
	}
}

// countingByteReader counts the bytes a varint decode consumes.
type countingByteReader struct {
	r   *bufio.Reader
	pos *int64
}

func (c countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		*c.pos++
	}
	return b, err
}

// WriteFile saves a trace to path in the format chosen by its
// extension, creating or truncating the file. Writer options apply to
// the archive format only (JSONL ignores them).
func WriteFile(path string, tr *trace.Trace, opts ...WriterOption) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if IsArchivePath(path) {
		werr = Write(f, tr, opts...)
	} else {
		werr = trace.WriteJSONL(f, tr)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
