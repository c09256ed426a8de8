package otf2

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"

	"repro/internal/region"
	"repro/internal/trace"
)

// ScanFile feeds the events of the archive at path matching q to the
// consumers through Scan. It is the one way an analysis reads a file,
// and with LoadFile the one place a cut archive becomes a warning: the
// typical state after a crashed or killed run delivers its intact prefix
// and a human-readable warning ("" for an intact trace) instead of an
// error. Anything else — I/O failures, corruption, a file that is no
// archive (a JSONL dump among them) — still fails.
func ScanFile(path string, q Query, workers int, consumers ...trace.Consumer) (QueryStats, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return QueryStats{}, "", err
	}
	defer f.Close()
	st, err := Scan(f, q, workers, consumers...)
	warning, err := salvage(err)
	return st, warning, err
}

// LoadFile loads the sub-trace of the archive at path matching q
// through Load, interning regions into reg. A cut archive yields its
// intact prefix and a warning, as in ScanFile.
func LoadFile(path string, reg *region.Registry, q Query, workers int) (*trace.Trace, QueryStats, string, error) {
	tr, st, err := loadFile(path, reg, q, workers)
	warning, err := salvage(err)
	return tr, st, warning, err
}

// loadFile is LoadFile before the salvage: a cut archive's prefix comes
// with an error wrapping ErrTruncated.
func loadFile(path string, reg *region.Registry, q Query, workers int) (*trace.Trace, QueryStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer f.Close()
	return Load(f, reg, q, workers)
}

// salvage applies the warn-and-continue policy to what reading a file
// returned: truncation, and only truncation, becomes a warning.
func salvage(err error) (warning string, _ error) {
	if errors.Is(err, ErrTruncated) {
		return fmt.Sprintf("%v; using the intact prefix", err), nil
	}
	return "", err
}

// eventCount is the consumer that counts what a scan delivers.
type eventCount struct{ n atomic.Int64 }

func (*eventCount) Hint(map[int]int) {}

func (c *eventCount) Consume(_ int, events []trace.Event) { c.n.Add(int64(len(events))) }

// CountFileEvents counts a trace file's events. Archives are scanned
// without materializing the trace, in O(chunk) memory; truncation is
// salvaged as in ScanFile, returning the intact prefix's count plus a
// warning.
func CountFileEvents(path string) (int, string, error) {
	var c eventCount
	_, warning, err := ScanFile(path, Query{}, 1, &c)
	return int(c.n.Load()), warning, err
}

// ArchiveStats describes the physical layout of a binary archive — the
// material scorep-convert -stats reports.
type ArchiveStats struct {
	// FormatVersion is the archive's header version byte: 4, the one
	// version StatFile reads.
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
// readable index (truncated, a damaged trailer) report version, size and
// flight accounting only.
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
	if err := readHeaderAt(f); err != nil {
		return nil, err
	}
	st := &ArchiveStats{FormatVersion: version4, SizeBytes: fi.Size()}
	// One walk over the framing sizes the event chunks and finds the
	// flight-recorder accounting, which sits at the front of a dump: a
	// truncated, index-less dump reports it too.
	_, _ = walk(f, int64(headerLen), fi.Size(), func(fr frame) error {
		raw := int64(fr.size)
		switch fr.kind {
		case chunkFlight:
			payload := make([]byte, fr.size)
			if _, err := f.ReadAt(payload, fr.body); err == nil {
				if info, err := decodeFlightInfo(payload); err == nil {
					st.Flight = info
				}
			}
			return nil
		case chunkCompressed:
			n, _, err := compressedHead(fr.head)
			if err != nil {
				return err
			}
			raw = int64(n)
			st.CompressedChunks++
		case chunkEvents:
		default:
			return nil
		}
		st.Chunks++
		st.RawEventBytes += raw
		st.StoredEventBytes += int64(fr.size)
		return nil
	})
	ix, err := ReadIndex(f)
	if errors.Is(err, ErrNoIndex) {
		return &ArchiveStats{FormatVersion: st.FormatVersion, SizeBytes: st.SizeBytes, Flight: st.Flight}, nil
	}
	if err != nil {
		return nil, err
	}
	st.Indexed = true
	st.IndexedEvents = ix.NumEvents()
	st.ThreadChunks = make(map[int]int, len(ix.Threads))
	for _, tc := range ix.Threads {
		st.ThreadChunks[tc.Thread] = len(tc.Chunks)
	}
	return st, nil
}

// IntactPrefixSize walks the chunk framing of the archive at path and
// returns the byte length of its intact prefix: the 8-byte header plus
// every complete chunk before the first one that is cut off or whose
// length is damaged. It reads chunk headers and skips payloads, so it is
// O(chunks) in time and O(1) in memory. For a cut, the offset is where
// ScanFile and LoadFile salvage to; a damaged length they report as
// corruption instead, but everything from that chunk on is unusable
// either way. A file shorter than the header, or one whose magic is
// wrong, has an intact prefix of 0. A failing read is an error, and so is
// a header with the right magic and a version this build does not read:
// that file is an archive another build can read, and nothing here may
// say how much of it is intact. The typical caller is crash recovery:
// truncating a shard to its intact prefix makes the file a valid, fully
// readable archive prefix again, and the returned size is the durable
// byte offset a resuming writer must continue from; on an error it must
// leave the file alone.
func IntactPrefixSize(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var readErr *fs.PathError
	if err := readHeaderAt(f); err != nil {
		if errors.Is(err, errVersion) || errors.As(err, &readErr) {
			return 0, err
		}
		return 0, nil
	}
	intact, err := walk(f, int64(headerLen), fi.Size(), nil)
	if errors.As(err, &readErr) {
		return 0, err
	}
	return intact, nil
}

// WriteFile saves a trace to path in the format chosen by its
// extension, creating or truncating the file: an archive for ".otf2", a
// JSONL text dump (which no reader takes back) for anything else.
// Writer options apply to the archive format only (JSONL ignores them).
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
