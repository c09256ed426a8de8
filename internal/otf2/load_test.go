package otf2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/region"
	"repro/internal/trace"
)

// drippingArchive streams tr through one Writer in small batches that
// rotate over the threads, with a region nobody has seen before every
// few batches — a daemon shard's shape: 'D' chunks appear mid-stream,
// between the event chunks that need them.
func drippingArchive(t testing.TB, tr *trace.Trace, opts ...WriterOption) []byte {
	t.Helper()
	reg := region.NewRegistry()
	var buf bytes.Buffer
	w := NewWriter(&buf, append([]WriterOption{WithChunkBytes(1024)}, opts...)...)
	left := make(map[int][]trace.Event, len(tr.Threads))
	for tid, evs := range tr.Threads {
		left[tid] = append([]trace.Event(nil), evs...)
	}
	for round := 0; len(left) > 0; round++ {
		for _, tid := range tr.ThreadIDs() {
			evs := left[tid]
			if len(evs) == 0 {
				delete(left, tid)
				continue
			}
			n := min(len(evs), 37)
			if round%3 == 0 {
				evs[0].Region = reg.Register(fmt.Sprintf("late.%d.%d", tid, round), "drip.go", round, region.UserFunction)
			}
			if err := w.WriteEvents(tid, evs[:n]); err != nil {
				t.Fatal(err)
			}
			left[tid] = evs[n:]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// emptyChunkArchive writes tr with zero-event chunks — which the Writer
// never seals but the format allows — spliced in and indexed: one at
// the start of each thread, one in the middle, and two that are all a
// thread of their own (999) ever holds.
func emptyChunkArchive(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, WithChunkBytes(1024))
	empty := func(tid int) {
		tb := w.threadBuf(tid)
		var head [2 * binary.MaxVarintLen64]byte
		n := binary.PutVarint(head[:], int64(tid))
		n += binary.PutUvarint(head[n:], 0)
		w.iomu.Lock()
		w.flushDefsLocked()
		w.chunkMeta[tid] = append(w.chunkMeta[tid], ChunkRef{Offset: w.off, BaseTime: tb.lastTime, MinTime: tb.lastTime, MaxTime: tb.lastTime})
		w.writeChunkLocked(chunkEvents, head[:n], nil)
		w.iomu.Unlock()
	}
	for _, tid := range tr.ThreadIDs() {
		evs := tr.Threads[tid]
		empty(tid)
		if err := w.WriteEvents(tid, evs[:len(evs)/2]); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		empty(tid)
		empty(999)
		if err := w.WriteEvents(tid, evs[len(evs)/2:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// plainReader hides everything but Read: an archive arriving on a pipe.
type plainReader struct{ r io.Reader }

func (p plainReader) Read(b []byte) (int, error) { return p.r.Read(b) }

// loadArchives is the equality matrix's inputs: every kind of archive
// the repository produces, plus the shapes only the format allows, from
// traces of tasks tasks a thread (the fuzz targets want them small).
func loadArchives(t testing.TB, tasks int) map[string][]byte {
	tr := benchTrace(4, tasks)
	flightTr, flightSt := flightTestTrace(t)
	var flight bytes.Buffer
	if err := WriteFlightDump(&flight, flightTr, flightSt); err != nil {
		t.Fatal(err)
	}
	write := func(tr *trace.Trace, opts ...WriterOption) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, tr, append([]WriterOption{WithChunkBytes(1024)}, opts...)...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := write(tr)
	ix, err := ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mid := ix.Threads[2].Chunks[len(ix.Threads[2].Chunks)/2].Offset
	flate := write(tr, WithCompression(CompressionFlate))
	return map[string][]byte{
		"v4-raw":       raw,
		"v4-flate":     flate,
		"no-index":     raw[:ix.end],
		"cut":          raw[:mid+5],
		"flight":       flight.Bytes(),
		"shard":        drippingArchive(t, tr),
		"shard-flate":  drippingArchive(t, tr, WithCompression(CompressionFlate)),
		"empty-chunks": emptyChunkArchive(t, tr),
		"one-thread":   write(benchTrace(1, 3*tasks)),
		"64-threads":   write(benchTrace(64, tasks/15)),
		"no-events":    write(&trace.Trace{}),
	}
}

// memoryOf holds data in a Memory, written in pieces that fit its
// segments in no way.
func memoryOf(data []byte) *Memory {
	m := new(Memory)
	for piece := 1; len(data) > 0; piece = piece*7%9973 + 1 {
		n, _ := m.Write(data[:min(piece, len(data))])
		data = data[n:]
	}
	m.Clip()
	return m
}

// TestMemory holds a Memory against the bytes written into it: whole,
// at every kind of offset, and past its end.
func TestMemory(t *testing.T) {
	data := make([]byte, 3*MemorySegment+MemorySegment/3)
	rand.New(rand.NewSource(17)).Read(data)
	m := memoryOf(data)
	if got := bytes.Join(m.Segments(), nil); !bytes.Equal(got, data) {
		t.Fatalf("the segments hold %d bytes, not the %d written", len(got), len(data))
	}
	if last := m.Segments()[3]; cap(last) > len(last)*5/4 { // the allocator's size classes round up by an eighth at most
		t.Errorf("after Clip the last segment holds %d bytes in %d", len(last), cap(last))
	}
	if got, err := io.ReadAll(m.Reader()); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reading it through: %d bytes, err %v", len(got), err)
	}
	for _, c := range []struct{ off, n int }{
		{0, 10}, {MemorySegment - 3, 7}, {MemorySegment, MemorySegment}, {5, 3 * MemorySegment}, {len(data) - 4, 4},
	} {
		buf := make([]byte, c.n)
		if n, err := m.ReadAt(buf, int64(c.off)); n != c.n || err != nil || !bytes.Equal(buf, data[c.off:c.off+c.n]) {
			t.Errorf("ReadAt(%d bytes at %d) = %d, %v", c.n, c.off, n, err)
		}
	}
	buf := make([]byte, 8)
	if n, err := m.ReadAt(buf, int64(len(data)-3)); n != 3 || err != io.EOF || !bytes.Equal(buf[:3], data[len(data)-3:]) {
		t.Errorf("ReadAt across the end = %d, %v, want 3 bytes and io.EOF", n, err)
	}
	if n, err := m.ReadAt(buf, int64(len(data))+5); n != 0 || err != io.EOF {
		t.Errorf("ReadAt past the end = %d, %v, want io.EOF", n, err)
	}
	if n, err := new(Memory).ReadAt(buf, 0); n != 0 || err != io.EOF {
		t.Errorf("ReadAt of an empty Memory = %d, %v, want io.EOF", n, err)
	}
}

// TestMemoryDiscard writes a Memory at one end and discards it at the
// other, as a send window does: what lies between reads as it was
// written and is viewed where it lies, what was discarded reads as
// nothing, and however much goes through, the Memory holds no more
// segments than its longest stretch took.
func TestMemoryDiscard(t *testing.T) {
	const keep = 3*MemorySegment + 100 // bytes kept behind the end
	data := make([]byte, 40*MemorySegment)
	rand.New(rand.NewSource(23)).Read(data)
	var m Memory
	for off, piece := 0, 1; off < len(data); piece = piece*7%9973 + 1 {
		n, _ := m.Write(data[off:min(off+piece, len(data))])
		off += n
		from := max(off-keep, 0)
		m.Discard(int64(from))
		if got := bytes.Join(m.Views(nil, int64(from), int64(off-from)), nil); !bytes.Equal(got, data[from:off]) {
			t.Fatalf("with %d bytes written, the views from %d on are not what was written", off, from)
		}
		buf := make([]byte, 2*MemorySegment)
		at := max(from-MemorySegment-1, 0) // a read from before what is kept reads nothing
		if n, err := m.ReadAt(buf, int64(at)); at < from/MemorySegment*MemorySegment && (n != 0 || err != io.EOF) {
			t.Fatalf("with %d bytes written and %d discarded, ReadAt(%d) = %d, %v", off, from, at, n, err)
		}
		want := data[from:min(from+len(buf), off)]
		if n, _ := m.ReadAt(buf, int64(from)); !bytes.Equal(buf[:n], want) {
			t.Fatalf("with %d bytes written, ReadAt(%d) is not what was written", off, from)
		}
	}
	if most := int64(keep/MemorySegment+3) * MemorySegment; m.Held() > most {
		t.Errorf("the Memory holds %d bytes for a stretch of %d written in pieces below 10000", m.Held(), keep)
	}
	// A view outlives the writes that follow it, and Discard moves no byte.
	view := m.Views(nil, int64(len(data)-keep), keep)
	first := &view[0][0]
	if _, err := m.Write(data[:MemorySegment]); err != nil {
		t.Fatal(err)
	}
	m.Discard(int64(len(data) - keep))
	if again := m.Views(nil, int64(len(data)-keep), keep); &again[0][0] != first || !bytes.Equal(bytes.Join(view, nil), data[len(data)-keep:]) {
		t.Error("a view changed, or its bytes moved, under a Write and a Discard")
	}
}

// TestLoadMatrix holds every load against the sequential ReadAll: each
// archive kind, from an *os.File, a *bytes.Reader, a Memory and a plain
// io.Reader, at one, two and eight workers. The planned path (an indexed archive
// on a random-access source) and the fallback (anything else) must both
// return what ReadAll returns, error included.
func TestLoadMatrix(t *testing.T) {
	dir := t.TempDir()
	for name, data := range loadArchives(t, 600) {
		want, werr := loadSequential(bytes.NewReader(data), region.NewRegistry())
		if truncated := name == "cut"; errors.Is(werr, ErrTruncated) != truncated || (werr != nil && !truncated) {
			t.Fatalf("%s: loadSequential: %v", name, werr)
		}
		if name == "cut" && want.NumEvents() == 0 {
			t.Fatal("cut: no intact prefix to salvage")
		}
		if name == "empty-chunks" {
			if _, ok := want.Threads[999]; ok {
				t.Fatal("empty-chunks: the reference holds a thread without events")
			}
		}
		path := filepath.Join(dir, name+Ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sources := map[string]func() (io.Reader, func()){
			"bytes.Reader": func() (io.Reader, func()) { return bytes.NewReader(data), func() {} },
			"Memory":       func() (io.Reader, func()) { return memoryOf(data).Reader(), func() {} },
			"io.Reader":    func() (io.Reader, func()) { return plainReader{bytes.NewReader(data)}, func() {} },
			"os.File": func() (io.Reader, func()) {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				return f, func() { f.Close() }
			},
		}
		for sname, open := range sources {
			for _, workers := range []int{1, 2, 8} {
				r, done := open()
				got, err := ReadAllParallel(r, region.NewRegistry(), workers)
				done()
				if (err == nil) != (werr == nil) || errors.Is(err, ErrTruncated) != errors.Is(werr, ErrTruncated) {
					t.Fatalf("%s from %s, %d workers: err %v, sequential %v", name, sname, workers, err, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s from %s, %d workers: the load differs from ReadAll (%d events, want %d)",
						name, sname, workers, got.NumEvents(), want.NumEvents())
				}
			}
		}
		// The same through the file API, where the loads of the tools
		// start.
		got, err := ReadFile(path, region.NewRegistry(), 2)
		if errors.Is(err, ErrTruncated) != errors.Is(werr, ErrTruncated) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ReadFile differs from ReadAll (err %v)", name, err)
		}
	}
}

// TestLoadTakesThePlan pins which inputs are planned from their index:
// those report Indexed, the ones planned from their framing do not. A
// plain stream is buffered, then planned like any other input.
func TestLoadTakesThePlan(t *testing.T) {
	for name, data := range loadArchives(t, 600) {
		wantIndexed := name != "no-index" && name != "cut"
		_, st, err := Load(bytes.NewReader(data), region.NewRegistry(), Query{}, 2)
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Indexed != wantIndexed {
			t.Errorf("%s on a bytes.Reader: Indexed = %v, want %v", name, st.Indexed, wantIndexed)
		}
		if _, st, _ := Load(memoryOf(data).Reader(), region.NewRegistry(), Query{}, 2); st.Indexed != wantIndexed {
			t.Errorf("%s in a Memory: Indexed = %v, want %v", name, st.Indexed, wantIndexed)
		}
		if _, st, _ := Load(plainReader{bytes.NewReader(data)}, region.NewRegistry(), Query{}, 2); st.Indexed != wantIndexed {
			t.Errorf("%s on a plain io.Reader: Indexed = %v, want %v", name, st.Indexed, wantIndexed)
		}
	}
}

// TestWindowedLoadMatchesFilter holds 50 seeded windows per archive —
// some cutting inside chunks, some inside none, some with a thread
// subset — against q.Filter of the sequential read.
func TestWindowedLoadMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for name, data := range loadArchives(t, 600) {
		full, err := loadSequential(bytes.NewReader(data), region.NewRegistry())
		if err != nil && !errors.Is(err, ErrTruncated) {
			t.Fatal(err)
		}
		minT, maxT := int64(math.MaxInt64), int64(math.MinInt64)
		for _, evs := range full.Threads {
			for _, ev := range evs {
				minT, maxT = min(minT, ev.Time), max(maxT, ev.Time)
			}
		}
		if minT > maxT {
			minT, maxT = 0, 1
		}
		span := maxT - minT + 1
		tids := full.ThreadIDs()
		for i := 0; i < 50; i++ {
			lo := minT - span/10 + rng.Int63n(span+span/5)
			q := Query{Windowed: true, MinTime: lo, MaxTime: lo + rng.Int63n(span/2+1)}
			if i%3 == 0 && len(tids) > 0 {
				q.Threads = []int{tids[rng.Intn(len(tids))], tids[rng.Intn(len(tids))]}
			}
			want := q.Filter(full)
			for _, workers := range []int{1, 4} {
				got, _, err := Load(bytes.NewReader(data), region.NewRegistry(), q, workers)
				if err != nil && !errors.Is(err, ErrTruncated) {
					t.Fatalf("%s %v: %v", name, q, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v, %d workers: the windowed load (%d events) differs from Filter(ReadAll) (%d)",
						name, q, workers, got.NumEvents(), want.NumEvents())
				}
			}
		}
	}
}

// reindexed returns archive with its footer index rewritten by patch:
// everything up to the index chunk is kept byte for byte.
func reindexed(t testing.TB, archive []byte, patch func(ix *Index)) []byte {
	t.Helper()
	ix, err := ReadIndex(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	patch(ix)
	w := &Writer{defOffs: ix.DefOffsets, chunkMeta: make(map[int][]ChunkRef)}
	for _, tc := range ix.Threads {
		w.chunkMeta[tc.Thread] = tc.Chunks
	}
	return withIndex(archive[:ix.end], w.appendIndexLocked(nil))
}

// withIndex appends an index chunk holding payload, and the trailer
// pointing at it, to the chunk stream body.
func withIndex(body, payload []byte) []byte {
	out := append([]byte(nil), body...)
	out = append(out, chunkIndex)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = append(out, chunkTrailer, trailerPayloadLen)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return append(out, trailerMagic...)
}

// TestIndexLiesAreCorruption is the regression test for the unchecked
// index: every indexed path must hold the index's claims against the
// chunks it reads, and say "corrupt" where they differ. Before, a wrong
// count was ignored (the payload's was used) while StatFile and the
// bottleneck size hints reported the index's.
func TestIndexLiesAreCorruption(t *testing.T) {
	tr := benchTrace(3, 300)
	var buf bytes.Buffer
	if err := Write(&buf, tr, WithChunkBytes(1024)); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()
	if same := reindexed(t, archive, func(*Index) {}); !bytes.Equal(same, archive) {
		t.Fatal("re-encoding the index unchanged changes the archive: the patches below prove nothing")
	}
	lies := map[string]func(ix *Index){
		"count too high":  func(ix *Index) { ix.Threads[1].Chunks[2].Events++ },
		"count too low":   func(ix *Index) { ix.Threads[1].Chunks[2].Events-- },
		"count absurd":    func(ix *Index) { ix.Threads[0].Chunks[0].Events = 1 << 40 },
		"count overflows": func(ix *Index) { ix.Threads[0].Chunks[0].Events = math.MaxUint64 },
		"thread id":       func(ix *Index) { ix.Threads[2].Thread = 77 },
		"threads swapped": func(ix *Index) {
			ix.Threads[0].Chunks, ix.Threads[1].Chunks = ix.Threads[1].Chunks, ix.Threads[0].Chunks
		},
		"base time":            func(ix *Index) { ix.Threads[1].Chunks[3].BaseTime += 5 },
		"first base time":      func(ix *Index) { ix.Threads[0].Chunks[0].BaseTime = 9 },
		"chunk omitted":        func(ix *Index) { tc := &ix.Threads[1]; tc.Chunks = tc.Chunks[:len(tc.Chunks)-1] },
		"thread omitted":       func(ix *Index) { ix.Threads = ix.Threads[:2] },
		"definitions omitted":  func(ix *Index) { ix.DefOffsets = nil },
		"offset inside chunk":  func(ix *Index) { ix.Threads[0].Chunks[1].Offset += 3 },
		"chunk listed twice":   func(ix *Index) { ix.Threads[2].Chunks[0] = ix.Threads[0].Chunks[0] },
		"definition as events": func(ix *Index) { ix.Threads[0].Chunks[0].Offset = ix.DefOffsets[0] },
	}
	zero := Query{}
	for name, lie := range lies {
		bad := reindexed(t, archive, lie)
		ix, err := ReadIndex(bytes.NewReader(bad))
		if err != nil {
			t.Fatalf("%s: the patched index must still decode: %v", name, err)
		}
		if n := ix.NumEvents(); n < 0 {
			t.Errorf("%s: NumEvents overflowed to %d", name, n)
		}
		paths := map[string]func() error{
			"ReadAllParallel": func() error { _, err := ReadAllParallel(bytes.NewReader(bad), region.NewRegistry(), 2); return err },
			"Load": func() error {
				_, _, err := Load(bytes.NewReader(bad), region.NewRegistry(), zero, 1)
				return err
			},
			"Scan, two workers": func() error { _, err := analyzeParallel(bytes.NewReader(bad), 2); return err },
			"Scan":              func() error { _, _, err := analyzeQuery(bytes.NewReader(bad), zero, 1); return err },
			"Scan into a Collector": func() error {
				_, _, err := analyzeBottlenecks(bytes.NewReader(bad), zero, 2)
				return err
			},
		}
		for pname, run := range paths {
			if err := run(); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("%s: %s returned %v, want a corruption error", name, pname, err)
			}
		}
	}

	// A windowed query reads some chunks only: the lies it can see are
	// those about the chunks it reads (a base time, when it reads the
	// chunk before as well).
	ix, err := ReadIndex(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	victims := ix.Threads[1].Chunks[2:4]
	q := Query{Windowed: true, MinTime: victims[0].MinTime, MaxTime: victims[1].MaxTime}
	for _, name := range []string{"count too high", "count too low", "base time"} {
		bad := reindexed(t, archive, lies[name])
		if _, _, err := Load(bytes.NewReader(bad), region.NewRegistry(), q, 2); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: windowed Load returned %v, want a corruption error", name, err)
		}
		if _, _, err := analyzeBottlenecks(bytes.NewReader(bad), q, 2); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: windowed Scan into a Collector returned %v, want a corruption error", name, err)
		}
	}
	if _, _, err := Load(bytes.NewReader(archive), region.NewRegistry(), q, 2); err != nil {
		t.Fatalf("the window on the honest archive: %v", err)
	}
}

// TestRegionIDLimit: region IDs index a table, so a definition far out
// of range is corruption, not a table of that size. A sparse ID within
// range is accepted, as it always was.
func TestRegionIDLimit(t *testing.T) {
	archive := func(id uint64) []byte {
		defs := []byte{defString, 0, 1, 'r', defRegion}
		defs = binary.AppendUvarint(defs, id)
		defs = append(defs, 0, 0, 1, byte(region.Task)) // name, file, line, type
		// Thread 0, one event: an Enter of region id (escaped), delta +1.
		events := []byte{0, 1, byte(trace.EvEnter) | headRefEscape<<headRefShift}
		events = binary.AppendUvarint(events, id+1-headRefEscape)
		events = append(events, 1)
		out := append([]byte(magic+"\x04"), chunkDefs, byte(len(defs)))
		out = append(append(out, defs...), chunkEvents, byte(len(events)))
		return append(out, events...)
	}
	tr, err := loadSequential(bytes.NewReader(archive(300)), region.NewRegistry())
	if err != nil || tr.NumEvents() != 1 || tr.Threads[0][0].Region.Name != "r" {
		t.Fatalf("region id 300: %v", err)
	}
	if _, err := loadSequential(bytes.NewReader(archive(maxRegions)), region.NewRegistry()); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("region id %d: %v, want a corruption error", maxRegions, err)
	}
}

// FuzzDecodeIndex throws arbitrary bytes at the index decoder: it must
// not panic, and whatever it builds must stay within a small multiple of
// the input — lists are sized by what the payload can hold, never by the
// counts it declares.
func FuzzDecodeIndex(f *testing.F) {
	archives := loadArchives(f, 60)
	for _, name := range fixtureNames {
		archives["fixture-"+name] = readFixture(f, name)
	}
	for _, data := range archives {
		if ix, err := ReadIndex(bytes.NewReader(data)); err == nil {
			_, payload, err := ReadChunkAt(bytes.NewReader(data), ix.end)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})                   // 2^32 definition offsets, none present
	f.Add([]byte{0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}) // one thread, 2^48 chunks
	f.Add([]byte{0, 2, 2, 0, 2, 0})                               // two threads of one ID
	f.Fuzz(func(t *testing.T, payload []byte) {
		ix, err := decodeIndex(payload, 1<<40)
		if err != nil {
			return
		}
		if n := ix.NumEvents(); n < 0 {
			t.Fatalf("NumEvents = %d", n)
		}
		held := cap(ix.DefOffsets) + 2*cap(ix.Threads)
		for _, tc := range ix.Threads {
			held += 5 * cap(tc.Chunks)
		}
		if held > len(payload) {
			t.Fatalf("a %d-byte index decoded into room for %d bytes' worth of entries", len(payload), held)
		}
	})
}

// FuzzIndexedLoad keeps an archive's chunk stream and replaces its index
// payload and trailer with the fuzzer's bytes: the load must either fail
// or return exactly what the sequential read of the same bytes returns.
// It must never panic, and never size anything by a count the chunks do
// not back.
func FuzzIndexedLoad(f *testing.F) {
	archives := loadArchives(f, 60)
	names := []string{"v4-raw", "v4-flate", "flight", "shard", "shard-flate", "empty-chunks", "64-threads"}
	for i, name := range names {
		data := archives[name]
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		_, payload, err := ReadChunkAt(bytes.NewReader(data), ix.end)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), payload, data[len(data)-trailerLen:])
		f.Add(uint8(i), payload, append([]byte{'0'}, data[len(data)-trailerLen:]...)) // a stray byte before the trailer
		f.Add(uint8(i), payload[:len(payload)/2], data[len(data)-trailerLen:])        // an index cut in half
	}
	f.Fuzz(func(t *testing.T, which uint8, index, trailer []byte) {
		data := archives[names[int(which)%len(names)]]
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		mutated := withIndex(data[:ix.end], index)
		mutated = append(mutated[:len(mutated)-trailerLen], trailer...)
		got, err := ReadAllParallel(bytes.NewReader(mutated), region.NewRegistry(), 2)
		if err != nil && !errors.Is(err, ErrTruncated) {
			return // refused
		}
		want, werr := loadSequential(bytes.NewReader(mutated), region.NewRegistry())
		if (werr == nil) != (err == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("the load returned %d events (err %v), the sequential read %d (err %v)", got.NumEvents(), err, want.NumEvents(), werr)
		}
		// What a load accepts, the analyses accept and agree on.
		a, _, aerr := analyzeBottlenecks(bytes.NewReader(mutated), Query{}, 2)
		if aerr != nil && !errors.Is(aerr, ErrTruncated) {
			t.Fatalf("the load accepted an archive Scan into a Collector refuses: %v", aerr)
		}
		if ref := bottleneck.Analyze(want); !reflect.DeepEqual(a, ref) {
			t.Fatal("Scan into a Collector differs from the analysis of the loaded trace")
		}
	})
}
