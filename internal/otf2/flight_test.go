package otf2

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/region"
	"repro/internal/trace"
)

// flightTestTrace builds a small deterministic trace plus the matching
// eviction accounting, as a flight snapshot would produce them.
func flightTestTrace(t testing.TB) (*trace.Trace, *FlightInfo) {
	t.Helper()
	reg := region.NewRegistry()
	work := reg.Register("work", "f.go", 1, region.Task)
	tr := &trace.Trace{Threads: map[int][]trace.Event{}}
	retained := 0
	for tid := 0; tid < 3; tid++ {
		for i := 0; i < 10+tid; i++ {
			tr.Threads[tid] = append(tr.Threads[tid], trace.Event{
				Time: int64(100*tid + i), Type: trace.EvEnter, Region: work, TaskID: uint64(tid),
			})
			retained++
		}
	}
	st := &FlightInfo{
		RingChunks: 4, ChunkEvents: 8, RetainedEvents: retained,
		DroppedEvents: 1234, DroppedChunks: 17,
		Threads: []FlightThreadInfo{
			{Thread: 0, DroppedEvents: 1000, DroppedChunks: 10},
			{Thread: 1, DroppedEvents: 200, DroppedChunks: 5},
			{Thread: 2, DroppedEvents: 34, DroppedChunks: 2},
		},
	}
	return tr, st
}

func TestWriteFlightDumpRoundTrip(t *testing.T) {
	tr, st := flightTestTrace(t)
	info := st

	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		var buf bytes.Buffer
		if err := WriteFlightDump(&buf, tr, info, WithCompression(comp)); err != nil {
			t.Fatalf("%v: WriteFlightDump: %v", comp, err)
		}

		// The dump is a normal archive: events round-trip exactly.
		r, err := newReader(bytes.NewReader(buf.Bytes()), region.NewRegistry())
		if err != nil {
			t.Fatalf("%v: NewReader: %v", comp, err)
		}
		got := &trace.Trace{Threads: map[int][]trace.Event{}}
		for {
			tid, ev, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%v: Next: %v", comp, err)
			}
			got.Threads[tid] = append(got.Threads[tid], ev)
		}
		if got.NumEvents() != tr.NumEvents() || len(got.Threads) != len(tr.Threads) {
			t.Fatalf("%v: round-trip lost events: %d/%d", comp, got.NumEvents(), tr.NumEvents())
		}
		for tid, evs := range tr.Threads {
			for i, ev := range evs {
				g := got.Threads[tid][i]
				if g.Time != ev.Time || g.Type != ev.Type || g.TaskID != ev.TaskID || g.Region.Name != ev.Region.Name {
					t.Fatalf("%v: thread %d event %d = %+v, want %+v", comp, tid, i, g, ev)
				}
			}
		}

		// ...and it carries the accounting chunk.
		fi := r.FlightInfo()
		if fi == nil {
			t.Fatalf("%v: reader did not surface FlightInfo", comp)
		}
		if !reflect.DeepEqual(fi, info) {
			t.Fatalf("%v: FlightInfo = %+v, want %+v", comp, fi, info)
		}
	}
}

func TestWriteFlightDumpIndexedAndStatted(t *testing.T) {
	tr, st := flightTestTrace(t)
	path := filepath.Join(t.TempDir(), "dump.otf2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFlightDump(f, tr, st); err != nil {
		t.Fatalf("WriteFlightDump: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	astats, err := StatFile(path)
	if err != nil {
		t.Fatalf("StatFile: %v", err)
	}
	if !astats.Indexed {
		t.Fatal("flight dump has no footer index")
	}
	if astats.Flight == nil {
		t.Fatal("StatFile did not surface the flight accounting")
	}
	if astats.Flight.DroppedEvents != st.DroppedEvents || astats.Flight.DroppedChunks != st.DroppedChunks ||
		astats.Flight.RetainedEvents != st.RetainedEvents {
		t.Fatalf("StatFile flight = %+v, want counts %d/%d/%d",
			astats.Flight, st.RetainedEvents, st.DroppedEvents, st.DroppedChunks)
	}

	// Time-window queries go through the index like any archive.
	a, qst, warn, err := AnalyzeFileQuery(path, Query{}, 1)
	if err != nil || a == nil {
		t.Fatalf("AnalyzeFileQuery: %v", err)
	}
	if warn != "" {
		t.Fatalf("unexpected salvage warning on a complete dump: %s", warn)
	}
	if !qst.Indexed {
		t.Fatal("query did not use the dump's index")
	}
}

func TestWriteFlightDumpNilInfo(t *testing.T) {
	tr, _ := flightTestTrace(t)
	var buf bytes.Buffer
	if err := WriteFlightDump(&buf, tr, nil, WithCompression(CompressionNone)); err != nil {
		t.Fatalf("WriteFlightDump(nil info): %v", err)
	}
	r, err := newReader(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if r.FlightInfo() != nil {
		t.Fatal("nil info produced an accounting chunk")
	}
}

// TestFlightDumpDiskFullSalvage writes a dump onto a nearly-full fake
// disk: the write must surface the injected error, and the intact
// prefix must still open, still state its dropped counts (the
// accounting chunk is the first chunk, ahead of any event data), and
// salvage every fully-written event chunk.
func TestFlightDumpDiskFullSalvage(t *testing.T) {
	tr, st := flightTestTrace(t)
	info := st

	var full bytes.Buffer
	if err := WriteFlightDump(&full, tr, info, WithCompression(CompressionNone)); err != nil {
		t.Fatal(err)
	}

	// Cut the disk just after the first event chunk's worth of bytes.
	capacity := int64(full.Len()) * 2 / 3
	var got bytes.Buffer
	fw := faultinject.NewWriter(&got, faultinject.CapacityBytes(capacity))
	err := WriteFlightDump(fw, tr, info, WithCompression(CompressionNone))
	if err == nil {
		t.Fatal("dump to a full disk did not surface the write error")
	}

	path := filepath.Join(t.TempDir(), "partial.otf2")
	if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// The prefix is salvageable and its accounting is intact.
	if n, err := IntactPrefixSize(path); err != nil || n <= 0 {
		t.Fatalf("IntactPrefixSize = %d, %v", n, err)
	}
	salv, _, _, err := LoadFile(path, region.NewRegistry(), Query{}, 1)
	if err != nil {
		t.Fatalf("LoadFile on partial dump: %v", err)
	}
	if salv.NumEvents() == 0 || salv.NumEvents() >= tr.NumEvents() {
		t.Fatalf("salvaged %d events, want a proper non-empty prefix of %d", salv.NumEvents(), tr.NumEvents())
	}
	astats, err := StatFile(path)
	if err != nil {
		t.Fatalf("StatFile on partial dump: %v", err)
	}
	if astats.Flight == nil || astats.Flight.DroppedEvents != st.DroppedEvents {
		t.Fatalf("partial dump lost the flight accounting: %+v", astats.Flight)
	}
	if astats.Indexed {
		t.Fatal("truncated dump claims a footer index")
	}
}

func TestFlightInfoChunkSkippedByOldReaders(t *testing.T) {
	// Readers must treat a trailing unknown-to-them accounting chunk the
	// way they treat any unknown kind: decoding events still works even
	// when the info chunk is not first (defensive reordering).
	tr, st := flightTestTrace(t)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ids := tr.ThreadIDs()
	if err := w.WriteEvents(ids[0], tr.Threads[ids[0]]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFlightInfo(st); err != nil {
		t.Fatal(err)
	}
	for _, tid := range ids[1:] {
		if err := w.WriteEvents(tid, tr.Threads[tid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatalf("loadSequential with mid-archive accounting chunk: %v", err)
	}
	if got.NumEvents() != tr.NumEvents() {
		t.Fatalf("events = %d, want %d", got.NumEvents(), tr.NumEvents())
	}
}
