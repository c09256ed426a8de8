package trace_test

// The flight recorder is two halves: the open recorder of this package,
// which stages events and lets a reader see its unflushed blocks, and
// the ring of encoded chunks behind it, otf2.Flight. These tests hold
// the pair to the contract the recorder had when both halves lived
// here; internal/otf2 holds the ring to its reference event for event.

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// flightEvent records one event with a deterministic timestamp on the
// given thread.
func flightEvent(f *otf2.Flight, clk *clock.Manual, th *omp.Thread, ts int64) {
	clk.Set(ts)
	f.Recorder().Enter(th, nil, clk.Now())
}

// flightWindow dumps f's window and decodes it.
func flightWindow(t *testing.T, f *otf2.Flight, reg *region.Registry) (*trace.Trace, *otf2.FlightInfo) {
	t.Helper()
	var buf bytes.Buffer
	st, err := f.Dump(&buf)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	tr, _, err := otf2.Load(bytes.NewReader(buf.Bytes()), reg, otf2.Query{}, 1)
	if err != nil {
		t.Fatalf("reading the dump: %v", err)
	}
	return tr, st
}

func TestFlightRecorderEvictsOldestExactly(t *testing.T) {
	// ring=3 chunks of 4 events: after 20 events exactly 5 chunks were
	// sealed, the ring retains the newest 3, so chunks 0 and 1 (events
	// 0..7) were dropped.
	clk := clock.NewManual(0)
	f := otf2.NewFlight(clk, 3, 4)
	th := &omp.Thread{ID: 0}
	for ts := int64(0); ts < 20; ts++ {
		flightEvent(f, clk, th, ts)
	}

	tr, st := flightWindow(t, f, region.NewRegistry())
	if st.RingChunks != 3 || st.ChunkEvents != 4 {
		t.Fatalf("config in stats = %dx%d, want 3x4", st.RingChunks, st.ChunkEvents)
	}
	if st.DroppedChunks != 2 || st.DroppedEvents != 8 {
		t.Fatalf("dropped = %d chunks / %d events, want 2/8", st.DroppedChunks, st.DroppedEvents)
	}
	if st.RetainedEvents != 12 {
		t.Fatalf("retained = %d, want 12", st.RetainedEvents)
	}
	want := make([]trace.Event, 0, 12)
	for ts := int64(8); ts < 20; ts++ {
		want = append(want, trace.Event{Time: ts, Type: trace.EvEnter})
	}
	if !reflect.DeepEqual(tr.Threads[0], want) {
		t.Fatalf("retained window = %v, want times 8..19 in order", tr.Threads[0])
	}
	if len(st.Threads) != 1 || st.Threads[0] != (otf2.FlightThreadInfo{Thread: 0, DroppedEvents: 8, DroppedChunks: 2}) {
		t.Fatalf("per-thread stats = %+v", st.Threads)
	}

	// The stats-only snapshot agrees — three retained chunks of four
	// two-byte records each — and does not disturb recording.
	if now := f.Stats(); !reflect.DeepEqual(now, otf2.FlightStats{FlightInfo: *st, RetainedBytes: 24, ThreadRetained: []int{12}}) {
		t.Fatalf("Stats = %+v, want %+v with 24 bytes and 12 events on thread 0", now, st)
	}
	flightEvent(f, clk, th, 20)
	if st2 := f.Stats(); st2.RetainedEvents != 13 {
		t.Fatalf("retained after one more event = %d, want 13", st2.RetainedEvents)
	}
}

func TestFlightRecorderPartialChunkRetained(t *testing.T) {
	clk := clock.NewManual(0)
	f := otf2.NewFlight(clk, 2, 4)
	th := &omp.Thread{ID: 3}
	for ts := int64(0); ts < 6; ts++ { // one sealed chunk + 2 in the open block
		flightEvent(f, clk, th, ts)
	}
	tr, st := flightWindow(t, f, region.NewRegistry())
	if st.RetainedEvents != 6 || st.DroppedEvents != 0 || st.DroppedChunks != 0 {
		t.Fatalf("stats = %+v, want 6 retained, nothing dropped", st)
	}
	evs := tr.Threads[3]
	if len(evs) != 6 {
		t.Fatalf("window holds %d events, want 6", len(evs))
	}
	for i, ev := range evs {
		if ev.Time != int64(i) {
			t.Fatalf("event %d time = %d, want %d (ordered, open block last)", i, ev.Time, i)
		}
	}
}

func TestFlightRecorderDefaultsAndAccessors(t *testing.T) {
	f := otf2.NewFlight(clock.NewManual(0), 0, 0)
	if st := f.Stats(); st.RingChunks != otf2.DefaultFlightRingChunks || st.ChunkEvents != trace.DefaultChunkEvents {
		t.Fatalf("default ring = %dx%d, want %dx%d", st.RingChunks, st.ChunkEvents, otf2.DefaultFlightRingChunks, trace.DefaultChunkEvents)
	}

	// The recording half alone: an open recorder shows its unflushed
	// block, a streaming one shows none.
	th := &omp.Thread{ID: 5}
	open := trace.NewFlightRecorder(clock.NewManual(7), 0, 4)
	for i := 0; i < 6; i++ { // one block flushed (and dropped), two events open
		open.Enter(th, nil, 7)
	}
	visits := 0
	open.OpenBlocks(func(thread int, evs []trace.Event) {
		visits++
		if thread != 5 || len(evs) != 2 || evs[0] != (trace.Event{Time: 7, Type: trace.EvEnter}) {
			t.Fatalf("open block of thread %d = %v, want two events of thread 5", thread, evs)
		}
	})
	if visits != 1 {
		t.Fatalf("OpenBlocks visited %d threads, want 1", visits)
	}
	streaming := trace.NewStreamingRecorder(clock.NewManual(0), nopSink{}, 4)
	streaming.Enter(&omp.Thread{ID: 0}, nil, 0)
	streaming.OpenBlocks(func(thread int, evs []trace.Event) {
		if len(evs) != 0 {
			t.Fatalf("a streaming recorder shows an open block: %v", evs)
		}
	})
}

type nopSink struct{}

func (nopSink) WriteEvents(int, []trace.Event) error { return nil }

func TestFlightRecorderFinishReturnsWindowAndResets(t *testing.T) {
	clk := clock.NewManual(0)
	f := otf2.NewFlight(clk, 2, 2)
	th := &omp.Thread{ID: 0}
	for ts := int64(0); ts < 7; ts++ {
		flightEvent(f, clk, th, ts)
	}
	tr, _ := flightWindow(t, f, region.NewRegistry())
	// 3 sealed chunks, ring keeps 2 (times 2..5) + open block (time 6).
	if got := len(tr.Threads[0]); got != 5 {
		t.Fatalf("final window = %d events, want 5", got)
	}
	if tr.Threads[0][0].Time != 2 || tr.Threads[0][4].Time != 6 {
		t.Fatalf("window spans %d..%d, want 2..6", tr.Threads[0][0].Time, tr.Threads[0][4].Time)
	}
	// Release let the rings and the staging blocks go: counters start over.
	f.Release()
	if st := f.Stats(); st.RetainedEvents != 0 || st.RetainedBytes != 0 || len(st.Threads) != 0 {
		t.Fatalf("stats after Release = %+v, want nothing held", st)
	}
	th2 := &omp.Thread{ID: 0}
	flightEvent(f, clk, th2, 100)
	if st := f.Stats(); st.RetainedEvents != 1 || st.DroppedEvents != 0 {
		t.Fatalf("stats after Release+1 event = %+v, want fresh", st)
	}
}

// TestFlightRecorderBoundedMemory is the acceptance scenario of the
// flight recorder: 10 million events through a ring of 8 stay within
// the fixed window bound, with every evicted event accounted for — and
// steady-state recording (ring already full) does not allocate.
func TestFlightRecorderBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-event soak skipped in -short")
	}
	const ring, chunk, total = 8, 256, 10_000_000
	clk := clock.NewManual(0)
	f := otf2.NewFlight(clk, ring, chunk)
	th := &omp.Thread{ID: 0}
	for ts := int64(0); ts < total; ts++ {
		flightEvent(f, clk, th, ts)
	}
	st := f.Stats()
	bound := (ring + 1) * chunk // ring plus the block being filled
	if st.RetainedEvents > bound {
		t.Fatalf("retained %d events, bound is %d", st.RetainedEvents, bound)
	}
	if got := uint64(st.RetainedEvents) + st.DroppedEvents; got != total {
		t.Fatalf("retained+dropped = %d, want %d (every event accounted for)", got, total)
	}
	if st.RetainedBytes > 8*ring*chunk {
		t.Fatalf("the ring holds %d bytes for %d events", st.RetainedBytes, ring*chunk)
	}
	tr, _ := flightWindow(t, f, region.NewRegistry())
	evs := tr.Threads[0]
	if int64(evs[len(evs)-1].Time) != total-1 {
		t.Fatalf("window does not end at the newest event: %d", evs[len(evs)-1].Time)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time != evs[i-1].Time+1 {
			t.Fatalf("window not contiguous at %d: %d after %d", i, evs[i].Time, evs[i-1].Time)
		}
	}

	// Steady state: the ring is full, so a full block is encoded into
	// the evicted chunk's buffer — no allocation per event.
	ts := int64(total)
	if allocs := testing.AllocsPerRun(4096, func() {
		flightEvent(f, clk, th, ts)
		ts++
	}); allocs != 0 {
		t.Fatalf("steady-state flight recording allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestFlightRecorderConcurrentSnapshot dumps while 4 threads record
// (run under -race): dumps must be internally consistent, and the final
// quiesced dump must equal the reference window computed from what each
// goroutine wrote.
func TestFlightRecorderConcurrentSnapshot(t *testing.T) {
	const threads, perThread, ring, chunk = 4, 5000, 4, 64
	reg := region.NewRegistry()
	work := reg.Register("work", "f.go", 1, region.Task)
	f := otf2.NewFlight(clock.NewManual(0), ring, chunk)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, tk := &omp.Thread{ID: id}, &omp.Task{Region: work}
			<-start
			for seq := uint64(0); seq < perThread; seq++ {
				tk.ID = seq
				f.Recorder().TaskBegin(th, tk, 0)
			}
		}(id)
	}
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr, st := flightWindow(t, f, reg)
			got := 0
			for _, evs := range tr.Threads {
				got += len(evs)
				for i := 1; i < len(evs); i++ {
					if evs[i].TaskID != evs[i-1].TaskID+1 {
						t.Error("dumped window is not a contiguous run")
						return
					}
				}
			}
			if got != st.RetainedEvents {
				t.Errorf("dump has %d events but stats claim %d", got, st.RetainedEvents)
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	snaps.Wait()

	// Quiesced: the window is exactly the newest events of each thread.
	tr, st := flightWindow(t, f, reg)
	for id := 0; id < threads; id++ {
		evs := tr.Threads[id]
		first := perThread - len(evs)
		want := make([]trace.Event, 0, len(evs))
		for seq := uint64(first); seq < perThread; seq++ {
			want = append(want, trace.Event{Type: trace.EvTaskBegin, Region: work, TaskID: seq})
		}
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("thread %d window diverges from reference (len %d)", id, len(evs))
		}
	}
	if got := uint64(st.RetainedEvents) + st.DroppedEvents; got != threads*perThread {
		t.Fatalf("retained+dropped = %d, want %d", got, threads*perThread)
	}
}
