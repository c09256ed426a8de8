package otf2

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
	"repro/internal/trace"
)

// flightPair feeds one event stream to a Flight and to the reference.
type flightPair struct {
	f   *Flight
	ref *refFlight
	reg *region.Registry
	ths map[int]*omp.Thread
}

func newFlightPair(reg *region.Registry, ring, chunk int) *flightPair {
	p := &flightPair{ref: newRefFlight(ring, chunk), reg: reg, ths: make(map[int]*omp.Thread)}
	p.f = NewFlight(clock.NewManual(0), ring, chunk)
	return p
}

func (p *flightPair) record(id int, ev trace.Event) {
	th := p.ths[id]
	if th == nil {
		th = &omp.Thread{ID: id}
		p.ths[id] = th
	}
	p.f.Recorder().Record(th, ev)
	p.ref.record(id, ev)
}

// withoutBytes is st less the one thing the reference does not count.
func withoutBytes(st FlightStats) FlightStats {
	st.RetainedBytes = 0
	return st
}

// readSequential walks an archive chunk by chunk with no help from its
// index, and returns its events and its accounting chunk.
func readSequential(data []byte, reg *region.Registry) (*trace.Trace, *FlightInfo, error) {
	r, err := newReader(bytes.NewReader(data), reg)
	if err != nil {
		return nil, nil, err
	}
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	for {
		tid, ev, err := r.Next()
		if err == io.EOF {
			return tr, r.FlightInfo(), nil
		}
		if err != nil {
			return tr, r.FlightInfo(), err
		}
		tr.Threads[tid] = append(tr.Threads[tid], ev)
	}
}

// sameEvents reports whether two traces hold the same events (as
// reflect.DeepEqual would, at a fraction of the cost).
func sameEvents(a, b *trace.Trace) bool {
	if len(a.Threads) != len(b.Threads) {
		return false
	}
	for id, evs := range a.Threads {
		if !slices.Equal(evs, b.Threads[id]) {
			return false
		}
	}
	return true
}

// check dumps the window and holds the dump, its accounting and the live
// stats to the reference's.
func (p *flightPair) check(t *testing.T, label string, opts ...WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	st, err := p.f.Dump(&buf, opts...)
	if err != nil {
		t.Fatalf("%s: Dump: %v", label, err)
	}
	want, wantSt := p.ref.snapshot()
	if !reflect.DeepEqual(st, &wantSt.FlightInfo) {
		t.Fatalf("%s: the dump's accounting is %+v, the reference's %+v", label, st, wantSt.FlightInfo)
	}
	if got := withoutBytes(p.f.Stats()); !reflect.DeepEqual(got, wantSt) {
		t.Fatalf("%s: Stats is %+v, the reference's %+v", label, got, wantSt)
	}
	got, info, err := readSequential(buf.Bytes(), p.reg)
	if err != nil {
		t.Fatalf("%s: reading the dump: %v", label, err)
	}
	if info != nil && len(info.Threads) == 0 {
		info.Threads = nil
	}
	if !reflect.DeepEqual(info, st) {
		t.Fatalf("%s: the dump's accounting chunk is %+v, want %+v", label, info, st)
	}
	if !sameEvents(got, want) {
		for id, evs := range want.Threads {
			g := got.Threads[id]
			for i := 0; i < len(evs) && i < len(g); i++ {
				if g[i] != evs[i] {
					t.Fatalf("%s: thread %d event %d of %d is %+v, the reference's %+v", label, id, i, len(evs), g[i], evs[i])
				}
			}
			if len(g) != len(evs) {
				t.Fatalf("%s: thread %d has %d events, the reference %d", label, id, len(g), len(evs))
			}
		}
		t.Fatalf("%s: the dump has threads %v, the reference %v", label, got.ThreadIDs(), want.ThreadIDs())
	}
	// The planned load validates every chunk's base time against the
	// chunk before it.
	planned, err := ReadAllParallel(bytes.NewReader(buf.Bytes()), p.reg, 2)
	if err != nil || !sameEvents(planned, want) {
		t.Fatalf("%s: the planned load of the dump differs from the reference (err %v)", label, err)
	}
	return buf.Bytes()
}

// randomEvents returns a generator of events of every type, with the
// fields their listener methods keep, region and task ids of every
// encoded width, and times that now and then stand still or step back.
func randomEvents(rng *rand.Rand, reg *region.Registry) func(now *int64) trace.Event {
	var regs []*region.Region
	for i := 0; i < 200; i++ {
		regs = append(regs, reg.Register(fmt.Sprintf("r%d", i), "ring.go", i, region.UserFunction))
	}
	pick := func() *region.Region {
		if rng.Intn(4) > 0 {
			return regs[rng.Intn(3)]
		}
		return regs[rng.Intn(len(regs))]
	}
	return func(now *int64) trace.Event {
		switch rng.Intn(8) {
		case 0:
		case 1:
			*now -= int64(rng.Intn(40))
		case 2:
			*now += int64(rng.Intn(1 << 30))
		default:
			*now += int64(rng.Intn(900))
		}
		ev := trace.Event{Time: *now, Type: trace.EventType(rng.Intn(9))}
		switch ev.Type {
		case trace.EvEnter, trace.EvExit, trace.EvTaskCreateBegin:
			ev.Region = pick()
		case trace.EvTaskCreateEnd, trace.EvTaskBegin, trace.EvTaskEnd:
			ev.Region, ev.TaskID = pick(), uint64(rng.Int63())>>uint(rng.Intn(64))
		case trace.EvTaskSwitch:
			if rng.Intn(2) == 0 {
				ev.Region, ev.TaskID = pick(), 1+uint64(rng.Intn(1<<20))
			}
		}
		return ev
	}
}

// TestFlightRingMatchesReference is the exactness oracle of the encoded
// ring: over random event streams, for every ring shape, a dump taken at
// every kind of moment — before the ring fills, exactly at a seal (the
// open block empty), one event after, deep into eviction — decodes to
// the reference's window event for event, with its accounting.
func TestFlightRingMatchesReference(t *testing.T) {
	for _, threads := range []int{1, 2, 4} {
		for _, ring := range []int{1, 2, 16} {
			for _, chunk := range []int{1, 64, 4096} {
				if testing.Short() && chunk*ring*threads > 1<<16 {
					continue
				}
				t.Run(fmt.Sprintf("threads%d-ring%d-chunk%d", threads, ring, chunk), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(threads*1000003 + ring*1009 + chunk)))
					reg := region.NewRegistry()
					next := randomEvents(rng, reg)
					p := newFlightPair(reg, ring, chunk)
					points := make(map[int]bool)
					for _, k := range []int{1, chunk - 1, chunk, chunk + 1, ring*chunk - 1, ring * chunk, ring*chunk + 1,
						(ring+1)*chunk - 1, (ring + 1) * chunk, (ring+1)*chunk + 1, (ring+2)*chunk + chunk/2, (ring + 3) * chunk} {
						points[k] = k > 0
					}
					now := make([]int64, threads)
					// Thread i runs i events ahead, so that the threads
					// do not all seal at once.
					for id := range now {
						for i := 0; i < id; i++ {
							p.record(id, next(&now[id]))
						}
					}
					p.check(t, "before thread 0 records")
					for k := 1; k <= (ring+3)*chunk; k++ {
						for id := range now {
							p.record(id, next(&now[id]))
						}
						if points[k] {
							p.check(t, fmt.Sprintf("after %d events", k))
						}
					}
					p.check(t, "compressed", WithCompression(CompressionFlate))
				})
			}
		}
	}
}

// TestFlightConcurrentDump dumps without pause while four threads
// record sequence numbers: every dump must be, per thread, a contiguous
// run that ends at some prefix of what the thread recorded — no gap, no
// duplicate, times in order — with retained + dropped equal to that
// prefix; and the last dump, taken at rest, must equal the reference's.
func TestFlightConcurrentDump(t *testing.T) {
	const threads, perThread, ring, chunk = 4, 20000, 3, 64
	reg := region.NewRegistry()
	work := reg.Register("work", "f.go", 1, region.Task)
	clk := clock.NewSystem()
	f := NewFlight(clk, ring, chunk)
	ref := newRefFlight(ring, chunk)

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
				f.Recorder().TaskBegin(th, tk, clk.Now())
			}
		}(id)
	}
	for id := 0; id < threads; id++ {
		for seq := uint64(0); seq < perThread; seq++ {
			ref.record(id, trace.Event{Type: trace.EvTaskBegin, Region: work, TaskID: seq})
		}
	}
	dump := func() (*trace.Trace, *FlightInfo) {
		var buf bytes.Buffer
		st, err := f.Dump(&buf)
		if err != nil {
			t.Errorf("Dump: %v", err)
		}
		tr, err := ReadAllParallel(bytes.NewReader(buf.Bytes()), reg, 2)
		if err != nil {
			t.Errorf("reading a dump taken while recording: %v", err)
		}
		return tr, st
	}
	stop, dumped := make(chan struct{}), make(chan int)
	go func() {
		dumps := 0
		defer func() { dumped <- dumps }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr, st := dump()
			dumps++
			if tr.NumEvents() != st.RetainedEvents {
				t.Errorf("the dump holds %d events, its accounting %d", tr.NumEvents(), st.RetainedEvents)
				return
			}
			for _, ts := range st.Threads {
				evs := tr.Threads[ts.Thread]
				if len(evs) == 0 {
					t.Errorf("thread %d: accounted for, but not in the dump", ts.Thread)
					return
				}
				for i := 1; i < len(evs); i++ {
					if evs[i].TaskID != evs[i-1].TaskID+1 || evs[i].Time < evs[i-1].Time {
						t.Errorf("thread %d: event %d follows %d (times %d, %d): not a contiguous run",
							ts.Thread, evs[i].TaskID, evs[i-1].TaskID, evs[i].Time, evs[i-1].Time)
						return
					}
				}
				if prefix := evs[len(evs)-1].TaskID + 1; uint64(len(evs))+ts.DroppedEvents != prefix || prefix > perThread {
					t.Errorf("thread %d: retained %d + dropped %d, but the run ends at a prefix of %d", ts.Thread, len(evs), ts.DroppedEvents, prefix)
					return
				}
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	if n := <-dumped; n == 0 {
		t.Fatal("no dump was taken while the threads recorded")
	}

	tr, st := dump()
	want, wantSt := ref.snapshot()
	if !reflect.DeepEqual(st, &wantSt.FlightInfo) {
		t.Fatalf("at rest the accounting is %+v, the reference's %+v", st, wantSt.FlightInfo)
	}
	for id, evs := range tr.Threads {
		for i := range evs {
			evs[i].Time = 0 // the reference has no clock
		}
		if !slices.Equal(evs, want.Threads[id]) {
			t.Fatalf("thread %d: the window at rest differs from the reference's (%d events, want %d)", id, len(evs), len(want.Threads[id]))
		}
	}
}

// taskStream is one thread's share of a tasking run in which every task
// enters and leaves a region, so that a window can start inside a task.
func taskStream(reg *region.Registry, tid, tasks int) []trace.Event {
	par := reg.Register("ring.parallel", "ring.go", 1, region.Parallel)
	task := reg.Register("ring.task", "ring.go", 2, region.Task)
	create := reg.Register("ring.create", "ring.go", 2, region.TaskCreate)
	work := reg.Register("ring.work", "ring.go", 3, region.UserFunction)
	tw := reg.Register("ring.taskwait", "ring.go", 4, region.Taskwait)
	now := int64(100 * tid)
	ev := func(typ trace.EventType, r *region.Region, id uint64) trace.Event {
		now += 350 + int64(tid)
		return trace.Event{Time: now, Type: typ, Region: r, TaskID: id}
	}
	evs := []trace.Event{ev(trace.EvThreadBegin, nil, 0), ev(trace.EvEnter, par, 0)}
	for i := 0; i < tid; i++ { // so that the threads' blocks fill at different points of a task
		evs = append(evs, ev(trace.EvEnter, work, 0), ev(trace.EvExit, work, 0))
	}
	for i := 0; i < tasks; i++ {
		id := uint64(tid*tasks + i + 1)
		evs = append(evs,
			ev(trace.EvTaskCreateBegin, create, 0), ev(trace.EvTaskCreateEnd, task, id),
			ev(trace.EvEnter, tw, 0),
			ev(trace.EvTaskBegin, task, id), ev(trace.EvEnter, work, 0), ev(trace.EvExit, work, 0), ev(trace.EvTaskEnd, task, id),
			ev(trace.EvTaskSwitch, nil, 0),
			ev(trace.EvExit, tw, 0))
	}
	return append(evs, ev(trace.EvExit, par, 0), ev(trace.EvThreadEnd, nil, 0))
}

// TestFlightDumpAnalysesMatchReference takes a window whose first
// retained event lies inside a task: the analyses of the decoded dump
// must be those of the reference window.
func TestFlightDumpAnalysesMatchReference(t *testing.T) {
	reg := region.NewRegistry()
	p := newFlightPair(reg, 2, 64)
	for tid := 0; tid < 4; tid++ {
		for _, ev := range taskStream(reg, tid, 100) {
			p.record(tid, ev)
		}
	}
	data := p.check(t, "task stream")
	want, _ := p.ref.snapshot()
	inside := false
	for _, evs := range want.Threads {
		inside = inside || evs[0].Type == trace.EvEnter && evs[0].Region.Name == "ring.work"
	}
	if !inside {
		t.Fatal("no thread's window starts inside a task")
	}
	got, err := loadSequential(bytes.NewReader(data), reg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := trace.Analyze(got), trace.Analyze(want); !reflect.DeepEqual(a, b) {
		t.Errorf("trace.Analyze over the dump: %+v\nover the reference window: %+v", a, b)
	}
	if a, b := bottleneck.Analyze(got), bottleneck.Analyze(want); !reflect.DeepEqual(a, b) {
		t.Errorf("bottleneck.Analyze over the dump: %+v\nover the reference window: %+v", a, b)
	}
	scanned, _, err := analyzeBottlenecks(bytes.NewReader(data), Query{}, 2)
	if err != nil || !reflect.DeepEqual(scanned, bottleneck.Analyze(want)) {
		t.Errorf("the bottleneck scan of the dump differs from the analysis of the reference window (err %v)", err)
	}
}

// TestFlightDumpReaderRules holds a dump taken after eviction, raw and
// compressed, to the rules every archive keeps: a thread's first chunk
// has base time 0 and every later one continues the one before, so the
// indexed load, the sequential walk, the salvage of a dump cut at any
// chunk boundary and a window query all see the same absolute times.
func TestFlightDumpReaderRules(t *testing.T) {
	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		reg := region.NewRegistry()
		p := newFlightPair(reg, 3, 64)
		for tid := 0; tid < 2; tid++ {
			for _, ev := range taskStream(reg, tid, 150) {
				p.record(tid, ev)
			}
		}
		data := p.check(t, comp.String(), WithCompression(comp))
		want, st := p.ref.snapshot()
		if st.DroppedChunks == 0 {
			t.Fatal("nothing was evicted")
		}
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%v: ReadIndex: %v", comp, err)
		}
		var cuts []int64
		for _, th := range ix.Threads {
			if len(th.Chunks) != 4 || th.Chunks[0].BaseTime != 0 || th.Chunks[1].BaseTime != th.Chunks[0].MaxTime {
				t.Fatalf("%v: thread %d has %d chunks, the first two based at %d and %d", comp, th.Thread, len(th.Chunks), th.Chunks[0].BaseTime, th.Chunks[1].BaseTime)
			}
			for _, c := range th.Chunks {
				cuts = append(cuts, c.Offset)
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		cuts = append(cuts[1:], ix.end)

		// Cut by a full disk after every whole chunk: what is left reads
		// as a prefix of each thread's window, at the same times, with
		// the accounting chunk still there.
		dir := t.TempDir()
		for i, cut := range cuts {
			path := filepath.Join(dir, fmt.Sprintf("cut-%d%s", i, Ext))
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			salv, _, _, err := LoadFile(path, reg, Query{}, 2)
			if err != nil || salv.NumEvents() == 0 {
				t.Fatalf("%v: dump cut at %d: %d events, err %v", comp, cut, salv.NumEvents(), err)
			}
			for id, evs := range salv.Threads {
				if len(evs) > len(want.Threads[id]) || !slices.Equal(evs, want.Threads[id][:len(evs)]) {
					t.Fatalf("%v: dump cut at %d: thread %d is not a prefix of its window", comp, cut, id)
				}
			}
			if fst, err := StatFile(path); err != nil || fst.Flight == nil || fst.Flight.DroppedEvents != st.DroppedEvents {
				t.Fatalf("%v: dump cut at %d lost its accounting chunk (err %v)", comp, cut, err)
			}
		}

		evs := want.Threads[1]
		q := Query{Windowed: true, MinTime: evs[len(evs)/3].Time, MaxTime: evs[2*len(evs)/3].Time}
		got, qst, err := Load(bytes.NewReader(data), reg, q, 2)
		if err != nil || !qst.Indexed || qst.ChunksRead >= qst.ChunksTotal {
			t.Fatalf("%v: window query: %+v, err %v", comp, qst, err)
		}
		if !sameEvents(got, q.Filter(want)) {
			t.Fatalf("%v: the window query over the dump differs from the filtered reference window", comp)
		}
	}
}

// FuzzFlightInfo throws arbitrary bytes at the 'F' chunk decoder: it
// must not panic, must not make room for more threads than the payload
// can hold, and what it decodes must re-encode to a payload that decodes
// to the same — to the very bytes, when the input was canonical.
func FuzzFlightInfo(f *testing.F) {
	reg := region.NewRegistry()
	for _, shape := range [][3]int{{1, 1, 1}, {2, 3, 64}, {4, 16, 4096}} {
		p := newFlightPair(reg, shape[1], shape[2])
		for tid := 0; tid < shape[0]; tid++ {
			for _, ev := range taskStream(reg, tid, 700) {
				p.record(tid, ev)
			}
		}
		var dump bytes.Buffer
		if _, err := p.f.Dump(&dump); err != nil {
			f.Fatal(err)
		}
		kind, payload, err := ReadChunkAt(bytes.NewReader(dump.Bytes()), int64(len(magic))+1)
		if err != nil || kind != chunkFlight {
			f.Fatalf("a dump's first chunk is %q (err %v)", kind, err)
		}
		f.Add(payload)
	}
	f.Add([]byte{2, 4, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 threads, none present
	f.Add([]byte{0x80, 0, 4, 9, 1, 3, 0x80, 0x80, 0, 7}) // varints longer than they need be
	f.Fuzz(func(t *testing.T, payload []byte) {
		info, err := decodeFlightInfo(payload)
		if err != nil {
			return
		}
		if cap(info.Threads) > len(payload)/3+1 {
			t.Fatalf("a %d-byte payload decoded into room for %d threads", len(payload), cap(info.Threads))
		}
		again := appendFlightPayload(nil, info)
		back, err := decodeFlightInfo(again)
		if err != nil || !reflect.DeepEqual(back, info) {
			t.Fatalf("%+v re-encodes to %x, which decodes to %+v (err %v)", info, again, back, err)
		}
		if len(again) == len(payload) && !bytes.Equal(again, payload) {
			t.Fatalf("%x decodes, and re-encodes to %x", payload, again)
		}
	})
}
