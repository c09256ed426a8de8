package otf2

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
	"repro/internal/trace"
)

// sampleTrace builds a two-thread trace covering every event type,
// nil-region task events, empty-file regions and out-of-order times.
func sampleTrace(reg *region.Registry) *trace.Trace {
	par := reg.Register("par", "main.go", 10, region.Parallel)
	task := reg.Register("work", "main.go", 12, region.Task)
	tw := reg.Register("tw", "", 0, region.Taskwait)
	return &trace.Trace{Threads: map[int][]trace.Event{
		0: {
			{Time: 0, Type: trace.EvThreadBegin},
			{Time: 5, Type: trace.EvEnter, Region: par},
			{Time: 7, Type: trace.EvTaskCreateBegin, Region: task},
			{Time: 9, Type: trace.EvTaskCreateEnd, Region: task, TaskID: 1},
			{Time: 11, Type: trace.EvEnter, Region: tw},
			{Time: 12, Type: trace.EvTaskBegin, Region: task, TaskID: 1},
			{Time: 40, Type: trace.EvTaskEnd, Region: task, TaskID: 1},
			{Time: 41, Type: trace.EvTaskSwitch}, // back to implicit task
			{Time: 45, Type: trace.EvExit, Region: tw},
			{Time: 50, Type: trace.EvExit, Region: par},
			{Time: 51, Type: trace.EvThreadEnd},
		},
		3: {
			{Time: 2, Type: trace.EvThreadBegin},
			{Time: 1 << 40, Type: trace.EvTaskBegin, Region: task, TaskID: 1<<63 + 7},
			{Time: 3, Type: trace.EvTaskEnd, Region: task, TaskID: 1<<63 + 7}, // time went backwards
			{Time: 4, Type: trace.EvThreadEnd},
		},
	}}
}

// eventsEqual compares events structurally; regions by descriptor
// fields, since reading interns into a different registry.
func eventsEqual(a, b trace.Event) bool {
	if a.Time != b.Time || a.Type != b.Type || a.TaskID != b.TaskID {
		return false
	}
	if (a.Region == nil) != (b.Region == nil) {
		return false
	}
	if a.Region == nil {
		return true
	}
	return a.Region.Name == b.Region.Name && a.Region.File == b.Region.File &&
		a.Region.Line == b.Region.Line && a.Region.Type == b.Region.Type
}

func tracesEqual(t *testing.T, want, got *trace.Trace) {
	t.Helper()
	if len(got.Threads) != len(want.Threads) {
		t.Fatalf("thread count = %d, want %d", len(got.Threads), len(want.Threads))
	}
	for tid, wevs := range want.Threads {
		gevs, ok := got.Threads[tid]
		if !ok {
			t.Fatalf("thread %d missing", tid)
		}
		if len(gevs) != len(wevs) {
			t.Fatalf("thread %d: %d events, want %d", tid, len(gevs), len(wevs))
		}
		for i := range wevs {
			if !eventsEqual(wevs[i], gevs[i]) {
				t.Fatalf("thread %d event %d = %+v, want %+v", tid, i, gevs[i], wevs[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	want := sampleTrace(region.NewRegistry())
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, want, got)
}

func TestRoundTripEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &trace.Trace{Threads: map[int][]trace.Event{}}); err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if n := got.NumEvents(); n != 0 {
		t.Fatalf("empty archive decoded %d events", n)
	}
}

func TestReadPreservesRegionIdentity(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace(region.NewRegistry())); err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	var taskRegions []*region.Region
	for _, evs := range got.Threads {
		for _, ev := range evs {
			if ev.Region != nil && ev.Region.Name == "work" {
				taskRegions = append(taskRegions, ev.Region)
			}
		}
	}
	if len(taskRegions) < 2 {
		t.Fatal("expected several events referencing the task region")
	}
	for _, r := range taskRegions[1:] {
		if r != taskRegions[0] {
			t.Fatal("same region decoded to distinct pointers")
		}
	}
}

func TestClockProperties(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace(region.NewRegistry())); err != nil {
		t.Fatal(err)
	}
	rd, err := newReader(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if res, off := rd.tables.clockResolution, rd.tables.clockOffset; res != 1e9 || off != 0 {
		t.Fatalf("clock resolution, offset = %d, %d, want 1e9, 0", res, off)
	}
}

func TestTruncatedArchiveYieldsPrefix(t *testing.T) {
	want := sampleTrace(region.NewRegistry())
	var buf bytes.Buffer
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	total := want.NumEvents()

	for cut := len(full) - 1; cut > len(magic); cut-- {
		rd, err := newReader(bytes.NewReader(full[:cut]), region.NewRegistry())
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: header error %v", cut, err)
			}
			continue
		}
		n := 0
		for {
			_, _, err := rd.Next()
			if err == nil {
				n++
				continue
			}
			if err != io.EOF && !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d after %d events: unexpected error %v", cut, n, err)
			}
			break
		}
		if n > total {
			t.Fatalf("cut %d: decoded %d events from a %d-event archive", cut, n, total)
		}
	}
}

func TestReadAllSalvagesTruncatedPrefix(t *testing.T) {
	want := sampleTrace(region.NewRegistry())
	var buf bytes.Buffer
	// One-event chunks maximize the number of intact chunk boundaries.
	aw := NewWriterSize(&buf, 1024)
	for _, tid := range want.ThreadIDs() {
		for _, ev := range want.Threads[tid] {
			if err := aw.WriteEvent(tid, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Cut inside the last event chunk: the footer index and trailer are
	// lost too, so this also exercises the salvage degradation to the
	// sequential walk.
	cut := int(lastEventChunkOffset(t, full)) + 3
	tr, err := loadSequential(bytes.NewReader(full[:cut]), region.NewRegistry())
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if tr == nil || tr.NumEvents() == 0 {
		t.Fatal("no prefix salvaged from truncated archive")
	}
	if tr.NumEvents() >= want.NumEvents() {
		t.Fatalf("salvaged %d events from a %d-event archive missing its tail", tr.NumEvents(), want.NumEvents())
	}

	a, err := analyzeSequential(bytes.NewReader(full[:cut]))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Analyze err = %v, want ErrTruncated", err)
	}
	if a == nil || len(a.PerThread) == 0 {
		t.Fatal("no analysis salvaged from truncated archive")
	}
}

// lastEventChunkOffset returns the byte offset of the archive's last
// event chunk, located via the footer index.
func lastEventChunkOffset(t testing.TB, archive []byte) int64 {
	t.Helper()
	ix, err := ReadIndex(bytes.NewReader(archive))
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	last := int64(-1)
	for _, tc := range ix.Threads {
		for _, c := range tc.Chunks {
			if c.Offset > last {
				last = c.Offset
			}
		}
	}
	if last < 0 {
		t.Fatal("archive has no event chunks")
	}
	return last
}

func TestReadAllHeaderTruncationReturnsEmptyPrefix(t *testing.T) {
	// A 0-byte or sub-header file is the archive of a run that crashed
	// before the first flush: ReadAll/Analyze must return a usable
	// empty prefix alongside ErrTruncated, never a nil result.
	for _, data := range [][]byte{{}, []byte("SPO")} {
		tr, err := loadSequential(bytes.NewReader(data), region.NewRegistry())
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("loadSequential(%q) err = %v, want ErrTruncated", data, err)
		}
		if tr == nil || tr.NumEvents() != 0 {
			t.Fatalf("loadSequential(%q) trace = %v, want empty non-nil", data, tr)
		}
		a, err := analyzeSequential(bytes.NewReader(data))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("analyzeSequential(%q) err = %v, want ErrTruncated", data, err)
		}
		if a == nil {
			t.Fatalf("analyzeSequential(%q) returned nil analysis", data)
		}
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := newReader(bytes.NewReader([]byte("NOTOTF2\x01garbage")), region.NewRegistry()); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad := append([]byte(magic), 99)
	if _, err := newReader(bytes.NewReader(bad), region.NewRegistry()); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestAnalyzeStreamMatchesInMemory(t *testing.T) {
	// Record a real run, then check the out-of-core analysis of the
	// archive is bit-identical to the in-memory analysis.
	reg := region.NewRegistry()
	var events collectSink
	rec := trace.NewStreamingRecorder(clock.NewSystem(), &events, 0)
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	par := reg.Register("par", "a.go", 1, region.Parallel)
	task := reg.Register("work", "a.go", 2, region.Task)
	tw := reg.Register("tw", "a.go", 3, region.Taskwait)
	rt.Parallel(4, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 200; i++ {
				th.NewTask(task, func(*omp.Thread) {
					s := 0
					for j := 0; j < 2000; j++ {
						s += j
					}
					_ = s
				})
			}
			th.Taskwait(tw)
		}
	})
	rec.Finish()
	tr := events.trace()

	var buf bytes.Buffer
	// Tiny chunks force many chunk boundaries through the analyzer.
	aw := NewWriterSize(&buf, 1024)
	for _, tid := range tr.ThreadIDs() {
		if err := aw.WriteEvents(tid, tr.Threads[tid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	want := trace.Analyze(tr)
	got, err := analyzeSequential(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("streaming analysis diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestStreamingRecorderBoundedMemory(t *testing.T) {
	// A live run through the bounded-memory recorder: events flow
	// thread-chunk by thread-chunk into the archive, and the archive
	// replays to the exact event counts of an in-memory recording of
	// the same deterministic workload.
	reg := region.NewRegistry()
	var buf bytes.Buffer
	aw := NewWriterSize(&buf, 1024)
	const chunkEvents = 16
	rec := trace.NewStreamingRecorder(clock.NewManual(0), aw, chunkEvents)
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	par := reg.Register("par", "a.go", 1, region.Parallel)
	task := reg.Register("work", "a.go", 2, region.Task)
	tw := reg.Register("tw", "a.go", 3, region.Taskwait)
	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 500; i++ {
				th.NewTask(task, func(*omp.Thread) {})
			}
			th.Taskwait(tw)
		}
	})
	rec.Finish()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	// 500 tasks x (create begin/end + begin + end) plus region and
	// thread records; exact count depends on scheduling, but every
	// task lifecycle event must be present exactly once.
	counts := map[trace.EventType]int{}
	for _, evs := range got.Threads {
		for _, ev := range evs {
			counts[ev.Type]++
		}
	}
	for _, typ := range []trace.EventType{trace.EvTaskCreateBegin, trace.EvTaskCreateEnd, trace.EvTaskBegin, trace.EvTaskEnd} {
		if counts[typ] != 500 {
			t.Fatalf("%v count = %d, want 500", typ, counts[typ])
		}
	}
	if counts[trace.EvThreadBegin] != 2 || counts[trace.EvThreadEnd] != 2 {
		t.Fatalf("thread begin/end counts = %d/%d, want 2/2",
			counts[trace.EvThreadBegin], counts[trace.EvThreadEnd])
	}
}

func TestStreamingRecorderLatchesSinkError(t *testing.T) {
	rec := trace.NewStreamingRecorder(clock.NewManual(0), failingSink{}, 1)
	reg := region.NewRegistry()
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	par := reg.Register("par", "a.go", 1, region.Parallel)
	rt.Parallel(1, par, func(*omp.Thread) {})
	rec.Finish()
	if rec.Err() == nil {
		t.Fatal("sink error not latched")
	}
}

type failingSink struct{}

// TestWriterRefusesBatchWhole writes a batch that fills several chunks
// and names, in its last event, a region whose name the archive cannot
// encode: the batch must fail before any chunk of it is written, so the
// archive holds exactly what was flushed before it — what a recorder
// that counts the refused batch as discarded promises.
func TestWriterRefusesBatchWhole(t *testing.T) {
	reg := region.NewRegistry()
	fn := reg.Register("fn", "a.go", 1, region.UserFunction)
	huge := &region.Region{Name: strings.Repeat("x", maxChunkLen/2), Type: region.UserFunction}
	var buf bytes.Buffer
	w := NewWriter(&buf, WithChunkBytes(1024))
	first := make([]trace.Event, 1000)
	for i := range first {
		first[i] = trace.Event{Time: int64(i) << 10, Type: trace.EvEnter, Region: fn}
	}
	if err := w.WriteEvents(0, first); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // the first batch is in buf, whatever comes
		t.Fatal(err)
	}
	refused := make([]trace.Event, 3000) // chunks past the writer's 4 KiB buffer before the last event
	for i := range refused {
		refused[i] = trace.Event{Time: int64(1000+i) << 10, Type: trace.EvExit, Region: fn}
	}
	refused[len(refused)-1].Region = huge
	if err := w.WriteEvents(0, refused); err == nil || !strings.Contains(err.Error(), "encodable limit") {
		t.Fatalf("WriteEvents of the refused batch = %v", err)
	}
	w.Close() //nolint:errcheck // latched: the refusal
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), reg)
	if err != nil && !errors.Is(err, ErrTruncated) {
		t.Fatal(err)
	}
	if n := got.NumEvents(); n != len(first) {
		t.Fatalf("the archive holds %d events, want the first batch's %d", n, len(first))
	}
}

// collectSink keeps every event a recorder flushes to it: what the
// recorder saw, through no codec.
type collectSink struct {
	mu sync.Mutex
	tr trace.Trace
}

func (c *collectSink) WriteEvents(thread int, events []trace.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tr.Threads == nil {
		c.tr.Threads = make(map[int][]trace.Event)
	}
	c.tr.Threads[thread] = append(c.tr.Threads[thread], events...)
	return nil
}

// trace returns what was collected.
func (c *collectSink) trace() *trace.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &c.tr
}

func (failingSink) WriteEvents(int, []trace.Event) error {
	return errors.New("disk full")
}

// randomTrace generates an arbitrary trace: random subset of threads,
// random event types, times (any int64 walk, including backwards),
// task IDs across the whole uint64 range, and regions drawn from a
// small pool that includes empty names/files plus nil regions.
func randomTrace(r *rand.Rand) *trace.Trace {
	reg := region.NewRegistry()
	pool := []*region.Region{
		nil,
		reg.Register("f", "file.go", 1, region.UserFunction),
		reg.Register("par", "file.go", 2, region.Parallel),
		reg.Register("task", "", 0, region.Task),
		reg.Register("", "x.go", 77, region.Taskwait), // empty name is legal in the binary format
		reg.Register("barrier", "y.go", 1<<20, region.ImplicitBarrier),
	}
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	for _, tid := range []int{0, 1, 17, 1 << 20}[:1+r.Intn(4)] {
		n := r.Intn(50)
		evs := make([]trace.Event, 0, n)
		t := r.Int63n(1 << 32)
		for i := 0; i < n; i++ {
			t += r.Int63n(1<<40) - 1<<39 // random walk, both directions
			evs = append(evs, trace.Event{
				Time:   t,
				Type:   trace.EventType(r.Intn(int(trace.EvThreadEnd) + 1)),
				Region: pool[r.Intn(len(pool))],
				TaskID: r.Uint64(),
			})
		}
		tr.Threads[tid] = evs
	}
	return tr
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	prop := func(tr *trace.Trace) bool {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		for tid, wevs := range tr.Threads {
			if len(wevs) == 0 {
				continue // zero-event threads produce no chunks, legitimately absent
			}
			gevs := got.Threads[tid]
			if len(gevs) != len(wevs) {
				return false
			}
			for i := range wevs {
				if !eventsEqual(wevs[i], gevs[i]) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomTrace(r))
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
