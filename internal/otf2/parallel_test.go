package otf2

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
	"repro/internal/trace"
)

// multiChunkArchive serializes tr with a small chunk size so the
// archive spans many chunks per thread.
func multiChunkArchive(t *testing.T, tr *trace.Trace, chunkBytes int) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw := NewWriterSize(&buf, chunkBytes)
	for _, tid := range tr.ThreadIDs() {
		if err := aw.WriteEvents(tid, tr.Threads[tid]); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeParallelMatchesSequential checks the parallel out-of-core
// analysis is reflect.DeepEqual-identical to the sequential one across
// worker counts, on a multi-thread multi-chunk archive.
func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	tr := benchTrace(4, 3000)
	data := multiChunkArchive(t, tr, 1024)

	want, err := analyzeSequential(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8} {
		got, err := analyzeParallel(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: parallel analysis diverges:\n got %+v\nwant %+v", workers, got, want)
		}
	}

	// Single-thread archives exercise the chunk-level (not thread-level)
	// parallelism: every chunk decodes concurrently, one shard applies.
	one := benchTrace(1, 5000)
	oneData := multiChunkArchive(t, one, 1024)
	want1, err := analyzeSequential(bytes.NewReader(oneData))
	if err != nil {
		t.Fatal(err)
	}
	got1, err := analyzeParallel(bytes.NewReader(oneData), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want1, got1) {
		t.Fatal("single-thread parallel analysis diverges from sequential")
	}
}

// TestAnalyzeParallelTruncated cuts a multi-chunk archive mid-chunk:
// sequential and parallel analysis must salvage the same intact prefix
// (DeepEqual) and both surface ErrTruncated.
func TestAnalyzeParallelTruncated(t *testing.T) {
	tr := benchTrace(4, 2000)
	data := multiChunkArchive(t, tr, 1024)

	for _, cut := range []int{len(data) - 7, len(data) / 2, len(data) / 3} {
		prefix := data[:cut]
		want, serr := analyzeSequential(bytes.NewReader(prefix))
		if !errors.Is(serr, ErrTruncated) {
			t.Fatalf("cut %d: sequential err = %v, want ErrTruncated", cut, serr)
		}
		got, perr := analyzeParallel(bytes.NewReader(prefix), 4)
		if !errors.Is(perr, ErrTruncated) {
			t.Fatalf("cut %d: parallel err = %v, want ErrTruncated", cut, perr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("cut %d: truncated parallel analysis diverges:\n got %+v\nwant %+v", cut, got, want)
		}
	}
}

// TestReadAllParallelMatchesReadAll checks parallel decoding loads the
// exact same trace as the sequential reader, intact and truncated.
func TestReadAllParallelMatchesReadAll(t *testing.T) {
	tr := benchTrace(4, 2000)
	data := multiChunkArchive(t, tr, 1024)

	want, err := loadSequential(bytes.NewReader(data), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllParallel(bytes.NewReader(data), region.NewRegistry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, want, got)

	cut := len(data) - 9
	wantCut, serr := loadSequential(bytes.NewReader(data[:cut]), region.NewRegistry())
	if !errors.Is(serr, ErrTruncated) {
		t.Fatalf("sequential err = %v, want ErrTruncated", serr)
	}
	gotCut, perr := ReadAllParallel(bytes.NewReader(data[:cut]), region.NewRegistry(), 4)
	if !errors.Is(perr, ErrTruncated) {
		t.Fatalf("parallel err = %v, want ErrTruncated", perr)
	}
	tracesEqual(t, wantCut, gotCut)
}

// TestReadAllParallelRegionIdentity checks parallel decoding preserves
// pointer-interned regions like the sequential reader does.
func TestReadAllParallelRegionIdentity(t *testing.T) {
	tr := benchTrace(2, 500)
	data := multiChunkArchive(t, tr, 1024)
	got, err := ReadAllParallel(bytes.NewReader(data), region.NewRegistry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var task *region.Region
	for _, evs := range got.Threads {
		for _, ev := range evs {
			if ev.Region == nil || ev.Region.Name != "bench.task" {
				continue
			}
			if task == nil {
				task = ev.Region
			} else if ev.Region != task {
				t.Fatal("same region decoded to distinct pointers across chunks")
			}
		}
	}
	if task == nil {
		t.Fatal("no task-region events decoded")
	}
}

// TestConcurrentWriterStreams drives one Writer from many goroutines —
// the shape of runtime threads flushing recorder chunks concurrently —
// and checks every thread's event stream survives bit-exact, in order.
// Run under -race this is the writer's concurrency proof.
func TestConcurrentWriterStreams(t *testing.T) {
	const threads = 8
	const events = 5000
	reg := region.NewRegistry()
	regions := []*region.Region{
		reg.Register("par", "w.go", 1, region.Parallel),
		reg.Register("task", "w.go", 2, region.Task),
		reg.Register("tw", "w.go", 3, region.Taskwait),
		nil,
	}

	var buf bytes.Buffer
	w := NewWriterSize(&buf, 1024)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ts := int64(tid * 10)
			for i := 0; i < events; i += 50 {
				batch := make([]trace.Event, 0, 50)
				for j := 0; j < 50; j++ {
					ts += int64(1 + (i+j)%7)
					batch = append(batch, trace.Event{
						Time:   ts,
						Type:   trace.EventType((i + j) % int(trace.EvThreadEnd+1)),
						Region: regions[(tid+i+j)%len(regions)],
						TaskID: uint64(tid)<<32 + uint64(i+j),
					})
				}
				if err := w.WriteEvents(tid, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Threads) != threads {
		t.Fatalf("decoded %d threads, want %d", len(got.Threads), threads)
	}
	for tid := 0; tid < threads; tid++ {
		evs := got.Threads[tid]
		if len(evs) != events {
			t.Fatalf("thread %d: %d events, want %d", tid, len(evs), events)
		}
		ts := int64(tid * 10)
		for i, ev := range evs {
			wantTs := ts + int64(1+i%7)
			ts = wantTs
			if ev.Time != wantTs || ev.TaskID != uint64(tid)<<32+uint64(i) {
				t.Fatalf("thread %d event %d = %+v, want time %d task %d", tid, i, ev, wantTs, uint64(tid)<<32+uint64(i))
			}
		}
	}

	// The concurrently written archive must analyze identically to its
	// own parallel re-analysis — the full write→read determinism loop.
	want, err := analyzeSequential(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := analyzeParallel(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, gotA) {
		t.Fatal("analysis of concurrently written archive diverges between sequential and parallel")
	}
}

// gatedWriter blocks the first underlying chunk append until released,
// modeling one slow sink flush (an NFS hiccup, a saturated disk).
type gatedWriter struct {
	entered chan struct{} // closed when the first Write blocks
	release chan struct{}
	once    sync.Once
	n       int64
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	g.n += int64(len(p))
	return len(p), nil
}

// TestSlowSinkFlushDoesNotStallOtherThreads asserts the tentpole's
// write-side property end to end through the streaming Recorder: while
// thread A's chunk flush is stuck inside the underlying sink write,
// thread B keeps recording events — and even flushing recorder chunks
// into the shared Writer — without blocking. Under the old
// single-mutex writer B's first flush would deadlock behind A.
func TestSlowSinkFlushDoesNotStallOtherThreads(t *testing.T) {
	gw := &gatedWriter{entered: make(chan struct{}), release: make(chan struct{})}
	// Writer chunks are large (64 KiB) so B's recorder flushes never
	// seal a writer chunk; A seals (and blocks) via a small dedicated
	// budget of large events.
	w := NewWriterSize(gw, 64*1024)
	rec := trace.NewStreamingRecorder(clock.NewManual(0), w, 64)
	reg := region.NewRegistry()
	task := reg.Register("slow.task", "s.go", 1, region.Task)

	thA := &omp.Thread{ID: 0}
	thB := &omp.Thread{ID: 1}
	rec.ThreadBegin(thA, 0)
	rec.ThreadBegin(thB, 0)

	aBlocked := make(chan struct{})
	go func() {
		// ~70 KiB of encoded events: guaranteed to seal a 64 KiB writer
		// chunk and hit the gated underlying write.
		for i := 0; i < 64*1024; i++ {
			rec.TaskBegin(thA, &omp.Task{ID: uint64(i), Region: task}, 0)
		}
		close(aBlocked)
	}()
	<-gw.entered // A is stuck inside the sink write

	// B records (and flushes) 4096 events; with the old global writer
	// lock the first of B's 64 recorder-chunk flushes would block until
	// A's sink write returns.
	bDone := make(chan struct{})
	go func() {
		for i := 0; i < 4096; i++ {
			rec.Record(thB, trace.Event{Type: trace.EvTaskEnd, Region: task, TaskID: uint64(i)})
		}
		close(bDone)
	}()
	select {
	case <-bDone:
	case <-time.After(10 * time.Second):
		t.Fatal("thread B's recording stalled behind thread A's slow sink flush")
	}
	select {
	case <-aBlocked:
		t.Fatal("thread A should still be blocked in the gated sink write")
	default:
	}

	close(gw.release)
	<-aBlocked
	rec.Finish()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if gw.n == 0 {
		t.Fatal("no archive bytes reached the sink")
	}
}

// TestWriterManyDefsOneBatch regression-tests the pending-definitions
// bound: one WriteEvents batch interning far more definition bytes than
// a chunk can hold must seal them into multiple chunk-bounded 'D'
// chunks, never one oversized chunk the Reader rejects.
func TestWriterManyDefsOneBatch(t *testing.T) {
	reg := region.NewRegistry()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, 1024)
	const n = 2000 // ~2000 region+string records >> 1 KiB of definitions
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{
			Time:   int64(i),
			Type:   trace.EvTaskBegin,
			Region: reg.Register(fmt.Sprintf("defs.batch.%04d", i), "d.go", i, region.Task),
			TaskID: uint64(i),
		}
	}
	if err := w.WriteEvents(0, evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatalf("archive with a one-batch definition flood failed to decode: %v", err)
	}
	if got.NumEvents() != n {
		t.Fatalf("decoded %d events, want %d", got.NumEvents(), n)
	}
}

// TestWriterDefsBeforeEvents stresses the definition-ordering
// invariant under concurrency: regions interned on one thread while
// another thread seals chunks must always have their definition chunk
// written before any event chunk referencing them (the reader fails
// with "undefined region" otherwise).
func TestWriterDefsBeforeEvents(t *testing.T) {
	reg := region.NewRegistry()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, 1024)
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ts := int64(0)
			for i := 0; i < 2000; i++ {
				// A steady drip of brand-new regions forces interning
				// to race with chunk seals on the other threads.
				r := reg.Register(fmt.Sprintf("r%d.%d", tid, i), "d.go", i, region.Task)
				ts += 3
				if err := w.WriteEvents(tid, []trace.Event{{Time: ts, Type: trace.EvTaskBegin, Region: r, TaskID: uint64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
	if err != nil {
		t.Fatalf("archive with racing definitions failed to decode: %v", err)
	}
	if n := got.NumEvents(); n != 4*2000 {
		t.Fatalf("decoded %d events, want %d", n, 4*2000)
	}
}
