package otf2

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/region"
	"repro/internal/trace"
)

// The tests of this package that hold one analysis of one archive
// against a reference call Scan through these: the consumer built, the
// scan run, the result finished where the scan left one — everything, or
// the intact prefix of a cut archive.

func analyzeQuery(r io.Reader, q Query, workers int) (*trace.Analysis, QueryStats, error) {
	a := trace.NewAnalyzer()
	st, err := Scan(r, q, workers, a)
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, st, err
	}
	return a.Finish(), st, err
}

func analyzeParallel(r io.Reader, workers int) (*trace.Analysis, error) {
	a, _, err := analyzeQuery(r, Query{}, workers)
	return a, err
}

func analyzeBottlenecks(r io.Reader, q Query, workers int) (*bottleneck.Analysis, QueryStats, error) {
	c := bottleneck.NewCollector()
	st, err := Scan(r, q, workers, c)
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, st, err
	}
	return c.Finish(), st, err
}

// analyzeSequential is the analysis no scan has a hand in: the Reader's
// events, one at a time as Next returns them, into an Analyzer.
func analyzeSequential(r io.Reader) (*trace.Analysis, error) {
	a := trace.NewAnalyzer()
	rd, err := newReader(r, region.NewRegistry())
	for err == nil {
		var tid int
		var ev trace.Event
		if tid, ev, err = rd.Next(); err == nil {
			a.Consume(tid, []trace.Event{ev})
		}
	}
	if err == io.EOF {
		err = nil
	}
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, err
	}
	return a.Finish(), err
}

// refAnalyses is the reference of the scan matrix: filter the decoded
// trace with q.Filter and feed each thread whole, in ID order, from this
// goroutine.
func refAnalyses(tr *trace.Trace, q Query) (*trace.Analysis, *bottleneck.Analysis) {
	f := q.Filter(tr)
	a, c := trace.NewAnalyzer(), bottleneck.NewCollector()
	for _, tid := range f.ThreadIDs() {
		a.Consume(tid, f.Threads[tid])
		c.Consume(tid, f.Threads[tid])
	}
	return a.Finish(), c.Finish()
}

// contractChecker stands between a scan and a consumer and holds the
// scan to the Consumer contract.
type contractChecker struct {
	t     *testing.T
	label string
	q     Query
	next  trace.Consumer

	hints atomic.Int32
	hint  map[int]int

	mu       sync.Mutex
	busy     map[int]bool
	received map[int]int
}

func checking(t *testing.T, label string, q Query, next trace.Consumer) *contractChecker {
	return &contractChecker{t: t, label: label, q: q, next: next, busy: map[int]bool{}, received: map[int]int{}}
}

func (c *contractChecker) Hint(threadEvents map[int]int) {
	c.mu.Lock()
	if len(c.received) > 0 {
		c.t.Errorf("%s: hint after a run", c.label)
	}
	c.mu.Unlock()
	c.hints.Add(1)
	c.hint = threadEvents
	c.next.Hint(threadEvents)
}

func (c *contractChecker) Consume(tid int, events []trace.Event) {
	c.mu.Lock()
	if c.hints.Load() != 1 {
		c.t.Errorf("%s: run of thread %d after %d hints", c.label, tid, c.hints.Load())
	}
	if c.busy[tid] {
		c.t.Errorf("%s: two runs of thread %d at once", c.label, tid)
	}
	c.busy[tid] = true
	c.received[tid] += len(events)
	c.mu.Unlock()
	if len(events) == 0 {
		c.t.Errorf("%s: empty run of thread %d", c.label, tid)
	}
	for i := range events {
		if !c.q.MatchThread(tid) || !c.q.MatchTime(events[i].Time) {
			c.t.Errorf("%s: thread %d event at %d does not match %v", c.label, tid, events[i].Time, c.q)
			break
		}
	}
	c.next.Consume(tid, events)
	c.mu.Lock()
	c.busy[tid] = false
	c.mu.Unlock()
}

// finish checks what can only be known after the scan; inResult reports
// whether the consumer's result names a thread.
func (c *contractChecker) finish(inResult func(tid int) bool) {
	if n := c.hints.Load(); n != 1 {
		c.t.Errorf("%s: %d hints, want exactly one", c.label, n)
	}
	for tid, n := range c.hint {
		if got := c.received[tid]; got > n {
			c.t.Errorf("%s: thread %d hinted %d events, delivered %d", c.label, tid, n, got)
		}
		if c.received[tid] == 0 && inResult(tid) {
			c.t.Errorf("%s: thread %d was hinted, received nothing and is in the result", c.label, tid)
		}
	}
}

// countingSource counts the bytes read from an archive in memory, by
// whichever of its three ways of reading.
type countingSource struct {
	*bytes.Reader
	n atomic.Int64
}

func (c *countingSource) Read(p []byte) (int, error) {
	n, err := c.Reader.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingSource) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.Reader.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// scanSource is one way the matrix presents a recording to a scan. scan
// runs it; cut says the recording is the prefix of a cut archive (Scan
// then returns ErrTruncated, ScanFile a warning); indexed says the plan
// must have run; read, where the source counts them, is the bytes the
// last scan read.
type scanSource struct {
	name    string
	ref     *trace.Trace
	scan    func(q Query, workers int, consumers ...trace.Consumer) (QueryStats, string, error)
	cut     bool
	lenient bool
	indexed bool
	read    *atomic.Int64
}

// scanSources builds the matrix's sources from one trace: every archive
// kind behind every kind of reader and as a file, and the trace itself.
func scanSources(t *testing.T, tr *trace.Trace) []scanSource {
	dir := t.TempDir()
	write := func(opts ...WriterOption) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, tr, append([]WriterOption{WithChunkBytes(1024)}, opts...)...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v4 := write()
	ix, err := ReadIndex(bytes.NewReader(v4))
	if err != nil {
		t.Fatal(err)
	}
	chunks := ix.Threads[len(ix.Threads)-1].Chunks
	kinds := []archiveKind{
		{"v4", v4, false, true},
		{"flate", write(WithCompression(CompressionFlate)), false, true},
		{"no-index", unindexed(t, v4), false, false},
		{"cut", v4[:chunks[len(chunks)/2].Offset+7], true, false},
	}
	srcs := []scanSource{{
		name: "trace", ref: tr,
		scan: func(q Query, workers int, consumers ...trace.Consumer) (QueryStats, string, error) {
			trace.Scan(tr, q, workers, consumers...)
			return QueryStats{}, "", nil
		},
	}}
	return append(srcs, archiveSources(t, dir, kinds)...)
}

// archiveKind is one archive the matrix reads: cut says it is the prefix
// of a cut archive, indexed that its plan comes from its index.
type archiveKind struct {
	name         string
	data         []byte
	cut, indexed bool
}

// fixtureSources are the committed fixtures behind every kind of reader.
func fixtureSources(t *testing.T) []scanSource {
	var kinds []archiveKind
	for _, name := range fixtureNames {
		cut := strings.HasSuffix(name, "-cut")
		kinds = append(kinds, archiveKind{"fixture-" + name, readFixture(t, name), cut, !cut})
	}
	return archiveSources(t, t.TempDir(), kinds)
}

// archiveSources presents each archive behind every kind of reader and
// as a file in dir.
func archiveSources(t *testing.T, dir string, kinds []archiveKind) []scanSource {
	var srcs []scanSource
	for _, k := range kinds {
		// What the sequential Reader makes of the bytes is the reference,
		// a cut archive's prefix included.
		ref, _, err := readSequential(k.data, region.NewRegistry())
		if (err != nil) != k.cut || (k.cut && !errors.Is(err, ErrTruncated)) {
			t.Fatalf("%s: sequential read: %v", k.name, err)
		}
		if k.cut && ref.NumEvents() == 0 {
			t.Fatalf("%s: the prefix holds no events", k.name)
		}
		path := filepath.Join(dir, k.name+".otf2")
		if err := os.WriteFile(path, k.data, 0o644); err != nil {
			t.Fatal(err)
		}
		reader := func(name string, indexed bool, open func() (io.Reader, func())) scanSource {
			return scanSource{
				name: k.name + "/" + name, ref: ref, cut: k.cut, indexed: indexed,
				scan: func(q Query, workers int, consumers ...trace.Consumer) (QueryStats, string, error) {
					r, done := open()
					defer done()
					st, err := Scan(r, q, workers, consumers...)
					return st, "", err
				},
			}
		}
		counted := func(name string, indexed bool, as func(*countingSource) io.Reader) scanSource {
			read := new(atomic.Int64)
			src := reader(name, indexed, func() (io.Reader, func()) {
				cs := &countingSource{Reader: bytes.NewReader(k.data)}
				return as(cs), func() { read.Store(cs.n.Load()) }
			})
			src.read = read
			return src
		}
		srcs = append(srcs,
			reader("bytes.Reader", k.indexed, func() (io.Reader, func()) { return bytes.NewReader(k.data), func() {} }),
			reader("Memory", k.indexed, func() (io.Reader, func()) { return memoryOf(k.data).Reader(), func() {} }),
			reader("os.File", k.indexed, func() (io.Reader, func()) {
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				return f, func() { f.Close() }
			}),
			// A plain stream is buffered and planned like the rest.
			reader("plain", k.indexed, func() (io.Reader, func()) { return plainReader{bytes.NewReader(k.data)}, func() {} }),
			counted("counted", k.indexed, func(src *countingSource) io.Reader { return src }),
			counted("counted-plain", k.indexed, func(src *countingSource) io.Reader { return plainReader{src} }),
			scanSource{
				name: k.name + "/ScanFile", ref: ref, cut: k.cut, lenient: true, indexed: k.indexed,
				scan: func(q Query, workers int, consumers ...trace.Consumer) (QueryStats, string, error) {
					return ScanFile(path, q, workers, consumers...)
				},
			})
	}
	return srcs
}

// TestScanMatrix holds the one engine to one reference on every way in:
// each source x query x worker count x set of consumers gives the
// analyses of "decode with the sequential Reader, q.Filter, analyze
// thread by thread", under the Consumer contract, with two consumers on
// one scan seeing what each sees alone and reading the bytes one reads,
// and a cut archive's prefix coming with ErrTruncated from Scan and with
// a warning from ScanFile.
func TestScanMatrix(t *testing.T) {
	tr := benchTrace(3, 300)
	for _, src := range append(scanSources(t, tr), fixtureSources(t)...) {
		// A window from the third to the half of the events in time order,
		// its bounds between events: a flight dump's threads keep windows
		// far apart, so a window by time could fall between them.
		var times []int64
		for _, evs := range src.ref.Threads {
			for _, ev := range evs {
				times = append(times, ev.Time)
			}
		}
		slices.Sort(times)
		maxT := times[len(times)-1]
		window := Query{Windowed: true, MinTime: times[len(times)/3] + 1, MaxTime: times[len(times)/2] + 1}
		queries := []Query{
			{},
			{Threads: []int{0, 2}},
			window,
			{Windowed: true, MinTime: window.MinTime, MaxTime: window.MaxTime, Threads: []int{1}},
			{Windowed: true, MinTime: maxT + 1, MaxTime: maxT + 1000},
		}
		for qi, q := range queries {
			wantA, wantB := refAnalyses(src.ref, q)
			if qi == 2 && len(wantA.PerThread) == 0 {
				t.Fatalf("%s: the window matches nothing", src.name)
			}
			for _, workers := range []int{1, 2, 4} {
				var read []int64
				for _, set := range []string{"analyzer", "collector", "both"} {
					label := fmt.Sprintf("%s %v workers=%d %s", src.name, q, workers, set)
					a, c := trace.NewAnalyzer(), bottleneck.NewCollector()
					ca, cc := checking(t, label, q, a), checking(t, label, q, c)
					var consumers []trace.Consumer
					if set != "collector" {
						consumers = append(consumers, ca)
					}
					if set != "analyzer" {
						consumers = append(consumers, cc)
					}
					st, warning, err := src.scan(q, workers, consumers...)
					switch {
					case src.cut && src.lenient:
						if err != nil || !strings.HasSuffix(warning, "; using the intact prefix") {
							t.Fatalf("%s: (%q, %v), want the cut as a warning", label, warning, err)
						}
					case src.cut:
						if !errors.Is(err, ErrTruncated) {
							t.Fatalf("%s: err = %v, want ErrTruncated", label, err)
						}
					default:
						if err != nil || warning != "" {
							t.Fatalf("%s: (%q, %v)", label, warning, err)
						}
					}
					if st.Indexed != src.indexed {
						t.Errorf("%s: Indexed = %v, want %v", label, st.Indexed, src.indexed)
					}
					if src.read != nil {
						read = append(read, src.read.Load())
					}
					if set != "collector" {
						got := a.Finish()
						if !reflect.DeepEqual(got, wantA) {
							t.Errorf("%s: trace analysis differs from the reference", label)
						}
						ca.finish(func(tid int) bool { return got.PerThread[tid] != nil })
					}
					if set != "analyzer" {
						got := c.Finish()
						if !reflect.DeepEqual(got, wantB) {
							t.Errorf("%s: bottleneck analysis differs from the reference", label)
						}
						cc.finish(func(tid int) bool { return got.PerThread[tid] != nil })
					}
				}
				// Several consumers on one scan are the point of it: both
				// together cost the bytes either costs alone.
				if read != nil && (read[0] == 0 || read[1] != read[0] || read[2] != read[0]) {
					t.Errorf("%s %v workers=%d: %d bytes read for the analyzer, %d for the collector, %d for both", src.name, q, workers, read[0], read[1], read[2])
				}
			}
		}
	}
}
