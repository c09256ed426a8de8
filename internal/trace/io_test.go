package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
)

func TestJSONLRoundTrip(t *testing.T) {
	reg := region.NewRegistry()
	rec, sink := newCollectingRecorder(clock.NewSystem())
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	par := reg.Register("par", "io.go", 1, region.Parallel)
	task := reg.Register("work", "io.go", 2, region.Task)
	tw := reg.Register("tw", "io.go", 3, region.Taskwait)
	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 7; i++ {
				th.NewTask(task, func(*omp.Thread) {})
			}
			th.Taskwait(tw)
		}
	})
	rec.Finish()
	tr := sink.trace()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != tr.NumEvents() {
		t.Fatalf("round trip: %d events, want %d", got.NumEvents(), tr.NumEvents())
	}
	for _, tid := range tr.ThreadIDs() {
		a, b := tr.Threads[tid], got.Threads[tid]
		if len(a) != len(b) {
			t.Fatalf("thread %d: %d vs %d events", tid, len(a), len(b))
		}
		for i := range a {
			if a[i].Time != b[i].Time || a[i].Type != b[i].Type || a[i].TaskID != b[i].TaskID {
				t.Fatalf("thread %d event %d mismatch: %+v vs %+v", tid, i, a[i], b[i])
			}
			if (a[i].Region == nil) != (b[i].Region == nil) {
				t.Fatalf("thread %d event %d region presence mismatch", tid, i)
			}
			if a[i].Region != nil && (a[i].Region.Name != b[i].Region.Name ||
				a[i].Region.Type != b[i].Region.Type) {
				t.Fatalf("thread %d event %d region mismatch", tid, i)
			}
		}
	}
	// Analysis of the round-tripped trace must match the original.
	a1, a2 := Analyze(tr), Analyze(got)
	if a1.TaskExecution != a2.TaskExecution || a1.DispatchLatency != a2.DispatchLatency {
		t.Error("analysis differs after round trip")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{bad json\n"), region.NewRegistry()); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"t":0,"ts":1,"ev":"BOGUS"}`+"\n"), region.NewRegistry()); err == nil {
		t.Error("unknown event type accepted")
	}
	// A failing read names the line it was reading, as a bad line does.
	in := io.MultiReader(strings.NewReader(`{"t":0,"ts":1,"ev":"THREAD_BEGIN"}`+"\n"), iotest.ErrReader(io.ErrUnexpectedEOF))
	if _, err := ReadJSONL(in, region.NewRegistry()); err == nil || !strings.HasPrefix(err.Error(), "trace: line 2: ") {
		t.Errorf("a failed read gives %v, want an error naming line 2", err)
	}
}

func TestReadJSONLRejectsUnknownRegionType(t *testing.T) {
	// A region-carrying line whose rt names no known region type must
	// fail with a line-numbered error, not silently decode as the zero
	// type (UserFunction).
	in := `{"t":0,"ts":1,"ev":"THREAD_BEGIN"}` + "\n" +
		`{"t":0,"ts":2,"ev":"ENTER","r":"par","f":"a.go","l":1,"rt":"nonsense"}` + "\n"
	_, err := ReadJSONL(strings.NewReader(in), region.NewRegistry())
	if err == nil {
		t.Fatal("unknown region type accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "nonsense") {
		t.Errorf("error %q does not name line and offending type", err)
	}
}

// randomJSONLTrace generates arbitrary traces within the JSONL format's
// representable set: regions must have non-empty names (an empty "r"
// field means no region on read), everything else — times, task IDs,
// event/region types, thread IDs — ranges freely. Includes empty traces
// and region-less task events.
func randomJSONLTrace(r *rand.Rand) *Trace {
	reg := region.NewRegistry()
	pool := []*region.Region{
		nil,
		reg.Register("f", "file.go", 1, region.UserFunction),
		reg.Register("par", "file.go", 2, region.Parallel),
		reg.Register("task", "", 0, region.Task),
		reg.Register("tw", "x.go", 1<<20, region.Taskwait),
		reg.Register("b", "y.go", 3, region.ImplicitBarrier),
	}
	tr := &Trace{Threads: make(map[int][]Event)}
	for _, tid := range []int{0, 3, 1 << 16}[:r.Intn(4)] {
		n := 1 + r.Intn(40)
		evs := make([]Event, 0, n)
		now := r.Int63n(1 << 32)
		for i := 0; i < n; i++ {
			now += r.Int63n(1<<40) - 1<<39
			evs = append(evs, Event{
				Time:   now,
				Type:   EventType(r.Intn(int(EvThreadEnd) + 1)),
				Region: pool[r.Intn(len(pool))],
				TaskID: r.Uint64(),
			})
		}
		tr.Threads[tid] = evs
	}
	return tr
}

func TestQuickJSONLRoundTrip(t *testing.T) {
	prop := func(tr *Trace) bool {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := ReadJSONL(&buf, region.NewRegistry())
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		for tid, wevs := range tr.Threads {
			gevs := got.Threads[tid]
			if len(gevs) != len(wevs) {
				return false
			}
			for i := range wevs {
				a, b := wevs[i], gevs[i]
				if a.Time != b.Time || a.Type != b.Type || a.TaskID != b.TaskID {
					return false
				}
				if (a.Region == nil) != (b.Region == nil) {
					return false
				}
				if a.Region != nil && (a.Region.Name != b.Region.Name ||
					a.Region.File != b.Region.File ||
					a.Region.Line != b.Region.Line ||
					a.Region.Type != b.Region.Type) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomJSONLTrace(r))
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := `{"t":0,"ts":1,"ev":"THREAD_BEGIN"}` + "\n\n" + `{"t":0,"ts":2,"ev":"THREAD_END"}` + "\n"
	tr, err := ReadJSONL(strings.NewReader(in), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() != 2 {
		t.Errorf("events = %d, want 2", tr.NumEvents())
	}
}

// FuzzReadJSONL throws arbitrary text at the JSONL reader: it must not
// panic; an input it rejects must fail at the line its error names —
// the lines before it read, the lines up to it do not, with the same
// error; and a trace it accepts, written back with WriteJSONL and read
// again into the same registry, is the same trace.
func FuzzReadJSONL(f *testing.F) {
	reg := region.NewRegistry()
	var valid bytes.Buffer
	if err := WriteJSONL(&valid, randomJSONLTrace(rand.New(rand.NewSource(1)))); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	f.Add(`{"t":0,"ts":1,"ev":"BOGUS"}` + "\n")
	f.Add(`{"t":0,"ts":1,"ev":"THREAD_BEGIN"}` + "\n" + `{"t":0,"ts":2,"ev":"ENTER","r":"par","f":"a.go","l":1,"rt":"nonsense"}` + "\n")
	f.Add(`{"t":0,"ts":1,"ev":"THREAD_BEGIN"}` + "\n\n" + `{"t":0,"ts":2,"ev":"THREAD_END"}`)
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadJSONL(strings.NewReader(in), reg)
		if err != nil {
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "trace: line %d:", &n); serr != nil || n < 1 {
				t.Fatalf("the error names no line: %v", err)
			}
			lines := strings.SplitAfter(in, "\n")
			if n > len(lines) {
				t.Fatalf("the error names line %d of %d: %v", n, len(lines), err)
			}
			if _, perr := ReadJSONL(strings.NewReader(strings.Join(lines[:n-1], "")), reg); perr != nil {
				t.Fatalf("the error names line %d, but the lines before it fail too: %v", n, perr)
			}
			if _, perr := ReadJSONL(strings.NewReader(strings.Join(lines[:n], "")), reg); perr == nil || perr.Error() != err.Error() {
				t.Fatalf("the error names line %d, but the lines up to it give %v, not %v", n, perr, err)
			}
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, tr); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		back, err := ReadJSONL(&out, reg)
		if err != nil {
			t.Fatalf("reading back an accepted trace: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("an accepted trace reads back differently:\n got %+v\nwant %+v", back, tr)
		}
	})
}
