package trace

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/region"
)

func TestParseWindow(t *testing.T) {
	cases := []struct {
		in       string
		min, max int64
		wantErr  bool
	}{
		{in: "10:20", min: 10, max: 20},
		{in: "-5:5", min: -5, max: 5},
		{in: "10:", min: 10, max: math.MaxInt64},
		{in: ":20", min: math.MinInt64, max: 20},
		{in: ":", min: math.MinInt64, max: math.MaxInt64},
		{in: " 1 : 2 ", min: 1, max: 2},
		{in: "20:10", min: 20, max: 10}, // inverted parses; Query.Empty flags it
		{in: "", wantErr: true},
		{in: "10", wantErr: true},
		{in: "a:b", wantErr: true},
		{in: "1:2:3", wantErr: true}, // trailing garbage in the end bound
	}
	for _, tc := range cases {
		minT, maxT, err := ParseWindow(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("ParseWindow(%q) err = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && (minT != tc.min || maxT != tc.max) {
			t.Errorf("ParseWindow(%q) = (%d, %d), want (%d, %d)", tc.in, minT, maxT, tc.min, tc.max)
		}
	}
}

func TestParseThreadList(t *testing.T) {
	got, err := ParseThreadList("3, 1,2,1,3")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("ParseThreadList = (%v, %v), want sorted deduped [1 2 3]", got, err)
	}
	for _, bad := range []string{"", ",", "1,x", "1.5"} {
		if _, err := ParseThreadList(bad); err == nil {
			t.Errorf("ParseThreadList(%q) accepted", bad)
		}
	}
}

// matches reports whether one event of thread tid passes q.
func matches(q Query, tid int, ev Event) bool {
	return q.MatchThread(tid) && q.MatchTime(ev.Time)
}

func TestQueryPredicates(t *testing.T) {
	all := Query{}
	if !all.All() || all.Empty() || !matches(all, 7, Event{Time: -100}) {
		t.Error("zero query must match everything")
	}
	w := Query{Windowed: true, MinTime: 10, MaxTime: 20}
	if w.All() || w.Empty() {
		t.Error("windowed query misclassified")
	}
	for _, tc := range []struct {
		t    int64
		want bool
	}{{9, false}, {10, true}, {20, true}, {21, false}} {
		if w.MatchTime(tc.t) != tc.want {
			t.Errorf("MatchTime(%d) = %v, want %v (inclusive bounds)", tc.t, !tc.want, tc.want)
		}
	}
	// Overlaps is the chunk-pruning predicate: true iff the ranges touch.
	for _, tc := range []struct {
		lo, hi int64
		want   bool
	}{{0, 9, false}, {0, 10, true}, {15, 16, true}, {20, 30, true}, {21, 30, false}} {
		if w.Overlaps(tc.lo, tc.hi) != tc.want {
			t.Errorf("Overlaps(%d, %d) = %v, want %v", tc.lo, tc.hi, !tc.want, tc.want)
		}
	}
	inv := Query{Windowed: true, MinTime: 20, MaxTime: 10}
	if !inv.Empty() || inv.MatchTime(15) {
		t.Error("inverted window must be empty")
	}
	sub := Query{Threads: []int{1, 3}}
	if sub.MatchThread(2) || !sub.MatchThread(3) || sub.All() {
		t.Error("thread subset misapplied")
	}
}

func queryTestTrace() *Trace {
	reg := region.NewRegistry()
	task := reg.Register("q.task", "q.go", 1, region.Task)
	mk := func(times ...int64) []Event {
		var evs []Event
		var id uint64
		for _, ts := range times {
			id++
			evs = append(evs,
				Event{Time: ts, Type: EvTaskBegin, Region: task, TaskID: id},
				Event{Time: ts + 1, Type: EvTaskEnd, Region: task, TaskID: id},
			)
		}
		return evs
	}
	return &Trace{Threads: map[int][]Event{
		0: mk(10, 30, 50),
		1: mk(20, 40),
		2: mk(100),
	}}
}

func TestQueryFilter(t *testing.T) {
	tr := queryTestTrace()
	q := Query{Windowed: true, MinTime: 25, MaxTime: 60, Threads: []int{0, 1}}
	got := q.Filter(tr)
	if len(got.Threads) != 2 {
		t.Fatalf("filtered threads = %d, want 2", len(got.Threads))
	}
	for tid, evs := range got.Threads {
		for _, ev := range evs {
			if !matches(q, tid, ev) {
				t.Fatalf("filter kept non-matching event %+v on thread %d", ev, tid)
			}
		}
	}
	// Thread 2 (outside subset) and threads left empty are absent.
	if _, ok := got.Threads[2]; ok {
		t.Error("filter kept an excluded thread")
	}
	if n := (Query{Windowed: true, MinTime: 1, MaxTime: 2}).Filter(tr); len(n.Threads) != 0 {
		t.Error("out-of-range window must drop every thread entirely")
	}
	// Filtering must not alias the input's slices.
	all := Query{}.Filter(tr)
	all.Threads[0][0].Time = -999
	if tr.Threads[0][0].Time == -999 {
		t.Error("Filter aliases the input trace")
	}
}

// TestAnalyzeQueryMatchesFilterReference pins the defining equivalence
// at the trace layer: Scan(tr, q) into an Analyzer == Analyze(Filter(tr)) for
// windows, subsets, empty and out-of-range queries, at workers 1 and 4.
func TestAnalyzeQueryMatchesFilterReference(t *testing.T) {
	tr := queryTestTrace()
	queries := []Query{
		{},
		{Windowed: true, MinTime: 25, MaxTime: 60},
		{Windowed: true, MinTime: 0, MaxTime: 15},
		{Windowed: true, MinTime: 500, MaxTime: 900}, // out of range
		{Windowed: true, MinTime: 60, MaxTime: 25},   // inverted: empty
		{Threads: []int{1}},
		{Threads: []int{9}}, // nonexistent
		{Windowed: true, MinTime: 25, MaxTime: 60, Threads: []int{0, 2}},
	}
	for _, q := range queries {
		want := Analyze(q.Filter(tr))
		for _, workers := range []int{1, 4} {
			if got := AnalyzeQuery(tr, q, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("AnalyzeQuery(%v, workers=%d) != Analyze(Filter):\n got %+v\nwant %+v", q, workers, got, want)
			}
		}
		// A consumer sees the same however the matching events are cut
		// into runs: one at a time ...
		a := NewAnalyzer()
		for tid, evs := range tr.Threads {
			for _, ev := range evs {
				if matches(q, tid, ev) {
					a.Consume(tid, []Event{ev})
				}
			}
		}
		if got := a.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("single-event runs of %v != Analyze(Filter):\n got %+v\nwant %+v", q, got, want)
		}
		// ... or in runs of three clipped in place, as an archive read
		// front to back delivers them.
		a = NewAnalyzer()
		for tid, evs := range tr.Threads {
			for i := 0; q.MatchThread(tid) && i < len(evs); i += 3 {
				if run := q.Clip(slices.Clone(evs[i:min(i+3, len(evs))])); len(run) > 0 {
					a.Consume(tid, run)
				}
			}
		}
		if got := a.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("clipped runs of %v != Analyze(Filter):\n got %+v\nwant %+v", q, got, want)
		}
	}
}

// scanRecorder is a consumer that records a scan's hint and the length
// of every run it delivers.
type scanRecorder struct {
	workers int
	hint    map[int]int
	mu      sync.Mutex
	runs    map[int][]int
}

func (r *scanRecorder) Hint(workers int, threadEvents map[int]int) {
	r.workers, r.hint = workers, threadEvents
}

func (r *scanRecorder) Consume(tid int, events []Event) {
	r.mu.Lock()
	r.runs[tid] = append(r.runs[tid], len(events))
	r.mu.Unlock()
}

// TestWindowedScanHints: a windowed scan of a trace in memory hints
// each time-ordered thread's exact share of the window, found by binary
// search, and delivers it as one run; a thread whose clock ran backwards
// is not hinted, and its matching events arrive all the same. The hint
// carries the scan's worker count.
func TestWindowedScanHints(t *testing.T) {
	tr := queryTestTrace()
	tr.Threads[3] = []Event{{Time: 50, Type: EvEnter}, {Time: 70, Type: EvExit}, {Time: 30, Type: EvEnter}, {Time: 31, Type: EvExit}}
	q := Query{Windowed: true, MinTime: 25, MaxTime: 60}
	for _, workers := range []int{1, 4} {
		r := &scanRecorder{runs: map[int][]int{}}
		Scan(tr, q, workers, r)
		if r.workers != workers {
			t.Errorf("workers=%d: hinted %d workers", workers, r.workers)
		}
		if want := map[int]int{0: 4, 1: 2}; !reflect.DeepEqual(r.hint, want) {
			t.Errorf("workers=%d: hint %v, want %v", workers, r.hint, want)
		}
		if want := map[int][]int{0: {4}, 1: {2}, 3: {1, 2}}; !reflect.DeepEqual(r.runs, want) {
			t.Errorf("workers=%d: runs %v, want %v", workers, r.runs, want)
		}
	}
}
