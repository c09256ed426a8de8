package bottleneck

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/analyze"
	"repro/internal/trace"
)

// checkInvariants analyzes tr and reports what breaks: the critical
// path must partition into its buckets, every thread's wait buckets
// must be non-negative and add up to the dispatch gaps and idle spans
// collected for it, the analysis must not depend on the worker count —
// whole, over its middle half or over its last 2 % — and neither must
// the join search find other edges than the merged list of every task
// end. The waits
// of a well-formed trace, whole and windowed, must be those the
// reference classification finds.
func checkInvariants(t *testing.T, tr *trace.Trace, wellFormed bool) bool {
	t.Helper()
	tids := make([]int, 0, len(tr.Threads))
	for tid := range tr.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	c := NewCollector()
	for _, tid := range tids {
		for _, ev := range tr.Threads[tid] {
			c.Consume(tid, []trace.Event{ev}) // the shortest runs a scan can cut
		}
	}
	gaps, idles := map[int]int64{}, map[int]int64{}
	for tid, tc := range c.threads {
		for _, f := range tc.frags {
			if d := f.start - f.gapStart; f.flags&fragGap != 0 && d > 0 {
				gaps[tid] += d
			}
		}
		for _, s := range tc.idles {
			if s.end > s.start {
				idles[tid] += s.end - s.start
			}
		}
	}
	a := c.Finish()
	ok := true

	cp := a.CriticalPath
	sum := cp.SpawnWait + cp.JoinWait + cp.Other
	for _, pr := range cp.Regions {
		sum += pr.Time
		if pr.Time <= 0 {
			t.Errorf("path region %+v has no time", pr)
			ok = false
		}
	}
	// A clock that ran backwards can end a recording before it began:
	// the path is then empty, not negative.
	if sum != max(cp.Length, 0) || cp.SpawnWait < 0 || cp.JoinWait < 0 || cp.Other < 0 {
		t.Errorf("critical path %+v: buckets sum to %d", cp, sum)
		ok = false
	}
	for tid, tw := range a.PerThread {
		if got := tw.LateSpawnWait + tw.PlainDispatchWait; got != gaps[tid] || tw.LateSpawnWait < 0 || tw.PlainDispatchWait < 0 {
			t.Errorf("thread %d: dispatch waits %+v, gaps hold %d", tid, tw, gaps[tid])
			ok = false
		}
		if got := tw.StarvedWait + tw.BarrierWait + tw.UnclassifiedIdle; got != idles[tid] || tw.StarvedWait < 0 || tw.BarrierWait < 0 || tw.UnclassifiedIdle < 0 {
			t.Errorf("thread %d: idle waits %+v, idle spans hold %d", tid, tw, idles[tid])
			ok = false
		}
	}

	// The tail window holds the suspended ancestors it resumes, whose ids
	// lie below those it creates: the task table's side table.
	mid := trace.Query{MinTime: a.StartTime + a.WallTime/4, MaxTime: a.EndTime - a.WallTime/4, Windowed: true}
	tail := trace.Query{MinTime: a.EndTime - a.WallTime/50, MaxTime: a.EndTime, Windowed: true}
	for i, q := range []trace.Query{{}, mid, tail} {
		if bad := joinMismatches(tr, q, int64(i)); len(bad) > 0 {
			t.Errorf("query %+v: join search differs from the merged list: %v", q, bad)
			ok = false
		}
		want := a
		if q.Windowed {
			want = AnalyzeQuery(tr, q, 1)
		}
		if got := AnalyzeQuery(tr, q, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("query %+v: 3 workers\n got %+v\nwant %+v", q, got, want)
			ok = false
		}
		if !wellFormed {
			continue
		}
		gotThreads, gotStates := threadWaits(want.PerThread), slices.Clone(want.WaitStates)
		refThreads, refStates := referenceWaits(tr, q)
		if q.Windowed {
			// A window can cut a thread's barrier visits so that the n-th
			// it holds is not the n-th its peers hold; the mismatched
			// instances give it wait windows that overlap, and where they
			// do the reference counts an idle nanosecond once per window
			// (its unclassified idle goes negative). How the idle that
			// starvation left splits between barrier and unclassified is
			// therefore compared on whole traces only.
			foldBarrierTime(gotThreads, gotStates)
			foldBarrierTime(refThreads, refStates)
		}
		if !reflect.DeepEqual(gotThreads, refThreads) || !reflect.DeepEqual(gotStates, refStates) {
			t.Errorf("query %+v: waits\n got %+v %+v\nwant %+v %+v", q, gotThreads, gotStates, refThreads, refStates)
			ok = false
		}
	}
	return ok
}

// foldBarrierTime moves every thread's barrier wait into its
// unclassified idle and clears the barrier wait states' times, keeping
// their victims, causes, regions and counts.
func foldBarrierTime(threads []ThreadWaits, states []WaitState) {
	for i := range threads {
		threads[i].UnclassifiedIdle += threads[i].BarrierWait
		threads[i].BarrierWait = 0
	}
	for i := range states {
		if states[i].Kind == analyze.BarrierImbalance {
			states[i].Time = 0
		}
	}
}

// threadWaits lists m's values by thread id.
func threadWaits(m map[int]*ThreadWaits) []ThreadWaits {
	out := make([]ThreadWaits, 0, len(m))
	for _, tw := range m {
		out = append(out, *tw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ThreadID < out[j].ThreadID })
	return out
}

// TestRandomTaskGraphs holds the analysis to its invariants on random
// task graphs, well formed — where the wait states must also be the
// reference classification's — and then damaged in each way a recorder
// promises not to: events lost, task ids repeated, task ids scattered
// over the whole id space, and a clock that runs backwards, which
// leaves idle spans and windows unordered and overlapping. The last two
// must take the slow paths built for them.
func TestRandomTaskGraphs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		damage   func(*rand.Rand, *trace.Trace)
		slowPath func() int64
	}{
		{name: "well-formed"},
		{name: "dropped-events", damage: dropEvents},
		{name: "duplicate-ids", damage: duplicateIDs},
		{name: "huge-ids", damage: hugeIDs, slowPath: sparseTables.Load},
		{name: "backwards-clocks", damage: backwardsClocks, slowPath: sortFallbacks.Load},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before int64
			if tc.slowPath != nil {
				before = tc.slowPath()
			}
			property := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				tr := randomTrace(rng, randomConfig(rng))
				if tc.damage != nil {
					tc.damage(rng, tr)
				}
				return checkInvariants(t, tr, tc.damage == nil)
			}
			if err := quick.Check(property, nil); err != nil {
				t.Fatal(err)
			}
			if tc.slowPath != nil && tc.slowPath() == before {
				t.Fatal("no trace took the slow path this damage is meant to force")
			}
		})
	}
}
