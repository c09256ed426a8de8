package bottleneck

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// checkInvariants analyzes tr and reports what breaks: the critical
// path must partition into its buckets, every thread's wait buckets
// must add up to the dispatch gaps and idle spans collected for it, and
// the analysis must not depend on the worker count — whole or windowed.
func checkInvariants(t *testing.T, tr *trace.Trace) bool {
	t.Helper()
	tids := make([]int, 0, len(tr.Threads))
	for tid := range tr.Threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	c := NewCollector()
	for _, tid := range tids {
		for _, ev := range tr.Threads[tid] {
			c.Observe(tid, ev)
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
		if got := tw.StarvedWait + tw.BarrierWait + tw.UnclassifiedIdle; got != idles[tid] {
			t.Errorf("thread %d: idle waits %+v, idle spans hold %d", tid, tw, idles[tid])
			ok = false
		}
	}

	mid := trace.Query{MinTime: a.StartTime + a.WallTime/4, MaxTime: a.EndTime - a.WallTime/4, Windowed: true}
	for _, q := range []trace.Query{{}, mid} {
		want := a
		if q.Windowed {
			want = AnalyzeQuery(tr, q, 1)
		}
		if got := AnalyzeQuery(tr, q, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("query %+v: 3 workers\n got %+v\nwant %+v", q, got, want)
			ok = false
		}
	}
	return ok
}

// TestRandomTaskGraphs holds the analysis to its invariants on random
// task graphs, well formed and then damaged in each way a recorder
// promises not to: events lost, task ids repeated, task ids scattered
// over the whole id space, and a clock that runs backwards. The last
// two must take the slow paths built for them.
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
				return checkInvariants(t, tr)
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
