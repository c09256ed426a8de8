package bottleneck_test

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/bottleneck"
	"repro/internal/trace"
)

// windowRecords lists the task ids of the records a window's events
// make: the creations a window holds from their begin, and the
// fragments it begins or resumes.
func windowRecords(w *trace.Trace) (created, frags []uint64) {
	for _, evs := range w.Threads {
		inCreate := false
		for _, ev := range evs {
			switch {
			case ev.Type == trace.EvTaskCreateBegin:
				inCreate = true
			case ev.Type == trace.EvTaskCreateEnd && inCreate:
				created, inCreate = append(created, ev.TaskID), false
			case ev.Type == trace.EvTaskBegin, ev.Type == trace.EvTaskSwitch && ev.TaskID != 0:
				frags = append(frags, ev.TaskID)
			}
		}
	}
	return created, frags
}

// renumbered copies tr with its task ids replaced by their rank among
// tr's ids, from 1: the order of the ids, which ties break on, stays.
func renumbered(tr *trace.Trace) *trace.Trace {
	var ids []uint64
	for _, evs := range tr.Threads {
		for _, ev := range evs {
			if ev.TaskID != 0 {
				ids = append(ids, ev.TaskID)
			}
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := &trace.Trace{Threads: make(map[int][]trace.Event, len(tr.Threads))}
	for tid, evs := range tr.Threads {
		evs = slices.Clone(evs)
		for i := range evs {
			if evs[i].TaskID != 0 {
				r, _ := slices.BinarySearch(ids, evs[i].TaskID)
				evs[i].TaskID = uint64(r + 1)
			}
		}
		out.Threads[tid] = evs
	}
	return out
}

// TestTailWindowsSortNothing analyses real recordings whole and over
// their last 10 % and last 2 %, windows that resume suspended ancestors
// created long before them. Where the ids span more than twice the
// records, the task table's side table holds exactly those ancestors,
// the ids below the lowest the window creates; otherwise, as for every
// whole recording, it is empty. No table is sparse and no pass sorts,
// held's included (four threads on one queue give its idle spans
// several creators to weigh), and the Analysis is that of the same
// window with its ids renumbered densely, which needs no side table.
func TestTailWindowsSortNothing(t *testing.T) {
	sides := 0
	defer func() {
		if sides == 0 && !t.Failed() {
			t.Error("no window took the side table")
		}
	}()
	for _, code := range []*bots.Spec{bots.FibSpec, bots.NQueensSpec} {
		for _, c := range []goldenCase{
			{code, bots.SizeTiny, scorep.SchedWorkStealing, 2},
			{code, bots.SizeTiny, scorep.SchedCentralQueue, 4},
		} {
			tr := recordTrace(t, c)
			lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
			for _, evs := range tr.Threads {
				lo, hi = min(lo, evs[0].Time), max(hi, evs[len(evs)-1].Time)
			}
			for _, pct := range []int64{100, 10, 2} {
				t.Run(fmt.Sprintf("%s-last%d%%", filepath.Base(c.base()), pct), func(t *testing.T) {
					q := trace.Query{MinTime: hi - (hi-lo)*pct/100, MaxTime: hi, Windowed: true}
					w := q.Filter(tr)
					created, frags := windowRecords(w)
					if len(created) == 0 {
						t.Fatal("the window creates no task")
					}
					ids := append(created, frags...)
					wide := slices.Max(ids)-slices.Min(ids) >= 2*uint64(len(ids))
					if pct == 100 && wide {
						t.Fatalf("a whole recording's ids %d..%d span more than twice its %d records", slices.Min(ids), slices.Max(ids), len(ids))
					}
					var want []uint64
					for _, id := range ids {
						if wide && id < slices.Min(created) {
							want = append(want, id)
						}
					}
					slices.Sort(want)
					want = slices.Compact(want)
					sides += len(want)

					sorts, sparse, _ := bottleneck.SlowPaths()
					c := bottleneck.NewCollector()
					trace.Scan(tr, q, 1, c)
					if got := bottleneck.SideTable(c); !slices.Equal(got, want) {
						t.Errorf("side table %v, want the ids below the lowest created, %v", got, want)
					}
					got := c.Finish()
					if s, p, _ := bottleneck.SlowPaths(); s != sorts || p != sparse {
						t.Errorf("%d sort fallbacks and %d sparse tables, want none", s-sorts, p-sparse)
					}

					oracle := bottleneck.NewCollector()
					trace.Scan(renumbered(w), trace.Query{}, 1, oracle)
					if side := bottleneck.SideTable(oracle); len(side) != 0 {
						t.Fatalf("renumbered window has side table %v", side)
					}
					if want := oracle.Finish(); !reflect.DeepEqual(got, want) {
						t.Errorf("Analysis\n got %+v\nwant that of the window renumbered, %+v", got, want)
					}
				})
			}
		}
	}
}
