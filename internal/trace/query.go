package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Query selects a slice of a trace: a time window and/or a thread
// subset. The zero Query matches every event. Queries give every layer
// of the trace stack — in-memory analysis, the archive reader, the
// parallel pipeline, the CLIs — one shared vocabulary for "analyze only
// this part", so an indexed archive can be opened in O(matching chunks)
// instead of O(archive).
//
// Semantics are defined by Filter: an event matches when its thread is
// in Threads (nil/empty = all threads) and, if Windowed, its timestamp
// lies in the inclusive window [MinTime, MaxTime]. Every query-aware
// code path is required to produce results identical to filtering the
// fully decoded trace with Filter and then running the plain path.
type Query struct {
	// MinTime and MaxTime bound the inclusive time window; they are
	// consulted only when Windowed is true.
	MinTime, MaxTime int64
	// Windowed enables the time window.
	Windowed bool
	// Threads restricts the query to these thread IDs; nil or empty
	// means all threads.
	Threads []int
}

// All reports whether q matches every event (the zero Query).
func (q Query) All() bool {
	return !q.Windowed && len(q.Threads) == 0
}

// Empty reports whether the query can match no event at all because its
// window is inverted (MinTime > MaxTime).
func (q Query) Empty() bool {
	return q.Windowed && q.MinTime > q.MaxTime
}

// MatchThread reports whether thread tid passes the thread subset.
func (q Query) MatchThread(tid int) bool {
	if len(q.Threads) == 0 {
		return true
	}
	for _, t := range q.Threads {
		if t == tid {
			return true
		}
	}
	return false
}

// MatchTime reports whether timestamp t lies in the window.
func (q Query) MatchTime(t int64) bool {
	return !q.Windowed || (t >= q.MinTime && t <= q.MaxTime)
}

// Overlaps reports whether any timestamp in the inclusive range
// [min, max] can pass the window — the chunk-pruning predicate an
// archive index uses to skip whole chunks.
func (q Query) Overlaps(min, max int64) bool {
	return !q.Windowed || (max >= q.MinTime && min <= q.MaxTime)
}

// Clip drops the events outside the window from events, in place, and
// returns what is left: for a run the caller owns, such as the pooled
// buffers of an archive scan. Filter copies.
func (q Query) Clip(events []Event) []Event {
	if !q.Windowed {
		return events
	}
	kept := events[:0]
	for i := range events {
		if q.MatchTime(events[i].Time) {
			kept = append(kept, events[i])
		}
	}
	return kept
}

// Filter returns the sub-trace of tr matching q — the reference
// semantics every query-aware path must reproduce. Event slices are
// copied, never aliased; threads left without matching events are
// omitted entirely (matching what a query-driven decode produces).
func (q Query) Filter(tr *Trace) *Trace {
	out := &Trace{Threads: make(map[int][]Event, len(tr.Threads))}
	for tid, events := range tr.Threads {
		if !q.MatchThread(tid) {
			continue
		}
		var kept []Event
		for _, ev := range events {
			if q.MatchTime(ev.Time) {
				kept = append(kept, ev)
			}
		}
		if len(kept) > 0 {
			out.Threads[tid] = kept
		}
	}
	return out
}

// String renders the query the way the CLIs accept it ("-window t0:t1
// -threads a,b,c"); the zero query renders as "all".
func (q Query) String() string {
	var parts []string
	if q.Windowed {
		parts = append(parts, fmt.Sprintf("window %d:%d", q.MinTime, q.MaxTime))
	}
	if len(q.Threads) > 0 {
		ts := make([]string, len(q.Threads))
		for i, t := range q.Threads {
			ts[i] = strconv.Itoa(t)
		}
		parts = append(parts, "threads "+strings.Join(ts, ","))
	}
	if len(parts) == 0 {
		return "all"
	}
	return strings.Join(parts, " ")
}

// ParseWindow parses the CLI time-window syntax "t0:t1" (inclusive
// nanosecond timestamps; either bound may be omitted, ":t1" and "t0:"
// are open-ended) into a windowed Query fragment.
func ParseWindow(s string) (min, max int64, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("invalid window %q (want t0:t1)", s)
	}
	min, max = int64(-1)<<63, int64(^uint64(0)>>1)
	if lo = strings.TrimSpace(lo); lo != "" {
		if min, err = strconv.ParseInt(lo, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("invalid window start %q: %v", lo, err)
		}
	}
	if hi = strings.TrimSpace(hi); hi != "" {
		if max, err = strconv.ParseInt(hi, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("invalid window end %q: %v", hi, err)
		}
	}
	return min, max, nil
}

// ParseThreadList parses the CLI thread-subset syntax "a,b,c" into a
// sorted, deduplicated thread ID list.
func ParseThreadList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid thread id %q: %v", part, err)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty thread list %q", s)
	}
	sort.Ints(out)
	out = out[:uniqInts(out)]
	return out, nil
}

// uniqInts compacts a sorted slice in place, returning the new length.
func uniqInts(s []int) int {
	n := 0
	for i, v := range s {
		if i == 0 || v != s[n-1] {
			s[n] = v
			n++
		}
	}
	return n
}
