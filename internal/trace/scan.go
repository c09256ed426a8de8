package trace

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Consumer is an analysis fed by a scan of a trace source — an
// in-memory Trace (Scan here), an archive or a trace file (otf2.Scan,
// otf2.ScanFile). Every source feeds every consumer the same way, and
// one scan can feed several.
type Consumer interface {
	// Hint is called once, before any run, with the number of goroutines
	// the scan may deliver from — the budget a consumer's own parallel
	// stages share — and what the source knows of the size of each
	// thread's stream: an upper bound on the events it will deliver for
	// that thread (the event counts of an archive's selected chunks, a
	// slice's length, a window's share of a time-ordered slice). A thread
	// is missing where the source does not know, and a thread that is
	// named may still receive nothing.
	Hint(workers int, threadEvents map[int]int)
	// Consume receives thread tid's next run of events: never empty, in
	// stream order, one run of a thread at a time, runs of different
	// threads possibly from different goroutines at once. The slice
	// belongs to the source again when Consume returns.
	Consume(tid int, events []Event)
}

// Consumers is several consumers fed as one.
type Consumers []Consumer

func (cs Consumers) Hint(workers int, threadEvents map[int]int) {
	for _, c := range cs {
		c.Hint(workers, threadEvents)
	}
}

func (cs Consumers) Consume(tid int, events []Event) {
	for _, c := range cs {
		c.Consume(tid, events)
	}
}

// Workers resolves a worker-count knob: <= 0 means one per processor.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Scan feeds the events of tr matching q to the consumers, a thread at a
// time on up to workers goroutines (<= 0: one per processor; none are
// started for one worker or one thread). It is the one feed of an
// in-memory trace: matching events are delivered as the sub-slices of tr
// they are, so nothing is copied and tr is not written to. A thread q
// excludes, or with no matching event, is never delivered.
//
// A window's share of a thread whose stream is in time order, as a
// recorder writes it, is found by two binary searches: it is hinted and
// delivered as one run. A stream whose clock ran backwards is not
// hinted, and its window is tested event by event.
func Scan(tr *Trace, q Query, workers int, consumers ...Consumer) {
	hint := make(map[int]int, len(tr.Threads))
	var shares map[int][2]int // a window's share of each time-ordered thread
	if q.Windowed {
		shares = make(map[int][2]int, len(tr.Threads))
	}
	for tid, events := range tr.Threads {
		switch {
		case !q.MatchThread(tid):
		case !q.Windowed:
			hint[tid] = len(events)
		case slices.IsSortedFunc(events, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) }):
			lo := sort.Search(len(events), func(i int) bool { return events[i].Time >= q.MinTime })
			hi := sort.Search(len(events), func(i int) bool { return events[i].Time > q.MaxTime })
			hi = max(lo, hi)
			shares[tid] = [2]int{lo, hi}
			if hi > lo {
				hint[tid] = hi - lo
			}
		}
	}
	workers = Workers(workers)
	all := Consumers(consumers)
	all.Hint(workers, hint)
	feed := func(tid int, events []Event) {
		if share, ok := shares[tid]; ok || !q.Windowed {
			if ok {
				events = events[share[0]:share[1]]
			}
			if len(events) > 0 {
				all.Consume(tid, events)
			}
			return
		}
		for lo := 0; lo < len(events); {
			for lo < len(events) && !q.MatchTime(events[lo].Time) {
				lo++
			}
			hi := lo
			for hi < len(events) && q.MatchTime(events[hi].Time) {
				hi++
			}
			if hi > lo {
				all.Consume(tid, events[lo:hi])
			}
			lo = hi
		}
	}
	tids := make([]int, 0, len(tr.Threads))
	for tid := range tr.Threads {
		if q.MatchThread(tid) {
			tids = append(tids, tid)
		}
	}
	Each(len(tids), workers, func(_, i int) { feed(tids[i], tr.Threads[tids[i]]) })
}

// Each calls fn(worker, i) for every index i below n on up to workers
// goroutines, the caller's among them, each taking the next index as it
// finishes one; worker, below min(workers, n), names the goroutine, so
// that fn can reuse per-worker scratch. At one worker (or fewer), or for
// one index, it starts none.
func Each(n, workers int, fn func(worker, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(worker int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(worker, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
