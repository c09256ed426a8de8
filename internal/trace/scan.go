package trace

import (
	"runtime"
	"sync"
)

// Consumer is an analysis fed by a scan of a trace source — an
// in-memory Trace (Scan here), an archive or a trace file (otf2.Scan,
// otf2.ScanFile). Every source feeds every consumer the same way, and
// one scan can feed several.
type Consumer interface {
	// Hint is called once, before any run, with what the source knows of
	// the size of each thread's stream: an upper bound on the events it
	// will deliver for that thread (the event counts of an archive's
	// selected chunks, a slice's length). A thread is missing where the
	// source does not know, and a thread that is named may still receive
	// nothing.
	Hint(threadEvents map[int]int)
	// Consume receives thread tid's next run of events: never empty, in
	// stream order, one run of a thread at a time, runs of different
	// threads possibly from different goroutines at once. The slice
	// belongs to the source again when Consume returns.
	Consume(tid int, events []Event)
}

// Consumers is several consumers fed as one.
type Consumers []Consumer

func (cs Consumers) Hint(threadEvents map[int]int) {
	for _, c := range cs {
		c.Hint(threadEvents)
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
// in-memory trace: the window is tested inline and matching events are
// delivered as the sub-slices of tr they are, so nothing is copied and
// tr is not written to. A thread q excludes, or with no matching event,
// is never delivered.
func Scan(tr *Trace, q Query, workers int, consumers ...Consumer) {
	hint := make(map[int]int, len(tr.Threads))
	if !q.Windowed { // how much of a thread a window keeps is not known before the scan
		for tid, events := range tr.Threads {
			if q.MatchThread(tid) {
				hint[tid] = len(events)
			}
		}
	}
	all := Consumers(consumers)
	all.Hint(hint)
	feed := func(tid int, events []Event) {
		if !q.Windowed {
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
	workers = Workers(workers)
	inline := workers == 1 || len(tr.Threads) <= 1
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for tid, events := range tr.Threads {
		if !q.MatchThread(tid) {
			continue
		}
		if inline {
			feed(tid, events)
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			feed(tid, events)
			<-sem
		}()
	}
	wg.Wait()
}
