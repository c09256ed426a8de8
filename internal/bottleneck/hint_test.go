package bottleneck

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// TestWindowedQuerySizesFromHint scans a window of a generated
// four-thread graph into a collector, as AnalyzeQuery does: the scan
// hints each thread's share of the window, and the collector's record
// buffers are the ones reserve makes for it, not grown from nothing. A
// thread whose clock ran backwards is not hinted, and its buffers grow.
func TestWindowedQuerySizesFromHint(t *testing.T) {
	tr := GeneratedTrace(5, 4, 60)
	lo, hi := tr.Threads[0][0].Time, tr.Threads[0][len(tr.Threads[0])-1].Time
	q := trace.Query{MinTime: lo + (hi-lo)/4, MaxTime: hi - (hi-lo)/4, Windowed: true}
	backwardsClocks(rand.New(rand.NewSource(1)), tr)
	c := NewCollector()
	trace.Scan(tr, q, 2, c)
	if c.workers != 2 {
		t.Errorf("collector finishes on %d workers, want the scan's 2", c.workers)
	}
	unhinted := 0
	for tid, tc := range c.threads {
		n := len(q.Clip(append([]trace.Event(nil), tr.Threads[tid]...)))
		hinted, ok := c.events[tid]
		if !ok {
			unhinted++
			continue
		}
		want := newThreadCollector(tid, n)
		if hinted != n || cap(tc.frags) != cap(want.frags) || cap(tc.created) != cap(want.created) || cap(tc.ends) != cap(want.ends) {
			t.Errorf("thread %d: %d events in the window, hinted %d; buffers %d/%d/%d, want %d/%d/%d", tid, n, hinted,
				cap(tc.frags), cap(tc.created), cap(tc.ends), cap(want.frags), cap(want.created), cap(want.ends))
		}
	}
	if unhinted != 1 {
		t.Errorf("%d threads unhinted, want the one whose clock ran backwards", unhinted)
	}
	c.Finish()
}
