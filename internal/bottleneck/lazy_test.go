package bottleneck_test

import (
	"fmt"
	"path/filepath"
	"testing"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/bottleneck"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// TestFinishBuildsOnlyWhatItAsks analyses recorded fib and health at
// one and two threads, and the shard of the experiment-fleet fixture
// (internal/otf2/testdata/v4.otf2): links tell every suspension time
// the walk asks, so no fragment table is laid out, and a one-thread
// recording, whose idle spans no other thread's pending windows can
// cover, lays out no pending set. Every fragment's suspension time and
// join are held to the brute-force references as well.
func TestFinishBuildsOnlyWhatItAsks(t *testing.T) {
	type recording struct {
		name string
		tr   *trace.Trace
	}
	var recs []recording
	for _, code := range []*bots.Spec{bots.FibSpec, bots.HealthSpec} {
		for _, threads := range []int{1, 2} {
			c := goldenCase{code, bots.SizeSmall, scorep.SchedWorkStealing, threads}
			recs = append(recs, recording{filepath.Base(c.base()), recordTrace(t, c)})
		}
	}
	shard, _, _, err := otf2.LoadFile(filepath.Join("..", "otf2", "testdata", "v4.otf2"), region.NewRegistry(), otf2.Query{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, recording{"experiment-fleet-shard", shard})

	for _, r := range recs {
		t.Run(r.name, func(t *testing.T) {
			_, _, tables := bottleneck.SlowPaths()
			pending := bottleneck.PendingSets()
			c := bottleneck.NewCollector()
			trace.Scan(r.tr, trace.Query{}, 1, c)
			a := c.Finish()
			if _, _, n := bottleneck.SlowPaths(); n != tables {
				t.Errorf("%d fragment tables laid out, want none", n-tables)
			}
			if n := bottleneck.PendingSets() - pending; a.Threads == 1 && n != 0 {
				t.Errorf("one thread: %d pending sets laid out, want none", n)
			}
			if a.CriticalPath.Segments == 0 {
				t.Error("the walk attributed no segment")
			}
			c = bottleneck.NewCollector()
			trace.Scan(r.tr, trace.Query{}, 1, c)
			if bad := bottleneck.JoinMismatches(c, 1); len(bad) > 0 {
				t.Errorf("%d suspension times or joins differ, first %s", len(bad), bad[0])
			}
		})
	}
}

// BenchmarkCollectFinish times a whole bottleneck pass — the collector
// fed one thread's run at a time, then Finish — over recorded fib small
// streams of one and two threads.
func BenchmarkCollectFinish(b *testing.B) {
	for _, threads := range []int{1, 2} {
		c := goldenCase{bots.FibSpec, bots.SizeSmall, scorep.SchedWorkStealing, threads}
		tr := recordTrace(b, c)
		events := 0
		for _, evs := range tr.Threads {
			events += len(evs)
		}
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c := bottleneck.NewCollector()
				trace.Scan(tr, trace.Query{}, 1, c)
				c.Finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
