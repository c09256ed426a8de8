package bottleneck_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

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
// streams of one and two threads on one worker, and over a generated
// four-thread graph of 1.15 M events on one and two workers, the scan's,
// which Finish shares: there scan-ms and finish-ms split the pass.
func BenchmarkCollectFinish(b *testing.B) {
	type input struct {
		name    string
		tr      *trace.Trace
		workers []int
	}
	var inputs []input
	for _, threads := range []int{1, 2} {
		c := goldenCase{bots.FibSpec, bots.SizeSmall, scorep.SchedWorkStealing, threads}
		inputs = append(inputs, input{fmt.Sprintf("threads=%d", threads), recordTrace(b, c), []int{1}})
	}
	inputs = append(inputs, input{"generated/threads=4", bottleneck.GeneratedTrace(1, 4, 1500), []int{1, 2}})
	for _, in := range inputs {
		events := in.tr.NumEvents()
		for _, workers := range in.workers {
			name := in.name
			if len(in.workers) > 1 {
				name = fmt.Sprintf("%s/workers=%d", in.name, workers)
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var scan, finish time.Duration
				for b.Loop() {
					t0 := time.Now()
					c := bottleneck.NewCollector()
					trace.Scan(in.tr, trace.Query{}, workers, c)
					t1 := time.Now()
					c.Finish()
					scan, finish = scan+t1.Sub(t0), finish+time.Since(t1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
				if len(in.workers) > 1 {
					b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N)/1e6, "scan-ms")
					b.ReportMetric(float64(finish.Nanoseconds())/float64(b.N)/1e6, "finish-ms")
				}
			})
		}
	}
}
