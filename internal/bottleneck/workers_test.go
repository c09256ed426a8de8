package bottleneck_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/bottleneck"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// TestFinishWorkers holds Finish, which runs on the workers of the scan
// that fed it, to one Analysis at 1, 2, 3, 4 and 8 workers: over the 30
// BOTS traces of testdata and the four archive fixtures of internal/otf2,
// each whole and under the golden windows and thread subsets, and over
// random task graphs, well formed and with a clock run backwards. Each
// Analysis's wait states must add up to its threads' buckets, so a state
// merged twice shows at every worker count; under -race the test also
// holds the threads classified side by side to their own search fingers.
func TestFinishWorkers(t *testing.T) {
	type recording struct {
		name    string
		tr      *trace.Trace
		queries []trace.Query
	}
	var recs []recording
	var paths []string
	for _, c := range goldenCases() {
		paths = append(paths, c.base()+".otf2")
	}
	for _, f := range []string{"v4", "v4-flate", "v4-flight", "v4-cut"} {
		paths = append(paths, filepath.Join("..", "otf2", "testdata", f+".otf2"))
	}
	for _, path := range paths {
		tr, _, _, err := otf2.LoadFile(path, region.NewRegistry(), otf2.Query{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, recording{strings.TrimSuffix(filepath.Base(path), ".otf2"), tr, goldenQueries(tr)})
	}
	for seed := range int64(40) {
		for _, backwards := range []bool{false, true} {
			name := fmt.Sprintf("random-%d", seed)
			if backwards {
				name += "-backwards"
			}
			recs = append(recs, recording{name, bottleneck.RandomTrace(seed, backwards), []trace.Query{{}}})
		}
	}

	for _, r := range recs {
		t.Run(r.name, func(t *testing.T) {
			for i, q := range r.queries {
				var want *bottleneck.Analysis
				for _, workers := range []int{1, 2, 3, 4, 8} {
					c := bottleneck.NewCollector()
					trace.Scan(r.tr, q, workers, c)
					got := c.Finish()
					if bad := unbalancedTallies(got); bad != "" {
						t.Errorf("query %d %+v: %d workers: %s", i, q, workers, bad)
					}
					if want == nil {
						want = got
					} else if !reflect.DeepEqual(got, want) {
						t.Errorf("query %d %+v: %d workers\n got %+v\nwant %+v", i, q, workers, got, want)
					}
				}
			}
		})
	}
}

// unbalancedTallies compares each thread's wait states, summed by kind,
// with its buckets, and describes the first that differs.
func unbalancedTallies(a *bottleneck.Analysis) string {
	sums := map[int]*bottleneck.ThreadWaits{}
	for tid := range a.PerThread {
		sums[tid] = &bottleneck.ThreadWaits{ThreadID: tid}
	}
	for _, ws := range a.WaitStates {
		tw := sums[ws.Thread]
		if tw == nil {
			return fmt.Sprintf("wait state %+v of a thread not analysed", ws)
		}
		switch ws.Kind {
		case analyze.LateTaskSpawn:
			tw.LateSpawnWait += ws.Time
		case analyze.StarvedThief:
			tw.StarvedWait += ws.Time
		case analyze.BarrierImbalance:
			tw.BarrierWait += ws.Time
		}
	}
	for tid, tw := range a.PerThread {
		s := sums[tid]
		if s.LateSpawnWait != tw.LateSpawnWait || s.StarvedWait != tw.StarvedWait || s.BarrierWait != tw.BarrierWait {
			return fmt.Sprintf("thread %d: wait states sum to %+v, buckets %+v", tid, *s, *tw)
		}
	}
	return ""
}
