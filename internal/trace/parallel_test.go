package trace

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/region"
)

// parallelTestTrace builds a deterministic multi-thread trace with the
// event mix the analyzer cares about (sync regions, task lifecycles,
// switches back to the implicit task).
func parallelTestTrace(threads, tasks int) *Trace {
	reg := region.NewRegistry()
	par := reg.Register("p.par", "p.go", 1, region.Parallel)
	task := reg.Register("p.task", "p.go", 2, region.Task)
	tw := reg.Register("p.tw", "p.go", 3, region.Taskwait)
	tr := &Trace{Threads: make(map[int][]Event)}
	var id uint64
	for t := 0; t < threads; t++ {
		ts := int64(100 * t)
		tick := func(d int64) int64 { ts += d; return ts }
		evs := []Event{
			{Time: tick(1), Type: EvThreadBegin},
			{Time: tick(2), Type: EvEnter, Region: par},
			{Time: tick(3), Type: EvEnter, Region: tw},
		}
		for i := 0; i < tasks; i++ {
			id++
			evs = append(evs,
				Event{Time: tick(2), Type: EvTaskCreateBegin, Region: task},
				Event{Time: tick(5), Type: EvTaskCreateEnd, Region: task, TaskID: id},
				Event{Time: tick(1), Type: EvTaskBegin, Region: task, TaskID: id},
				Event{Time: tick(int64(7 + i%11)), Type: EvTaskEnd, Region: task, TaskID: id},
				Event{Time: tick(1), Type: EvTaskSwitch}, // back to the implicit task
			)
		}
		evs = append(evs,
			Event{Time: tick(4), Type: EvExit, Region: tw},
			Event{Time: tick(1), Type: EvExit, Region: par},
			Event{Time: tick(1), Type: EvThreadEnd},
		)
		tr.Threads[t] = evs
	}
	return tr
}

// TestAnalyzeParallelMatchesAnalyze checks the sharded in-memory
// analysis is reflect.DeepEqual-identical to the sequential one at
// every worker count.
func TestAnalyzeParallelMatchesAnalyze(t *testing.T) {
	tr := parallelTestTrace(4, 500)
	want := Analyze(tr)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		if got := AnalyzeParallel(tr, workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: parallel analysis diverges:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestParallelAnalyzerBatches feeds each thread's stream as many
// in-order batches from a dedicated goroutine — the shape a decode
// pipeline produces — and checks the merged result against Analyze.
// Run under -race this is the analyzer's concurrency proof.
func TestParallelAnalyzerBatches(t *testing.T) {
	tr := parallelTestTrace(8, 300)
	want := Analyze(tr)

	pa := NewAnalyzer()
	var wg sync.WaitGroup
	for tid, events := range tr.Threads {
		wg.Add(1)
		go func(tid int, events []Event) {
			defer wg.Done()
			const batch = 64
			for i := 0; i < len(events); i += batch {
				end := i + batch
				if end > len(events) {
					end = len(events)
				}
				pa.Consume(tid, events[i:end])
			}
		}(tid, events)
	}
	wg.Wait()
	if got := pa.Finish(); !reflect.DeepEqual(want, got) {
		t.Fatalf("batched parallel analysis diverges:\n got %+v\nwant %+v", got, want)
	}
}
