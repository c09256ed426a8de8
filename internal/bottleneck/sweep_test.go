package bottleneck

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// producerConsumerTrace is the producer/consumer shape: threads
// 0..producers-1 create tasks tasks between them, five ticks apiece, and
// meet in the region's implicit barrier; the last thread waits in that
// barrier from the start and runs every task, twenty-five ticks apiece,
// so created-but-unstarted tasks pile up to most of tasks. Each task it
// runs leaves the consumer one idle span, between the task's end and
// the switch back to the implicit task. Times start at base.
func producerConsumerTrace(tasks, producers int, base int64) *trace.Trace {
	reg := region.NewRegistry()
	par := reg.Register("pc.parallel", "pc.go", 1, region.Parallel)
	ibar := reg.Register("pc.parallel", "pc.go", 1, region.ImplicitBarrier)
	task := []*region.Region{
		reg.Register("pc.taskA", "pc.go", 2, region.Task),
		reg.Register("pc.taskB", "pc.go", 3, region.Task),
	}
	tr := &trace.Trace{Threads: make(map[int][]trace.Event, producers+1)}
	createEnd := make([]int64, tasks+1)
	for p := 0; p < producers; p++ {
		now := base + int64(p)
		evs := []trace.Event{{Time: now, Type: trace.EvThreadBegin}, {Time: now + 1, Type: trace.EvEnter, Region: par}}
		now++
		for id := p + 1; id <= tasks; id += producers {
			r := task[id%3%2]
			evs = append(evs, trace.Event{Time: now + 2, Type: trace.EvTaskCreateBegin, Region: r},
				trace.Event{Time: now + 5, Type: trace.EvTaskCreateEnd, Region: r, TaskID: uint64(id)})
			now += 5
			createEnd[id] = now
		}
		tr.Threads[p] = append(evs, trace.Event{Time: now + 1, Type: trace.EvEnter, Region: ibar})
	}
	now := base + 2
	evs := []trace.Event{{Time: base, Type: trace.EvThreadBegin}, {Time: base + 1, Type: trace.EvEnter, Region: par}, {Time: now, Type: trace.EvEnter, Region: ibar}}
	for id := 1; id <= tasks; id++ {
		r := task[id%3%2]
		now = max(now+4, createEnd[id]+1)
		evs = append(evs, trace.Event{Time: now, Type: trace.EvTaskBegin, Region: r, TaskID: uint64(id)},
			trace.Event{Time: now + 20, Type: trace.EvTaskEnd, Region: r, TaskID: uint64(id)},
			trace.Event{Time: now + 21, Type: trace.EvTaskSwitch})
		now += 21
	}
	for tid := 0; tid <= producers; tid++ {
		if tid == producers {
			tr.Threads[tid] = evs
		}
		leave := now + 5 + int64(tid)
		tr.Threads[tid] = append(tr.Threads[tid], trace.Event{Time: leave, Type: trace.EvExit, Region: ibar},
			trace.Event{Time: leave + 1, Type: trace.EvExit, Region: par}, trace.Event{Time: leave + 2, Type: trace.EvThreadEnd})
	}
	return tr
}

// assertReferenceWaits holds the waits Analyze finds in tr to the
// reference classification's.
func assertReferenceWaits(t *testing.T, tr *trace.Trace) *Analysis {
	t.Helper()
	a := Analyze(tr)
	refThreads, refStates := referenceWaits(tr, trace.Query{})
	if got := threadWaits(a.PerThread); !reflect.DeepEqual(got, refThreads) || !reflect.DeepEqual(a.WaitStates, refStates) {
		t.Fatalf("waits\n got %+v %+v\nwant %+v %+v", got, a.WaitStates, refThreads, refStates)
	}
	return a
}

// TestClassifyIdleScaling counts, not times, what the idle
// classification does on a two-thread single-producer trace, where
// every one of the consumer's idle spans lies under thousands of open
// pending windows: the steps stay within n log2 n for n windows, idle
// spans and barrier visits (in time order they come to a few per
// record), and twice the tasks take little more than twice the steps.
// (The reference, which walks the open windows per span, takes four
// times.)
func TestClassifyIdleScaling(t *testing.T) {
	a := assertReferenceWaits(t, producerConsumerTrace(2_000, 1, 0))
	if tw := a.PerThread[1]; tw.StarvedWait == 0 || tw.BarrierWait != 0 {
		t.Fatalf("consumer waits %+v: want its idle starved, the producer's windows being open throughout", tw)
	}

	steps := func(tasks int) float64 {
		tcs := collect(producerConsumerTrace(tasks, 1, 0), trace.Query{})
		n := 0
		for _, tc := range tcs {
			n += len(tc.created) + len(tc.idles) + len(tc.barriers)
		}
		before := classifySteps.Load()
		finish(tcs, 1)
		got := float64(classifySteps.Load() - before)
		if bound := float64(n) * math.Log2(float64(n)); n < 2*tasks || got > bound {
			t.Errorf("%d tasks: %v steps for %d windows, idle spans and barrier visits, want at most n log2 n = %.0f", tasks, got, n, bound)
		}
		return got
	}
	if s10, s20 := steps(10_000), steps(20_000); s20 > 2.5*s10 {
		t.Errorf("classification steps: %v at 10k tasks, %v at 20k: more than 2.5 times", s10, s20)
	}
}

// TestClassifyIdleLongRecording puts the producer/consumer shape, with
// two producers so that their summed overlaps decide the cause, at
// timestamps near 2^62: the prefix sums over window starts and ends
// wrap after two windows, and the waits must be the reference's, which
// only ever subtracts.
func TestClassifyIdleLongRecording(t *testing.T) {
	a := assertReferenceWaits(t, producerConsumerTrace(3_000, 2, 1<<62))
	causes := map[int]bool{}
	for _, ws := range a.WaitStates {
		if ws.Thread == 2 {
			causes[ws.CauseThread] = true
		}
	}
	if !causes[0] || !causes[1] {
		t.Fatalf("consumer's waits name causes %v: want both producers, or summed overlaps decided nothing", causes)
	}
}

// BenchmarkFinishProducerConsumer times finish — classification and
// critical path, the collectors filled beforehand — on the two-thread
// single-producer trace.
func BenchmarkFinishProducerConsumer(b *testing.B) {
	for _, tasks := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			tr := producerConsumerTrace(tasks, 1, 0)
			for b.Loop() {
				b.StopTimer()
				tcs := collect(tr, trace.Query{})
				b.StartTimer()
				finish(tcs, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tasks), "ns/task")
		})
	}
}
