package trace

import (
	"sync"
	"testing"

	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
)

// TestRecorderRaceUnderTee drives concurrent thread registration on a
// runtime holding the recorder beside the profiling measurement (each
// made with a clock of its own; the runtime reads the first): each
// listener claims its own thread slot (Profile / TraceData) while teams
// start and tasks migrate between threads. Run with -race (CI does) to
// validate the slot contract.
func TestRecorderRaceUnderTee(t *testing.T) {
	for run := 0; run < 3; run++ {
		reg := region.NewRegistry()
		m := measure.New()
		rec, sink := newCollectingRecorder(clock.NewSystem())
		rt := omp.NewRuntimeWithRegistry(omp.Listeners{m, rec}, reg)
		par := reg.Register("par", "race.go", 1, region.Parallel)
		task := reg.Register("work", "race.go", 2, region.Task)
		tw := reg.Register("tw", "race.go", 3, region.Taskwait)

		const producers = 4
		const tasksPer = 100
		rt.Parallel(producers, par, func(th *omp.Thread) {
			// Every thread both produces and executes tasks, so task
			// events land on threads while they are still registering
			// buffers and the measurement is binding profile slots.
			for i := 0; i < tasksPer; i++ {
				th.NewTask(task, func(*omp.Thread) {})
			}
			th.Taskwait(tw)
		})
		m.Finish()

		rec.Finish()
		tr := sink.trace()
		counts := map[EventType]int{}
		for _, evs := range tr.Threads {
			for _, ev := range evs {
				counts[ev.Type]++
			}
		}
		want := producers * tasksPer
		if counts[EvTaskBegin] != want || counts[EvTaskEnd] != want {
			t.Fatalf("run %d: task begin/end = %d/%d, want %d/%d",
				run, counts[EvTaskBegin], counts[EvTaskEnd], want, want)
		}
		if counts[EvThreadBegin] != producers {
			t.Fatalf("run %d: thread begins = %d, want %d", run, counts[EvThreadBegin], producers)
		}
	}
}

// TestStreamingRecorderRaceUnderTee is the same contention pattern with
// short chunks: per-thread chunks flush into a shared sink while the
// measurement populates its own thread slots.
func TestStreamingRecorderRaceUnderTee(t *testing.T) {
	reg := region.NewRegistry()
	sink := &countingSink{}
	m := measure.New()
	rec := NewStreamingRecorder(clock.NewSystem(), sink, 32)
	rt := omp.NewRuntimeWithRegistry(omp.Listeners{m, rec}, reg)
	par := reg.Register("par", "race.go", 1, region.Parallel)
	task := reg.Register("work", "race.go", 2, region.Task)
	tw := reg.Register("tw", "race.go", 3, region.Taskwait)

	rt.Parallel(4, par, func(th *omp.Thread) {
		for i := 0; i < 100; i++ {
			th.NewTask(task, func(*omp.Thread) {})
		}
		th.Taskwait(tw)
	})
	m.Finish()
	rec.Finish()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	begins, ends := sink.count(EvTaskBegin), sink.count(EvTaskEnd)
	if begins != 400 || ends != 400 {
		t.Fatalf("task begin/end through sink = %d/%d, want 400/400", begins, ends)
	}
}

// countingSink tallies flushed events by type; safe for concurrent
// flushes like a real archive writer.
type countingSink struct {
	mu     sync.Mutex
	counts map[EventType]int
}

func (s *countingSink) WriteEvents(thread int, evs []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.counts == nil {
		s.counts = make(map[EventType]int)
	}
	for _, ev := range evs {
		s.counts[ev.Type]++
	}
	return nil
}

func (s *countingSink) count(t EventType) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[t]
}
