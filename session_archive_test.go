package scorep_test

// A local tracing session records into an in-memory archive (see
// Session.End). These tests hold that archive against everything else
// that describes the same run: the decoded trace, the saved file, a
// second recorder on the same event stream, the analyses by both of
// their paths, and the profile.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

var archiveKernels = []*bots.Spec{bots.FibSpec, bots.NQueensSpec, bots.SparseLUSpec, bots.HealthSpec}

// collectEvents keeps every event a recorder flushes to it: what the
// recorder saw, through no codec.
type collectEvents struct {
	mu sync.Mutex
	tr trace.Trace
}

func (c *collectEvents) WriteEvents(thread int, evs []trace.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tr.Threads == nil {
		c.tr.Threads = make(map[int][]trace.Event)
	}
	c.tr.Threads[thread] = append(c.tr.Threads[thread], evs...)
	return nil
}

// runKernel runs one tiny BOTS kernel under a session made from opts.
func runKernel(t *testing.T, sp *bots.Spec, threads int, opts ...scorep.Option) *scorep.Results {
	t.Helper()
	s := scorep.NewSession(opts...)
	if got, want := sp.Prepare(bots.SizeTiny, false)(s.Runtime(), threads), sp.Expected(bots.SizeTiny); got != want {
		t.Fatalf("%s: result %d, want %d", sp.Name, got, want)
	}
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func forEachKernelRun(t *testing.T, fn func(t *testing.T, sp *bots.Spec, threads int, sched scorep.SchedulerKind)) {
	for _, sp := range archiveKernels {
		for _, threads := range []int{1, 2, 4} {
			for _, sched := range []scorep.SchedulerKind{scorep.SchedWorkStealing, scorep.SchedCentralQueue} {
				t.Run(fmt.Sprintf("%s/%d/%v", sp.Name, threads, sched), func(t *testing.T) {
					fn(t, sp, threads, sched)
				})
			}
		}
	}
}

func TestLocalSessionArchiveEquivalence(t *testing.T) {
	forEachKernelRun(t, func(t *testing.T, sp *bots.Spec, threads int, sched scorep.SchedulerKind) {
		clk := countingClock()
		var seen collectEvents
		plain := trace.NewStreamingRecorder(clk, &seen, 0)
		res := runKernel(t, sp, threads, scorep.WithTracing(), scorep.WithScheduler(sched),
			scorep.WithClock(clk), scorep.WithListener(plain))

		// The analyses first: nothing is materialized yet, so they scan
		// the archive.
		scanTA, scanBA := res.TraceAnalysis(), res.Bottlenecks()

		dir := filepath.Join(t.TempDir(), "exp")
		if err := res.SaveExperiment(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "trace.otf2")
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if held := bytes.Join(res.TraceArchive(), nil); !bytes.Equal(saved, held) {
			t.Errorf("saved trace.otf2 (%d bytes) is not a copy of the retained archive (%d bytes)", len(saved), len(held))
		}

		tr := res.Trace()
		fromFile, err := otf2.ReadFile(path, region.Default, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, fromFile) {
			t.Error("Results.Trace differs from the saved archive read back")
		}

		// The second recorder saw the same stream through no codec; its
		// events hold the very pointers the run used.
		plain.Finish()
		want := &seen.tr
		if !reflect.DeepEqual(tr.ThreadIDs(), want.ThreadIDs()) {
			t.Fatalf("threads %v, the plain recorder saw %v", tr.ThreadIDs(), want.ThreadIDs())
		}
		for _, tid := range want.ThreadIDs() {
			got, want := tr.Threads[tid], want.Threads[tid]
			if len(got) != len(want) {
				t.Fatalf("thread %d: %d events, the plain recorder saw %d", tid, len(got), len(want))
			}
			for i := range want {
				if got[i].Type != want[i].Type || got[i].Region != want[i].Region || got[i].TaskID != want[i].TaskID {
					t.Fatalf("thread %d event %d: %v %v task %d, the plain recorder saw %v %v task %d", tid, i,
						got[i].Type, got[i].Region, got[i].TaskID, want[i].Type, want[i].Region, want[i].TaskID)
				}
			}
		}

		// Once more with the trace materialized, and against the
		// sequential analyses of it and the reopened experiment.
		res.ForgetAnalyses()
		exp, err := scorep.OpenExperiment(dir)
		if err != nil {
			t.Fatal(err)
		}
		expTA, err := exp.TraceAnalysis()
		if err != nil {
			t.Fatal(err)
		}
		expBA, err := exp.Bottlenecks()
		if err != nil {
			t.Fatal(err)
		}
		refTA, refBA := trace.Analyze(tr), bottleneck.Analyze(tr)
		for name, ta := range map[string]*scorep.TraceAnalysis{"archive scan": scanTA, "materialized trace": res.TraceAnalysis(), "reopened experiment": expTA} {
			if !reflect.DeepEqual(ta, refTA) {
				t.Errorf("trace analysis by %s differs from trace.Analyze(Trace())", name)
			}
		}
		for name, ba := range map[string]*scorep.BottleneckAnalysis{"archive scan": scanBA, "materialized trace": res.Bottlenecks(), "reopened experiment": expBA} {
			if !reflect.DeepEqual(ba, refBA) {
				t.Errorf("bottleneck analysis by %s differs from bottleneck.Analyze(Trace())", name)
			}
		}
		if len(exp.Warnings()) != 0 {
			t.Errorf("reopened experiment warns: %v", exp.Warnings())
		}
	})
}

// TestLocalSessionArchiveFlate: compression is a property of the save.
// The session records raw; SaveExperiment writes the decoded trace anew.
// The clock counts, so that every kernel's chunks compress: sparselu's
// two chunks of some 110 events each, under a real clock slowed by the
// race detector, are too few bytes too irregular for DEFLATE to shrink,
// and the writer keeps such chunks raw.
func TestLocalSessionArchiveFlate(t *testing.T) {
	for _, sp := range archiveKernels {
		res := runKernel(t, sp, 2, scorep.WithTracing(), scorep.WithTraceCompression(scorep.TraceCompressionFlate), scorep.WithClock(countingClock()))
		dir := filepath.Join(t.TempDir(), "exp")
		if err := res.SaveExperiment(dir); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "trace.otf2")
		st, err := otf2.StatFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.CompressedChunks == 0 || !st.Indexed {
			t.Errorf("%s: saved archive has %d compressed chunks, indexed=%v", sp.Name, st.CompressedChunks, st.Indexed)
		}
		fromFile, err := otf2.ReadFile(path, region.Default, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Trace(), fromFile) {
			t.Errorf("%s: the compressed save decodes to a different trace", sp.Name)
		}
	}
}

// TestLocalSessionArchiveDeterministic: on one thread under a
// deterministic clock the archive's bytes repeat from run to run.
func TestLocalSessionArchiveDeterministic(t *testing.T) {
	for _, sp := range archiveKernels {
		a := bytes.Join(runKernel(t, sp, 1, scorep.WithTracing(), scorep.WithClock(countingClock())).TraceArchive(), nil)
		b := bytes.Join(runKernel(t, sp, 1, scorep.WithTracing(), scorep.WithClock(countingClock())).TraceArchive(), nil)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: two one-thread runs gave different archives (%d and %d bytes)", sp.Name, len(a), len(b))
		}
	}
}

// TestLocalSessionProfileMatchesTrace holds the two records of one run
// against each other: the profile's visits per region are the trace's
// enters of it (a task construct's tree is visited once per task begun,
// its creation region once per creation), and every task created begins
// and ends exactly once.
func TestLocalSessionProfileMatchesTrace(t *testing.T) {
	forEachKernelRun(t, func(t *testing.T, sp *bots.Spec, threads int, sched scorep.SchedulerKind) {
		res := runKernel(t, sp, threads, scorep.WithTracing(), scorep.WithScheduler(sched))
		enters := map[*scorep.Region]int64{}
		var begins, ends int64
		for _, evs := range res.Trace().Threads {
			for _, ev := range evs {
				switch ev.Type {
				case trace.EvEnter:
					enters[ev.Region]++
				case trace.EvTaskCreateBegin: // names the task construct; the profile enters its creation region
					enters[region.Default.TaskCreateRegion(ev.Region)]++
				case trace.EvTaskBegin:
					enters[ev.Region]++
					begins++
				case trace.EvTaskEnd:
					ends++
				}
			}
		}
		if created := res.TeamStats().TasksCreated; begins != created || ends != created {
			t.Errorf("%d tasks created, the trace has %d task begins and %d task ends", created, begins, ends)
		}
		visits := map[*scorep.Region]int64{}
		count := func(n *scorep.ReportNode, _ int) {
			if n.Kind == core.KindRegion && n.Region != nil {
				visits[n.Region] += n.Visits
			}
		}
		rep := res.Report()
		rep.Main.Walk(count)
		for _, tt := range rep.Tasks {
			tt.Walk(count)
		}
		if !reflect.DeepEqual(visits, enters) {
			for r, n := range enters {
				if visits[r] != n {
					t.Errorf("%v: %d visits in the profile, %d enters in the trace", r, visits[r], n)
				}
			}
			for r, n := range visits {
				if _, ok := enters[r]; !ok {
					t.Errorf("%v: %d visits in the profile, never entered in the trace", r, n)
				}
			}
		}
	})
}

// TestTaskEndResumesAtOneInstant: a task's end and the resumption of
// the task it suspended are one scheduling point, recorded at one clock
// reading. On every thread of fib and nqueens runs, each EvTaskEnd ends
// the task the thread runs and is followed by an EvTaskSwitch at the
// same time naming the task below it (task 0 and no region: the
// implicit task), and every thread's stream is monotone.
func TestTaskEndResumesAtOneInstant(t *testing.T) {
	type running struct {
		id  uint64
		reg *scorep.Region
	}
	for _, sp := range []*bots.Spec{bots.FibSpec, bots.NQueensSpec} {
		for _, threads := range []int{1, 2, 4} {
			for _, sched := range []scorep.SchedulerKind{scorep.SchedWorkStealing, scorep.SchedCentralQueue} {
				t.Run(fmt.Sprintf("%s/%d/%v", sp.Name, threads, sched), func(t *testing.T) {
					res := runKernel(t, sp, threads, scorep.WithTracing(), scorep.WithScheduler(sched))
					ends := 0
					for tid, evs := range res.Trace().Threads {
						var stack []running
						for i, ev := range evs {
							if i > 0 && ev.Time < evs[i-1].Time {
								t.Fatalf("thread %d: event %d at %d, after %d", tid, i, ev.Time, evs[i-1].Time)
							}
							switch ev.Type {
							case trace.EvTaskBegin:
								stack = append(stack, running{ev.TaskID, ev.Region})
							case trace.EvTaskEnd:
								ends++
								if n := len(stack); n == 0 || stack[n-1].id != ev.TaskID {
									t.Fatalf("thread %d: event %d ends task %d, which the thread does not run", tid, i, ev.TaskID)
								}
								stack = stack[:len(stack)-1]
								var want running
								if n := len(stack); n > 0 {
									want = stack[n-1]
								}
								if i+1 == len(evs) {
									t.Fatalf("thread %d: the stream ends with task %d's end", tid, ev.TaskID)
								}
								sw := evs[i+1]
								if sw.Type != trace.EvTaskSwitch || sw.Time != ev.Time || sw.TaskID != want.id || sw.Region != want.reg {
									t.Fatalf("thread %d: task %d ends at %d and is followed by %v of task %d at %d, want the switch to task %d at the same time",
										tid, ev.TaskID, ev.Time, sw.Type, sw.TaskID, sw.Time, want.id)
								}
							}
						}
					}
					if created := res.TeamStats().TasksCreated; int64(ends) != created {
						t.Errorf("%d task ends, %d tasks created", ends, created)
					}
				})
			}
		}
	}
}

// TestLocalSessionOwnArchiveDamagedPanics: a session that cannot read
// back what it wrote has a bug, and says so instead of returning an
// empty trace.
func TestLocalSessionOwnArchiveDamagedPanics(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			err, _ := recover().(error)
			if err == nil || !strings.Contains(err.Error(), "own trace archive") {
				t.Errorf("%s over a damaged archive: recovered %v, want a panic naming the session's own archive", what, err)
			}
		}()
		fn()
	}
	res := runKernel(t, bots.FibSpec, 2, scorep.WithTracing())
	segs := res.TraceArchive()
	a := segs[len(segs)/2]
	for i := len(a) / 2; i < len(a)/2+64; i++ {
		a[i] = 0xff // no event type, and a varint that never ends
	}
	mustPanic("Trace", func() { res.Trace() })
	mustPanic("TraceAnalysis", func() { res.TraceAnalysis() })
	mustPanic("Bottlenecks", func() { res.Bottlenecks() })
}

// kthCallSink accepts its first ok batches and fails from then on.
type kthCallSink struct {
	ok, calls, accepted int // one-thread sessions only: no locking
}

var errSinkBroke = errors.New("sink broke")

func (s *kthCallSink) WriteEvents(_ int, evs []scorep.TraceEvent) error {
	if s.calls++; s.calls > s.ok {
		return errSinkBroke
	}
	s.accepted += len(evs)
	return nil
}

// TestSessionCountsEventsDiscardedAfterSinkFailure: what a streaming
// session drops once its sink has failed — the refused batch and all
// after it — is counted in End's error.
func TestSessionCountsEventsDiscardedAfterSinkFailure(t *testing.T) {
	for _, ok := range []int{0, 2, 5} {
		sink, all := &kthCallSink{ok: ok}, &countingListener{}
		s := scorep.NewSession(scorep.WithoutProfiling(), scorep.WithStreamingTrace(sink, 16), scorep.WithListener(all))
		runSessionWorkload(t, s, "sd", 1, 64)
		_, err := s.End()
		want := fmt.Sprintf("(%d events discarded)", all.events.Load()-int64(sink.accepted))
		if !errors.Is(err, errSinkBroke) || !strings.Contains(err.Error(), want) {
			t.Errorf("sink failing on call %d: End() = %v, want the sink's error with %s", ok+1, err, want)
		}
		if sink.accepted != 16*ok {
			t.Errorf("sink failing on call %d accepted %d events, want %d", ok+1, sink.accepted, 16*ok)
		}
	}
}

// TestLocalSessionCountsEventsDiscardedAfterArchiveRefusal: the one
// failure an in-memory archive has is the writer refusing a record (a
// region name too long to encode). The session behaves like a streaming
// session whose sink failed: End reports it with the count of events
// dropped from the refused batch on, and the results stay usable,
// holding what the archive had taken in before.
func TestLocalSessionCountsEventsDiscardedAfterArchiveRefusal(t *testing.T) {
	const block = trace.DefaultChunkEvents // the session stages this many events per batch
	fn := scorep.RegisterRegion("lr.fn", "session_archive_test.go", 1, scorep.RegionFunction)
	par := scorep.RegisterRegion("lr.parallel", "session_archive_test.go", 2, scorep.RegionParallel)
	// Not registered: 32 MiB of name should not outlive the test.
	huge := &scorep.Region{Name: strings.Repeat("x", 1<<25), Type: scorep.RegionFunction}

	all := &countingListener{}
	s := scorep.NewSession(scorep.WithTracing(), scorep.WithoutProfiling(), scorep.WithListener(all))
	s.Parallel(1, par, func(th *scorep.Thread) {
		for i := 0; i < 3*block/2; i++ { // 3 batches of enter/exit pairs, the name in the second
			r := fn
			if i == 3*block/4 {
				r = huge
			}
			scorep.InstrumentFunction(th, r, func() {})
		}
	})
	res, err := s.End()
	want := fmt.Sprintf("(%d events discarded)", all.events.Load()-block)
	if err == nil || !strings.Contains(err.Error(), "exceeds the encodable limit") || !strings.Contains(err.Error(), want) {
		t.Fatalf("End() = %v, want the writer's refusal with %s", err, want)
	}
	tr := res.Trace()
	if tr == nil || tr.NumEvents() > block {
		t.Fatalf("Trace() after a refusal = %v, want the at most %d events recorded before it", tr, block)
	}
	if a := res.TraceAnalysis(); a == nil {
		t.Error("TraceAnalysis() after a refusal is nil")
	}
	dir := filepath.Join(t.TempDir(), "exp")
	if err := res.SaveExperiment(dir); err != nil {
		t.Fatal(err)
	}
	fromFile, err := otf2.ReadFile(filepath.Join(dir, "trace.otf2"), region.Default, 1)
	if err != nil || !reflect.DeepEqual(fromFile, tr) {
		t.Errorf("the experiment saved after a refusal reads back as %v (err %v), want Trace()", fromFile, err)
	}
}
