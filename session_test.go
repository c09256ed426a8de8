package scorep_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	scorep "repro"
	"repro/internal/clock"
)

// runSessionWorkload executes a small deterministic task workload (one
// parallel region, tasks tasks of one construct created by thread 0) on
// the session's runtime.
func runSessionWorkload(t *testing.T, s *scorep.Session, prefix string, threads, tasks int) {
	t.Helper()
	par := scorep.RegisterRegion(prefix+".parallel", "session_test.go", 1, scorep.RegionParallel)
	task := scorep.RegisterRegion(prefix+".task", "session_test.go", 2, scorep.RegionTask)
	tw := scorep.RegisterRegion(prefix+".taskwait", "session_test.go", 3, scorep.RegionTaskwait)
	fn := scorep.RegisterRegion(prefix+".helper", "session_test.go", 4, scorep.RegionFunction)
	s.Parallel(threads, par, func(th *scorep.Thread) {
		if th.ID != 0 {
			return
		}
		for i := 0; i < tasks; i++ {
			th.NewTask(task, func(c *scorep.Thread) {
				scorep.InstrumentFunction(c, fn, func() {
					x := 0
					for j := 0; j < 2000; j++ {
						x += j
					}
					_ = x
				})
			})
		}
		th.Taskwait(tw)
	})
}

func TestSessionDefaults(t *testing.T) {
	s := scorep.NewSession()
	if !s.Profiling() {
		t.Error("profiling should default to on (SCOREP_ENABLE_PROFILING=true)")
	}
	if s.Tracing() {
		t.Error("tracing should default to off (SCOREP_ENABLE_TRACING=false)")
	}
	if s.Scheduler() != scorep.SchedCentralQueue {
		t.Errorf("scheduler = %v, want central queue default", s.Scheduler())
	}
	if s.ExperimentDir() != "" {
		t.Errorf("experiment dir = %q, want none", s.ExperimentDir())
	}
}

func TestSessionProfilingRun(t *testing.T) {
	s := scorep.NewSession(scorep.WithScheduler(scorep.SchedWorkStealing))
	runSessionWorkload(t, s, "sp", 2, 12)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep == nil {
		t.Fatal("profiling session returned no report")
	}
	tree := rep.TaskTree("sp.task")
	if tree == nil || tree.Dur.Count != 12 {
		t.Fatalf("task tree = %+v, want 12 instances", tree)
	}
	if res.Trace() != nil {
		t.Error("non-tracing session returned a trace")
	}
	if res.TraceAnalysis() != nil {
		t.Error("non-tracing session returned a trace analysis")
	}
	if got := res.TeamStats().TasksCreated; got != 12 {
		t.Errorf("TeamStats.TasksCreated = %d, want 12", got)
	}
	if len(res.Locations()) != 2 {
		t.Errorf("locations = %d, want 2", len(res.Locations()))
	}
	if res.WallTime() <= 0 {
		t.Error("wall time not measured")
	}
	if res.Findings() == nil {
		t.Error("findings should be non-nil for a profiled run (possibly empty)")
	}

	// End is idempotent and returns the same Results.
	res2, err := s.End()
	if err != nil || res2 != res {
		t.Errorf("second End() = (%p, %v), want same results (%p, nil)", res2, err, res)
	}
}

func TestSessionTracing(t *testing.T) {
	s := scorep.NewSession(scorep.WithTracing())
	runSessionWorkload(t, s, "st", 2, 16)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() == nil {
		t.Error("WithTracing should not disable the default profiling")
	}
	tr := res.Trace()
	if tr == nil || tr.NumEvents() == 0 {
		t.Fatal("tracing session recorded no events")
	}
	a := res.TraceAnalysis()
	if a == nil || a.TaskExecution.Count != 16 {
		t.Fatalf("trace analysis fragments = %+v, want 16", a)
	}
	if res.TraceAnalysis() != a {
		t.Error("TraceAnalysis not cached")
	}
}

// TestSessionAnalysisParallelism checks the analysis-parallelism knob
// changes nothing but the worker count: the sharded analysis of a
// session's trace is identical to the sequential one.
func TestSessionAnalysisParallelism(t *testing.T) {
	s := scorep.NewSession(scorep.WithTracing(), scorep.WithAnalysisParallelism(4))
	runSessionWorkload(t, s, "sap", 2, 24)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	a := res.TraceAnalysis()
	if a == nil || a.TaskExecution.Count != 24 {
		t.Fatalf("parallel trace analysis = %+v, want 24 task fragments", a)
	}
	if want := analyzeTrace(res.Trace(), scorep.TraceQuery{}, 1); !reflect.DeepEqual(want, a) {
		t.Errorf("parallel analysis diverges from sequential:\n got %+v\nwant %+v", a, want)
	}
	if got := analyzeTrace(res.Trace(), scorep.TraceQuery{}, 3); !reflect.DeepEqual(got, a) {
		t.Errorf("the analysis diverges at a different worker count")
	}
}

func TestSessionWithoutProfiling(t *testing.T) {
	s := scorep.NewSession(scorep.WithoutProfiling())
	runSessionWorkload(t, s, "su", 2, 4)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report() != nil || res.Locations() != nil || res.Findings() != nil {
		t.Error("uninstrumented session produced profiling artifacts")
	}
}

func TestSessionFilter(t *testing.T) {
	s := scorep.NewSession(scorep.WithFilter("sf.helper"))
	runSessionWorkload(t, s, "sf", 2, 8)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	tree := res.Report().TaskTree("sf.task")
	if tree == nil {
		t.Fatal("no task tree")
	}
	if tree.Find("sf.helper") != nil {
		t.Error("filter did not exclude sf.helper from the profile")
	}
}

// countingListener counts Enter events and all trace events (a TaskEnd
// is two: the end and the switch to the resumed task), standing in for
// a user-supplied extra listener.
type countingListener struct{ enters, events atomic.Int64 }

func (c *countingListener) ThreadBegin(*scorep.Thread, int64) { c.events.Add(1) }
func (c *countingListener) ThreadEnd(*scorep.Thread, int64)   { c.events.Add(1) }
func (c *countingListener) Enter(*scorep.Thread, *scorep.Region, int64) {
	c.enters.Add(1)
	c.events.Add(1)
}
func (c *countingListener) Exit(*scorep.Thread, *scorep.Region, int64)            { c.events.Add(1) }
func (c *countingListener) TaskCreateBegin(*scorep.Thread, *scorep.Region, int64) { c.events.Add(1) }
func (c *countingListener) TaskCreateEnd(*scorep.Thread, *scorep.Task, int64)     { c.events.Add(1) }
func (c *countingListener) TaskBegin(*scorep.Thread, *scorep.Task, int64)         { c.events.Add(1) }
func (c *countingListener) TaskEnd(*scorep.Thread, *scorep.Task, *scorep.Task, int64) {
	c.events.Add(2)
}

func TestSessionWithListener(t *testing.T) {
	extra := &countingListener{}
	s := scorep.NewSession(scorep.WithListener(extra))
	runSessionWorkload(t, s, "sl", 2, 8)
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
	if extra.enters.Load() == 0 {
		t.Error("extra listener saw no Enter events")
	}
}

// stampLog is a WithListener extra that keeps the instant of every
// call, once per trace record (a TaskEnd is two: the end and the
// switch), and checks against the session's counting clock that the
// runtime read it exactly once for the call and no listener read it in
// the call — a profile's creation at ThreadBegin aside, whose root
// opens at its own reading (ROADMAP item 10). One thread, so that one
// counter sees one thread's reads.
type stampLog struct {
	reads    *atomic.Int64
	returned int64 // reads when the previous call returned
	times    []int64
	bad      []string
}

func (l *stampLog) stamp(method string, now int64, records int) {
	if now != l.returned+1 || method != "ThreadBegin" && l.reads.Load() != now {
		l.bad = append(l.bad, fmt.Sprintf("%s at %d: %d reads before it, %d after", method, now, now-l.returned, l.reads.Load()-now))
	}
	for ; records > 0; records-- {
		l.times = append(l.times, now)
	}
	l.returned = l.reads.Load()
}

func (l *stampLog) ThreadBegin(_ *scorep.Thread, now int64) { l.stamp("ThreadBegin", now, 1) }
func (l *stampLog) ThreadEnd(_ *scorep.Thread, now int64)   { l.stamp("ThreadEnd", now, 1) }
func (l *stampLog) Enter(_ *scorep.Thread, _ *scorep.Region, now int64) {
	l.stamp("Enter", now, 1)
}
func (l *stampLog) Exit(_ *scorep.Thread, _ *scorep.Region, now int64) { l.stamp("Exit", now, 1) }
func (l *stampLog) TaskCreateBegin(_ *scorep.Thread, _ *scorep.Region, now int64) {
	l.stamp("TaskCreateBegin", now, 1)
}
func (l *stampLog) TaskCreateEnd(_ *scorep.Thread, _ *scorep.Task, now int64) {
	l.stamp("TaskCreateEnd", now, 1)
}
func (l *stampLog) TaskBegin(_ *scorep.Thread, _ *scorep.Task, now int64) {
	l.stamp("TaskBegin", now, 1)
}
func (l *stampLog) TaskEnd(_ *scorep.Thread, _, _ *scorep.Task, now int64) {
	l.stamp("TaskEnd", now, 2)
}

// TestSessionStampsEachEventOnce runs a profiling and tracing session
// on a counting clock with an extra listener: the runtime reads the
// clock once per listener call, and the extra listener sees, event for
// event, the instants the trace records.
func TestSessionStampsEachEventOnce(t *testing.T) {
	var reads atomic.Int64
	extra := &stampLog{reads: &reads}
	s := scorep.NewSession(scorep.WithTracing(), scorep.WithListener(extra),
		scorep.WithClock(clock.Func(func() int64 { return reads.Add(1) })))
	runSessionWorkload(t, s, "once", 1, 8)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range extra.bad {
		t.Error(msg)
	}
	evs := res.Trace().Threads[0]
	if len(evs) != len(extra.times) || len(evs) == 0 {
		t.Fatalf("the trace holds %d records, the extra listener saw %d", len(evs), len(extra.times))
	}
	for i, ev := range evs {
		if ev.Time != extra.times[i] {
			t.Fatalf("record %d (%s) at %d, the extra listener's instant %d", i, ev.Type, ev.Time, extra.times[i])
		}
	}
}

func TestSessionStreamingTrace(t *testing.T) {
	var buf bytes.Buffer
	aw := scorep.NewTraceArchiveWriter(&buf)
	s := scorep.NewSession(scorep.WithoutProfiling(), scorep.WithStreamingTrace(aw, 64))
	runSessionWorkload(t, s, "ss", 2, 32)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Trace() != nil {
		t.Error("streaming session must not return an in-memory trace")
	}
	if tr := loadArchive(t, buf.Bytes()); tr.NumEvents() == 0 {
		t.Error("streamed archive holds no events")
	}
}

// failingSink rejects every chunk, modelling a full or broken disk.
type failingSink struct{}

func (failingSink) WriteEvents(int, []scorep.TraceEvent) error {
	return errors.New("disk full")
}

func TestSessionStreamingSinkErrorSurfacesAtEnd(t *testing.T) {
	s := scorep.NewSession(scorep.WithoutProfiling(), scorep.WithStreamingTrace(failingSink{}, 8))
	runSessionWorkload(t, s, "se", 2, 64)
	res, err := s.End()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("End() error = %v, want the latched sink error", err)
	}
	if res == nil {
		t.Fatal("Results must be valid even when End errors")
	}
}

func TestNewSessionFromEnv(t *testing.T) {
	t.Setenv(scorep.EnvEnableProfiling, "no")
	t.Setenv(scorep.EnvEnableTracing, "yes")
	t.Setenv(scorep.EnvTaskScheduler, "work-stealing")
	t.Setenv(scorep.EnvFiltering, "noisy_*, tiny_helper")
	dir := t.TempDir() + "/scorep-env"
	t.Setenv(scorep.EnvExperimentDirectory, dir)

	s, err := scorep.NewSessionFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	if s.Profiling() {
		t.Error("env disabled profiling, session still profiles")
	}
	if !s.Tracing() {
		t.Error("env enabled tracing, session does not trace")
	}
	if s.Scheduler() != scorep.SchedWorkStealing {
		t.Errorf("scheduler = %v, want work-stealing from env", s.Scheduler())
	}
	if s.ExperimentDir() != dir {
		t.Errorf("experiment dir = %q, want %q", s.ExperimentDir(), dir)
	}

	runSessionWorkload(t, s, "sv", 2, 8)
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatalf("End did not save the experiment to %s: %v", scorep.EnvExperimentDirectory, err)
	}
	if exp.Meta.HasProfile {
		t.Error("experiment claims a profile for a profiling-disabled run")
	}
	if !exp.Meta.HasTrace {
		t.Error("experiment misses the trace of a tracing run")
	}
}

func TestNewSessionFromEnvOverridesBaseOptions(t *testing.T) {
	t.Setenv(scorep.EnvTaskScheduler, "central-queue")
	s, err := scorep.NewSessionFromEnv(scorep.WithScheduler(scorep.SchedWorkStealing))
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheduler() != scorep.SchedCentralQueue {
		t.Errorf("scheduler = %v, environment must override base options", s.Scheduler())
	}
}

func TestNewSessionFromEnvDisablesTracing(t *testing.T) {
	t.Setenv(scorep.EnvEnableTracing, "false")
	s, err := scorep.NewSessionFromEnv(scorep.WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if s.Tracing() {
		t.Error("SCOREP_ENABLE_TRACING=false must override a base WithTracing")
	}
}

func TestNewSessionFromEnvKeepsStreamingSink(t *testing.T) {
	t.Setenv(scorep.EnvEnableTracing, "on")
	var buf bytes.Buffer
	aw := scorep.NewTraceArchiveWriter(&buf)
	s, err := scorep.NewSessionFromEnv(scorep.WithoutProfiling(), scorep.WithStreamingTrace(aw, 16))
	if err != nil {
		t.Fatal(err)
	}
	runSessionWorkload(t, s, "sk", 2, 16)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Trace() != nil {
		t.Error("env tracing=true dropped the programmatic streaming sink (in-memory trace returned)")
	}
	if tr := loadArchive(t, buf.Bytes()); tr.NumEvents() == 0 {
		t.Error("streaming sink received no events under env-enabled tracing")
	}
}

func TestNewSessionFromEnvFilterReplacesBase(t *testing.T) {
	// An empty SCOREP_FILTERING disables compiled-in filters entirely.
	t.Setenv(scorep.EnvFiltering, "")
	s, err := scorep.NewSessionFromEnv(scorep.WithFilter("sw.helper"))
	if err != nil {
		t.Fatal(err)
	}
	runSessionWorkload(t, s, "sw", 2, 8)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().TaskTree("sw.task").Find("sw.helper") == nil {
		t.Error("empty SCOREP_FILTERING must clear compiled-in filter patterns")
	}

	// A non-empty value replaces (not merges with) the base patterns.
	t.Setenv(scorep.EnvFiltering, "sx.helper")
	s2, err := scorep.NewSessionFromEnv(scorep.WithFilter("unrelated_*"))
	if err != nil {
		t.Fatal(err)
	}
	runSessionWorkload(t, s2, "sx", 2, 8)
	res2, err := s2.End()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report().TaskTree("sx.task").Find("sx.helper") != nil {
		t.Error("SCOREP_FILTERING patterns were not applied")
	}
}

func TestNewSessionFromEnvRejectsBadValues(t *testing.T) {
	t.Setenv(scorep.EnvEnableProfiling, "maybe")
	if _, err := scorep.NewSessionFromEnv(); err == nil {
		t.Errorf("%s=maybe accepted", scorep.EnvEnableProfiling)
	}
	t.Setenv(scorep.EnvEnableProfiling, "true")
	t.Setenv(scorep.EnvTaskScheduler, "fifo")
	if _, err := scorep.NewSessionFromEnv(); err == nil {
		t.Errorf("%s=fifo accepted", scorep.EnvTaskScheduler)
	}
}
