package scorep_test

import (
	"reflect"
	"testing"
	"time"

	scorep "repro"
	"repro/internal/bottleneck"
)

// bottleneckWorkload records a two-thread workload with a cross-thread
// spawn (thread 0 creates, the thief steals) under a deterministic
// clock, so every run produces the identical trace.
func bottleneckWorkload(s *scorep.Session, par, task, tw *scorep.Region) {
	s.Parallel(2, par, func(th *scorep.Thread) {
		if th.ID == 0 {
			for i := 0; i < 30; i++ {
				th.NewTask(task, func(*scorep.Thread) {})
			}
		}
		th.Taskwait(tw)
	})
}

// TestResultsBottlenecks checks the session facade: Bottlenecks is
// derived from the recorded trace, cached, identical to the direct
// analysis at every worker count, and nil without an in-memory trace.
func TestResultsBottlenecks(t *testing.T) {
	par := scorep.RegisterRegion("bf.parallel", "bottleneck_facade_test.go", 1, scorep.RegionParallel)
	task := scorep.RegisterRegion("bf.task", "bottleneck_facade_test.go", 2, scorep.RegionTask)
	tw := scorep.RegisterRegion("bf.taskwait", "bottleneck_facade_test.go", 3, scorep.RegionTaskwait)

	s := scorep.NewSession(scorep.WithTracing(), scorep.WithClock(countingClock()))
	bottleneckWorkload(s, par, task, tw)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	b := res.Bottlenecks()
	if b == nil || b.Threads != 2 {
		t.Fatalf("Bottlenecks = %+v, want a 2-thread analysis", b)
	}
	if got := res.Bottlenecks(); got != b {
		t.Fatal("Bottlenecks not cached")
	}
	for _, workers := range []int{1, 4} {
		if want := analyzeBottlenecks(res.Trace(), scorep.TraceQuery{}, workers); !reflect.DeepEqual(b, want) {
			t.Fatalf("Bottlenecks != the analysis of the trace at %d workers", workers)
		}
	}

	// No in-memory trace (profiling-only session): nil, not a panic.
	p := scorep.NewSession()
	p.Parallel(1, par, func(*scorep.Thread) {})
	pres, err := p.End()
	if err != nil {
		t.Fatal(err)
	}
	if pres.Bottlenecks() != nil {
		t.Fatal("Bottlenecks on a non-tracing session should be nil")
	}
}

// TestExperimentBottlenecks round-trips the analysis through an
// experiment archive: the out-of-core result over the saved trace must
// equal the live in-memory one, windowed queries must match filtering,
// and the accessor must cache.
func TestExperimentBottlenecks(t *testing.T) {
	par := scorep.RegisterRegion("be.parallel", "bottleneck_facade_test.go", 10, scorep.RegionParallel)
	task := scorep.RegisterRegion("be.task", "bottleneck_facade_test.go", 11, scorep.RegionTask)
	tw := scorep.RegisterRegion("be.taskwait", "bottleneck_facade_test.go", 12, scorep.RegionTaskwait)

	dir := t.TempDir()
	s := scorep.NewSession(scorep.WithTracing(), scorep.WithClock(countingClock()),
		scorep.WithExperimentDirectory(dir))
	bottleneckWorkload(s, par, task, tw)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	want := res.Bottlenecks()

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exp.Bottlenecks()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("experiment bottleneck analysis differs from live analysis:\nlive: %+v\nexp:  %+v", want, got)
	}
	if again, _ := exp.Bottlenecks(); again != got {
		t.Fatal("Experiment.Bottlenecks not cached")
	}

	// A windowed query over the archive equals analyzing the filtered
	// in-memory trace.
	mid := (want.StartTime + want.EndTime) / 2
	q := scorep.TraceQuery{Windowed: true, MinTime: want.StartTime, MaxTime: mid}
	qgot, _, err := exp.BottlenecksQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if qwant := analyzeBottlenecks(q.Filter(res.Trace()), scorep.TraceQuery{}, 1); !reflect.DeepEqual(qgot, qwant) {
		t.Fatal("BottlenecksQuery != the analysis of the filtered trace")
	}
	if len(exp.Warnings()) != 0 {
		t.Fatalf("clean experiment produced warnings: %v", exp.Warnings())
	}
}

// TestFleetBottlenecks streams two sessions into an in-process daemon
// and checks the facade's fleet summary against the per-shard analyses:
// every kind total is the sum over shards, the worst shard carries the
// max, and the longest critical path is the max across shards. The
// two-thread workload's schedule (who steals what) varies run to run,
// so the assertions are built from the shards themselves rather than a
// separately recorded reference.
func TestFleetBottlenecks(t *testing.T) {
	par := scorep.RegisterRegion("bfl.parallel", "bottleneck_facade_test.go", 20, scorep.RegionParallel)
	task := scorep.RegisterRegion("bfl.task", "bottleneck_facade_test.go", 21, scorep.RegionTask)
	tw := scorep.RegisterRegion("bfl.taskwait", "bottleneck_facade_test.go", 22, scorep.RegionTaskwait)

	srv, dir, addr := startFleetDaemon(t)
	start := time.Now()
	for _, id := range []string{"alpha", "beta"} {
		s := scorep.NewSession(
			scorep.WithRemoteTrace(addr),
			scorep.WithRemoteTraceStream(id),
			scorep.WithoutProfiling(),
			scorep.WithClock(countingClock()))
		bottleneckWorkload(s, par, task, tw)
		if _, err := s.End(); err != nil {
			t.Fatalf("session %s: %v", id, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var shards []scorep.TraceShard
	for _, st := range srv.Streams() {
		shards = append(shards, scorep.TraceShard{
			File: st.File, Stream: st.ID, Bytes: st.Bytes,
			DroppedEvents: st.DroppedEvents, Complete: st.Complete,
		})
	}
	if err := scorep.SaveFleetExperiment(dir, time.Since(start), shards); err != nil {
		t.Fatal(err)
	}

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Per-shard ground truth straight off the shard archives.
	wantKind := map[scorep.FindingKind]int64{}
	worstKind := map[scorep.FindingKind]int64{}
	var longest int64
	analyses := map[string]*scorep.BottleneckAnalysis{}
	for i, sh := range exp.TraceShards() {
		a, err := exp.ShardBottlenecks(i)
		if err != nil {
			t.Fatal(err)
		}
		if a == nil || a.Threads != 2 {
			t.Fatalf("shard %s bottleneck analysis = %+v, want 2 threads", sh.Stream, a)
		}
		if again, _ := exp.ShardBottlenecks(i); again != a {
			t.Fatalf("shard %s bottleneck analysis not cached", sh.Stream)
		}
		perShard := map[scorep.FindingKind]int64{}
		for _, ws := range a.WaitStates {
			perShard[ws.Kind] += ws.Time
		}
		for k, tot := range perShard {
			wantKind[k] += tot
			if tot > worstKind[k] {
				worstKind[k] = tot
			}
		}
		if a.CriticalPath.Length > longest {
			longest = a.CriticalPath.Length
		}
		analyses[sh.Stream] = a
	}
	if longest <= 0 {
		t.Fatalf("no shard produced a critical path (lengths from %d shard(s))", len(analyses))
	}

	fleet, err := exp.FleetBottlenecks()
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Shards != 2 {
		t.Fatalf("fleet.Shards = %d, want 2", fleet.Shards)
	}
	gotKind := map[scorep.FindingKind]int64{}
	for _, kt := range fleet.Kinds {
		gotKind[kt.Kind] = kt.Time
		if kt.WorstTime != worstKind[kt.Kind] {
			t.Fatalf("kind %v worst-shard time = %d, want max per-shard total %d", kt.Kind, kt.WorstTime, worstKind[kt.Kind])
		}
	}
	if !reflect.DeepEqual(gotKind, wantKind) {
		t.Fatalf("fleet kind totals = %v, want per-shard sums %v", gotKind, wantKind)
	}
	if fleet.LongestPathLength != longest {
		t.Fatalf("fleet longest path = %d, want max shard path %d", fleet.LongestPathLength, longest)
	}
	// The facade summary must be exactly the fleet merge of the shard
	// analyses keyed by stream id.
	if want := bottleneck.MergeFleet(analyses); !reflect.DeepEqual(fleet, want) {
		t.Fatalf("FleetBottlenecks = %+v, want the fleet merge of the shards %+v", fleet, want)
	}
}

// TestBottlenecksAcrossRegions is the regression test for task ids that
// restarted at 1 in every parallel region: the second region's tasks
// were then taken for the first region's, its task region vanished from
// the critical path, and the walk jumped back to the first region's
// creations, booking the time between as spawn wait.
func TestBottlenecksAcrossRegions(t *testing.T) {
	par := scorep.RegisterRegion("br.parallel", "bottleneck_facade_test.go", 20, scorep.RegionParallel)
	taskA := scorep.RegisterRegion("br.taskA", "bottleneck_facade_test.go", 21, scorep.RegionTask)
	taskB := scorep.RegisterRegion("br.taskB", "bottleneck_facade_test.go", 22, scorep.RegionTask)
	tw := scorep.RegisterRegion("br.taskwait", "bottleneck_facade_test.go", 23, scorep.RegionTaskwait)
	work := scorep.RegisterRegion("br.work", "bottleneck_facade_test.go", 24, scorep.RegionFunction)

	s := scorep.NewSession(scorep.WithTracing(), scorep.WithClock(countingClock()))
	for _, task := range []*scorep.Region{taskA, taskB} {
		s.Parallel(1, par, func(th *scorep.Thread) {
			for i := 0; i < 8; i++ {
				th.NewTask(task, func(th *scorep.Thread) {
					for j := 0; j < 20; j++ {
						scorep.InstrumentFunction(th, work, func() {})
					}
				})
				th.Taskwait(tw)
			}
		})
	}
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	cp := res.Bottlenecks().CriticalPath
	onPath := map[string]int64{}
	for _, pr := range cp.Regions {
		onPath[pr.Region] = pr.Time
	}
	if onPath["br.taskA"] == 0 || onPath["br.taskB"] == 0 {
		t.Fatalf("critical path regions = %+v, want both br.taskA and br.taskB on it", cp.Regions)
	}
	if cp.SpawnWait*10 > cp.Length {
		t.Fatalf("spawn wait %d of a %d path: the walk left the second region", cp.SpawnWait, cp.Length)
	}
}
