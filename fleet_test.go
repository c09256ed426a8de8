package scorep_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	scorep "repro"
	"repro/internal/clock"
)

// startFleetDaemon runs an in-process trace-sink server on a unix
// socket, exactly as cmd/scorep-daemon does.
func startFleetDaemon(t *testing.T) (*scorep.TraceSinkServer, string, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := scorep.NewTraceSinkServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return srv, dir, "unix://" + sock
}

// countingClock is a deterministic monotonic clock: every Now() ticks
// once, so identical instruction sequences produce identical traces.
func countingClock() scorep.Clock {
	var n atomic.Int64
	return clock.Func(func() int64 { return n.Add(10) })
}

// fleetWorkload runs a fixed single-threaded task workload — with a
// deterministic clock, every run of it records the same event stream.
func fleetWorkload(s *scorep.Session, tasks int, par, task, tw *scorep.Region) {
	s.Parallel(1, par, func(th *scorep.Thread) {
		for i := 0; i < tasks; i++ {
			th.NewTask(task, func(*scorep.Thread) {})
		}
		th.Taskwait(tw)
	})
}

// TestFleetEndToEnd streams two sessions into one in-process daemon,
// seals the fleet experiment, reopens it, and checks each shard's
// analysis is identical to a local recording of the same workload —
// the paper's per-rank archives, aggregated across the fleet.
func TestFleetEndToEnd(t *testing.T) {
	par := scorep.RegisterRegion("fl.parallel", "fleet_test.go", 1, scorep.RegionParallel)
	task := scorep.RegisterRegion("fl.task", "fleet_test.go", 2, scorep.RegionTask)
	tw := scorep.RegisterRegion("fl.taskwait", "fleet_test.go", 3, scorep.RegionTaskwait)

	// Local reference: the same workload under the same deterministic
	// clock, traced in memory.
	ref := scorep.NewSession(scorep.WithTracing(), scorep.WithoutProfiling(),
		scorep.WithClock(countingClock()))
	fleetWorkload(ref, 20, par, task, tw)
	refRes, err := ref.End()
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.TraceAnalysis()
	if want == nil || want.Switches == 0 {
		t.Fatalf("reference workload recorded nothing: %+v", want)
	}

	srv, dir, addr := startFleetDaemon(t)
	start := time.Now()
	for _, id := range []string{"alpha", "beta"} {
		s := scorep.NewSession(
			scorep.WithRemoteTrace(addr),
			scorep.WithRemoteTraceStream(id),
			scorep.WithoutProfiling(),
			scorep.WithClock(countingClock()))
		if got := s.RemoteTraceStream(); got != id {
			t.Fatalf("remote sink client not wired for %s", id)
		}
		fleetWorkload(s, 20, par, task, tw)
		if _, err := s.End(); err != nil {
			t.Fatalf("session %s: %v", id, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Seal exactly as scorep-daemon does.
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
	got := exp.TraceShards()
	if len(got) != 2 {
		t.Fatalf("TraceShards = %+v, want 2", got)
	}
	for i, sh := range got {
		if !sh.Complete {
			t.Fatalf("shard %+v not complete", sh)
		}
		a, err := exp.ShardTraceAnalysis(i)
		if err != nil {
			t.Fatal(err)
		}
		// The deterministic clock makes the streamed shard's analysis
		// bit-identical to the local in-memory recording's.
		if !reflect.DeepEqual(want, a) {
			t.Fatalf("shard %s analysis differs from local recording:\nlocal:  %+v\nremote: %+v",
				sh.Stream, want, a)
		}
	}

	fleet, err := exp.FleetTraceAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Switches != 2*want.Switches {
		t.Fatalf("fleet switches = %d, want %d", fleet.Switches, 2*want.Switches)
	}
	if fleet.DispatchLatency.Count != 2*want.DispatchLatency.Count ||
		fleet.DispatchLatency.Sum != 2*want.DispatchLatency.Sum {
		t.Fatalf("fleet dispatch latency %+v, want doubled %+v", fleet.DispatchLatency, want.DispatchLatency)
	}
	if fleet.TaskExecution.Sum != 2*want.TaskExecution.Sum {
		t.Fatalf("fleet task execution %+v, want doubled %+v", fleet.TaskExecution, want.TaskExecution)
	}
	// Two identical shards: the merged ratio equals the per-shard one.
	if diff := fleet.ManagementRatio - want.ManagementRatio; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("fleet management ratio = %v, want %v", fleet.ManagementRatio, want.ManagementRatio)
	}
	if len(exp.Warnings()) != 0 {
		t.Fatalf("clean fleet produced warnings: %v", exp.Warnings())
	}
}

// TestFleetTruncatedShardSalvage severs one shard (simulating a client
// crash mid-run) and checks the experiment still opens, salvages the
// intact prefix with a per-shard warning, and leaves the other shard's
// analysis untouched.
func TestFleetTruncatedShardSalvage(t *testing.T) {
	par := scorep.RegisterRegion("ft.parallel", "fleet_test.go", 10, scorep.RegionParallel)
	task := scorep.RegisterRegion("ft.task", "fleet_test.go", 11, scorep.RegionTask)
	tw := scorep.RegisterRegion("ft.taskwait", "fleet_test.go", 12, scorep.RegionTaskwait)

	srv, dir, addr := startFleetDaemon(t)
	s := scorep.NewSession(scorep.WithRemoteTrace(addr),
		scorep.WithRemoteTraceStream("whole"), scorep.WithoutProfiling(),
		scorep.WithClock(countingClock()))
	// Enough tasks that the archive spans several 32 KiB chunks — a 3/4
	// cut must land mid-stream with whole chunks before it.
	fleetWorkload(s, 20_000, par, task, tw)
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the severed shard: the intact prefix of a sealed one,
	// cut mid-archive — byte-wise what a daemon keeps when a client
	// dies (its bufio flush preserves everything received intact).
	whole, err := os.ReadFile(filepath.Join(dir, "trace-whole.otf2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-cut.otf2"), whole[:3*len(whole)/4], 0o644); err != nil {
		t.Fatal(err)
	}

	// Seal with no shard list: TraceShards falls back to globbing and
	// must detect completeness from the footer index itself.
	if err := scorep.SaveFleetExperiment(dir, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	shards := exp.TraceShards()
	if len(shards) != 2 {
		t.Fatalf("TraceShards = %+v, want 2 (globbed)", shards)
	}
	byStream := map[string]int{}
	for i, sh := range shards {
		byStream[sh.Stream] = i
	}
	if !shards[byStream["whole"]].Complete {
		t.Fatalf("sealed shard probed incomplete: %+v", shards[byStream["whole"]])
	}
	if shards[byStream["cut"]].Complete {
		t.Fatalf("truncated shard probed complete: %+v", shards[byStream["cut"]])
	}

	wholeA, err := exp.ShardTraceAnalysis(byStream["whole"])
	if err != nil {
		t.Fatal(err)
	}
	cutA, err := exp.ShardTraceAnalysis(byStream["cut"])
	if err != nil {
		t.Fatalf("truncated shard not salvaged: %v", err)
	}
	if cutA.Switches == 0 || cutA.Switches >= wholeA.Switches {
		t.Fatalf("salvaged prefix switches = %d, want in (0, %d)", cutA.Switches, wholeA.Switches)
	}
	found := false
	for _, w := range exp.Warnings() {
		if strings.Contains(w, "trace-cut.otf2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no per-shard warning names the truncated shard: %v", exp.Warnings())
	}

	fleet, err := exp.FleetTraceAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Switches != wholeA.Switches+cutA.Switches {
		t.Fatalf("fleet switches = %d, want %d", fleet.Switches, wholeA.Switches+cutA.Switches)
	}
	// A second kind of pass over the shards words the cut no second way.
	if _, err := exp.FleetBottlenecks(); err != nil {
		t.Fatal(err)
	}
	if ws := exp.Warnings(); len(ws) != 1 || !strings.HasPrefix(ws[0], "shard trace-cut.otf2: ") {
		t.Fatalf("warnings %q, want the one cut shard named once", ws)
	}
}

// TestRemoteTraceEnvAndErrors covers the facade-level failure modes:
// malformed SCOREP_TRACE_SINK fails session construction eagerly, and a
// dead daemon surfaces at End without hanging the workload.
func TestRemoteTraceEnvAndErrors(t *testing.T) {
	t.Setenv(scorep.EnvTraceSink, "ftp://nope")
	if _, err := scorep.NewSessionFromEnv(); err == nil {
		t.Fatal("malformed SCOREP_TRACE_SINK accepted")
	}
	t.Setenv(scorep.EnvTraceSink, "")

	// Nobody listens here: the lazy connect exhausts its retries and
	// End reports it; the workload itself must still complete.
	par := scorep.RegisterRegion("fe.parallel", "fleet_test.go", 20, scorep.RegionParallel)
	task := scorep.RegisterRegion("fe.task", "fleet_test.go", 21, scorep.RegionTask)
	tw := scorep.RegisterRegion("fe.taskwait", "fleet_test.go", 22, scorep.RegionTaskwait)
	sock := filepath.Join(t.TempDir(), "dead.sock")
	s := scorep.NewSession(scorep.WithRemoteTrace("unix://" + sock))
	fleetWorkload(s, 20, par, task, tw)
	if _, err := s.End(); err == nil {
		t.Fatal("End returned nil though the daemon never existed")
	}
}

// TestFleetDaemonRestartResume kills the in-process daemon mid-stream,
// restarts it over the same experiment directory and socket, and checks
// the session's stream resumes so that the sealed fleet experiment's
// analysis is reflect.DeepEqual-identical to an undisturbed run — the
// daemon-crash half of the fault matrix, end to end through the facade.
func TestFleetDaemonRestartResume(t *testing.T) {
	par := scorep.RegisterRegion("fr.parallel", "fleet_test.go", 30, scorep.RegionParallel)
	task := scorep.RegisterRegion("fr.task", "fleet_test.go", 31, scorep.RegionTask)
	tw := scorep.RegisterRegion("fr.taskwait", "fleet_test.go", 32, scorep.RegionTaskwait)

	// Undisturbed reference under the same deterministic clock.
	ref := scorep.NewSession(scorep.WithTracing(), scorep.WithoutProfiling(),
		scorep.WithClock(countingClock()))
	fleetWorkload(ref, 200, par, task, tw)
	fleetWorkload(ref, 200, par, task, tw)
	refRes, err := ref.End()
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.TraceAnalysis()

	base := t.TempDir()
	dir := filepath.Join(base, "exp")
	sock := filepath.Join(base, "d.sock")
	startDaemon := func() (*scorep.TraceSinkServer, chan struct{}) {
		srv, err := scorep.NewTraceSinkServer(dir)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(ln)
		}()
		return srv, done
	}

	srv1, done1 := startDaemon()
	s := scorep.NewSession(
		scorep.WithRemoteTrace("unix://"+sock),
		scorep.WithRemoteTraceStream("survivor"),
		scorep.WithRemoteTraceReconnect(50, 5*time.Millisecond, 20*time.Second),
		scorep.WithoutProfiling(),
		scorep.WithClock(countingClock()))
	fleetWorkload(s, 200, par, task, tw)

	// Kill the daemon like a crash: no drain, connections severed.
	if err := srv1.Shutdown(0); err != nil {
		t.Fatal(err)
	}
	<-done1
	srv2, done2 := startDaemon()

	fleetWorkload(s, 200, par, task, tw)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteGapBytes() != 0 {
		t.Fatalf("stream gapped %d bytes; the replay window must cover a fresh daemon", res.RemoteGapBytes())
	}
	if fb := res.RemoteFallback(); fb != nil {
		t.Fatalf("stream degraded to fallback %+v instead of resuming", fb)
	}

	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	<-done2
	var shards []scorep.TraceShard
	for _, st := range srv2.Streams() {
		shards = append(shards, scorep.TraceShard{
			File: st.File, Stream: st.ID, Bytes: st.Bytes,
			DroppedEvents: st.DroppedEvents, GapBytes: st.GapBytes,
			Resumes: st.Resumes, Complete: st.Complete,
		})
	}
	if err := scorep.SaveFleetExperiment(dir, time.Second, shards); err != nil {
		t.Fatal(err)
	}

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := exp.TraceShards()
	if len(got) != 1 || !got[0].Complete || got[0].GapBytes != 0 {
		t.Fatalf("TraceShards = %+v, want one complete gapless shard", got)
	}
	a, err := exp.ShardTraceAnalysis(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, a) {
		t.Fatalf("resumed shard's analysis differs from the undisturbed run:\nwant %+v\ngot  %+v", want, a)
	}
	if len(exp.Warnings()) != 0 {
		t.Fatalf("resumed fleet produced warnings: %v", exp.Warnings())
	}
}

// TestFleetDaemonSIGKILLRestart is the real-process variant: it builds
// cmd/scorep-daemon, SIGKILLs the running daemon mid-stream, restarts
// it over the same experiment directory, and checks the session resumes
// and the daemon's own sealed meta.json reports a complete, gapless,
// resumed shard whose analysis matches an undisturbed run.
func TestFleetDaemonSIGKILLRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real daemon process")
	}
	par := scorep.RegisterRegion("fk.parallel", "fleet_test.go", 40, scorep.RegionParallel)
	task := scorep.RegisterRegion("fk.task", "fleet_test.go", 41, scorep.RegionTask)
	tw := scorep.RegisterRegion("fk.taskwait", "fleet_test.go", 42, scorep.RegionTaskwait)

	ref := scorep.NewSession(scorep.WithTracing(), scorep.WithoutProfiling(),
		scorep.WithClock(countingClock()))
	fleetWorkload(ref, 200, par, task, tw)
	fleetWorkload(ref, 200, par, task, tw)
	refRes, err := ref.End()
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.TraceAnalysis()

	base := t.TempDir()
	bin := filepath.Join(base, "scorep-daemon")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/scorep-daemon")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building scorep-daemon: %v\n%s", err, out)
	}
	dir := filepath.Join(base, "exp")
	sock := filepath.Join(base, "d.sock")
	startDaemon := func(extra ...string) *exec.Cmd {
		args := append([]string{"-listen", "unix://" + sock, "-exp", dir, "-quiet"}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	d1 := startDaemon()
	s := scorep.NewSession(
		scorep.WithRemoteTrace("unix://"+sock),
		scorep.WithRemoteTraceStream("survivor"),
		scorep.WithRemoteTraceReconnect(50, 5*time.Millisecond, 20*time.Second),
		scorep.WithoutProfiling(),
		scorep.WithClock(countingClock()))
	fleetWorkload(s, 200, par, task, tw)

	// The shard file appears once the handshake registered the stream —
	// only then is a SIGKILL a genuine mid-stream crash.
	shard := filepath.Join(dir, "trace-survivor.otf2")
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, err := os.Stat(shard); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never reached the daemon")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = d1.Wait()

	// Restart over the same experiment directory; -streams 1 makes the
	// daemon seal the fleet experiment and exit once the stream ends.
	d2 := startDaemon("-streams", "1")
	fleetWorkload(s, 200, par, task, tw)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteResumes() == 0 {
		t.Fatal("stream never resumed though the daemon was SIGKILLed mid-stream")
	}
	if res.RemoteGapBytes() != 0 || res.RemoteFallback() != nil {
		t.Fatalf("stream lost data: gap=%d fallback=%+v", res.RemoteGapBytes(), res.RemoteFallback())
	}
	if err := d2.Wait(); err != nil {
		t.Fatalf("restarted daemon exited with %v", err)
	}

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := exp.TraceShards()
	if len(got) != 1 || !got[0].Complete || got[0].GapBytes != 0 || got[0].Resumes == 0 {
		t.Fatalf("TraceShards = %+v, want one complete gapless resumed shard", got)
	}
	a, err := exp.ShardTraceAnalysis(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, a) {
		t.Fatalf("resumed shard's analysis differs from the undisturbed run:\nwant %+v\ngot  %+v", want, a)
	}
}

// writeShard records a two-thread producer of tasks tasks with a local
// session and writes its archive as file in dir, a fleet shard.
func writeShard(t *testing.T, dir, file string, tasks int) {
	t.Helper()
	par := scorep.RegisterRegion("fs.parallel", "fleet_test.go", 30, scorep.RegionParallel)
	task := scorep.RegisterRegion("fs.task", "fleet_test.go", 31, scorep.RegionTask)
	tw := scorep.RegisterRegion("fs.taskwait", "fleet_test.go", 32, scorep.RegionTaskwait)
	s := scorep.NewSession(scorep.WithTracing(), scorep.WithoutProfiling(), scorep.WithClock(countingClock()))
	s.Parallel(2, par, func(th *scorep.Thread) {
		if th.ID == 0 {
			for i := 0; i < tasks; i++ {
				th.NewTask(task, func(*scorep.Thread) {})
			}
		}
		th.Taskwait(tw)
	})
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	exp := t.TempDir()
	if err := res.SaveExperiment(exp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(exp, "trace.otf2"), filepath.Join(dir, file)); err != nil {
		t.Fatal(err)
	}
}

// TestFleetBottlenecksNamesShards seals fleets whose meta.json gives the
// shards no stream id, one stream id for both, or to one the other's
// file name: every shard must still be in the summary, with the totals
// the sum of both.
func TestFleetBottlenecksNamesShards(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, "trace-a.otf2", 300)
	writeShard(t, dir, "trace-b.otf2", 400)
	for _, streams := range [][2]string{{"", ""}, {"same", "same"}, {"trace-b.otf2", ""}} {
		t.Run(fmt.Sprintf("streams=%q", streams), func(t *testing.T) {
			if err := scorep.SaveFleetExperiment(dir, time.Second, []scorep.TraceShard{
				{File: "trace-a.otf2", Stream: streams[0], Complete: true},
				{File: "trace-b.otf2", Stream: streams[1], Complete: true},
			}); err != nil {
				t.Fatal(err)
			}
			exp, err := scorep.OpenExperiment(dir)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := exp.FleetBottlenecks()
			if err != nil {
				t.Fatal(err)
			}
			if fleet.Shards != 2 {
				t.Fatalf("fleet summary of %d shard(s), want 2", fleet.Shards)
			}
			want := map[scorep.FindingKind]int64{}
			for i := range exp.TraceShards() {
				a, err := exp.ShardBottlenecks(i)
				if err != nil {
					t.Fatal(err)
				}
				for _, ws := range a.WaitStates {
					want[ws.Kind] += ws.Time
				}
			}
			got := map[scorep.FindingKind]int64{}
			for _, kt := range fleet.Kinds {
				got[kt.Kind] = kt.Time
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("fleet totals %v, want the shards' sums %v", got, want)
			}
		})
	}
}

// fleetResults is everything the fleet accessors return.
type fleetResults struct {
	Bottlenecks *scorep.BottleneckFleetSummary
	Analysis    *scorep.TraceAnalysis
	Shards      []*scorep.BottleneckAnalysis
	Warnings    []string
}

// TestFleetAccessorsConcurrent calls the fleet accessors of one
// experiment, three shards of which the middle one is cut, from several
// goroutines at once: the fleet passes run their shards side by side,
// each shard under its own lock, while single shards and warnings are
// asked for beside them. At every AnalysisParallelism, every result must
// be the one a lone caller gets one call at a time, and the cut must be
// reported once.
func TestFleetAccessorsConcurrent(t *testing.T) {
	dir := t.TempDir()
	writeShard(t, dir, "trace-a.otf2", 500)
	writeShard(t, dir, "trace-b.otf2", 20_000)
	writeShard(t, dir, "trace-c.otf2", 800)
	whole, err := os.ReadFile(filepath.Join(dir, "trace-b.otf2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-b.otf2"), whole[:3*len(whole)/4], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := scorep.SaveFleetExperiment(dir, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	open := func(workers int) *scorep.Experiment {
		exp, err := scorep.OpenExperiment(dir)
		if err != nil {
			t.Fatal(err)
		}
		exp.AnalysisParallelism = workers
		return exp
	}
	must := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}

	// One caller, one call at a time, one worker.
	exp := open(1)
	var want fleetResults
	for i := range exp.TraceShards() {
		a, err := exp.ShardBottlenecks(i)
		must(err)
		want.Shards = append(want.Shards, a)
	}
	want.Bottlenecks, err = exp.FleetBottlenecks()
	must(err)
	want.Analysis, err = exp.FleetTraceAnalysis()
	must(err)
	want.Warnings = exp.Warnings()
	if len(want.Shards) != 3 || len(want.Warnings) != 1 || !strings.HasPrefix(want.Warnings[0], "shard trace-b.otf2: ") {
		t.Fatalf("%d shards, warnings %q: want three shards and the cut one named once", len(want.Shards), want.Warnings)
	}

	for _, workers := range []int{1, 2, 4} {
		exp := open(workers)
		const callers = 6
		got := make([]fleetResults, callers)
		done := make(chan struct{})
		for c := range callers {
			go func() {
				defer func() { done <- struct{}{} }()
				r := &got[c]
				r.Shards = make([]*scorep.BottleneckAnalysis, 3)
				// Each caller asks in its own order.
				for k := range 5 {
					switch (c + k) % 5 {
					case 0:
						fb, err := exp.FleetBottlenecks()
						must(err)
						r.Bottlenecks = fb
					case 1:
						ta, err := exp.FleetTraceAnalysis()
						must(err)
						r.Analysis = ta
					case 4:
						if ws := exp.Warnings(); len(ws) > 1 {
							t.Errorf("warnings %q mid-pass: the cut is reported more than once", ws)
						}
					default:
						for j := range 3 {
							i := (c + j) % 3
							a, err := exp.ShardBottlenecks(i)
							must(err)
							r.Shards[i] = a
						}
					}
				}
				r.Warnings = exp.Warnings()
			}()
		}
		for range callers {
			<-done
		}
		for c := range got {
			if !reflect.DeepEqual(got[c], want) {
				t.Errorf("AnalysisParallelism %d, caller %d: results differ from one caller's, one call at a time", workers, c)
			}
		}
	}
}
