package main

import (
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/omp"
	"repro/internal/trace"
)

// fleet-socket: two one-thread sessions stream their traces over a unix
// socket into an in-process trace-sink server, which is then sealed and
// analysed exactly as cmd/scorep-daemon and scorep-analyze would.
type fleetRunner struct {
	e     *env
	specs []*bots.Spec
	sizes []bots.Size

	kernels  []bots.Kernel
	expected []uint64 // reference results, computed once in set-up
	lastDir  string
	lastInfo []scorep.TraceSinkStreamInfo
	lastTeam []omp.TeamStats
}

func newFleetSocket(e *env) runner {
	// fib small and health medium record about as many events each
	// (~0.56 M), so neither stream is the other's idle tail.
	r := &fleetRunner{e: e,
		specs: []*bots.Spec{bots.FibSpec, bots.HealthSpec},
		sizes: []bots.Size{bots.SizeSmall, bots.SizeMedium},
	}
	if e.smoke {
		r.sizes = []bots.Size{bots.SizeTiny, bots.SizeSmall}
	}
	return r
}

func (r *fleetRunner) setup() error {
	r.kernels, r.expected = r.kernels[:0], r.expected[:0]
	for i, sp := range r.specs {
		r.kernels = append(r.kernels, sp.Prepare(r.sizes[i], false))
		r.expected = append(r.expected, sp.Expected(r.sizes[i]))
	}
	warmUp(r)
	return nil
}

// sessionRun is what one of the two concurrent sessions reports back.
type sessionRun struct {
	newD, endD time.Duration
	res        *scorep.Results
	got        uint64
	err        error
}

// both runs the two kernels side by side, one session each, and returns
// the wall from the first session's start until both have ended. The
// kernels' results are checked once both are back.
func (r *fleetRunner) both(what string, opts func(i int) []scorep.Option) (time.Duration, []sessionRun) {
	runs := make([]sessionRun, len(r.kernels))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range r.kernels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sr := &runs[i]
			t := time.Now()
			s := scorep.NewSession(opts(i)...)
			sr.newD = time.Since(t)
			sr.got = r.kernels[i](s.Runtime(), 1)
			t = time.Now()
			sr.res, sr.err = s.End()
			sr.endD = time.Since(t)
		}(i)
	}
	wg.Wait()
	wall := time.Since(t0)
	for i, sr := range runs {
		r.e.ops.check(sr.err == nil && sr.got == r.expected[i],
			"%s %s: result %d (err %v)", r.specs[i].Name, what, sr.got, sr.err)
	}
	return wall, runs
}

func (r *fleetRunner) baselineReps() int { return 3 }

func (r *fleetRunner) uninstrumented() time.Duration {
	quiesce()
	wall, _ := r.both("uninstrumented", func(int) []scorep.Option {
		return []scorep.Option{scorep.WithoutProfiling()}
	})
	return wall
}

func (r *fleetRunner) instrumented(rd *round) {
	e := r.e
	dir := filepath.Join(e.dir, "fleet")
	err := os.RemoveAll(dir)
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	var srv *scorep.TraceSinkServer
	if err == nil {
		srv, err = scorep.NewTraceSinkServer(dir)
	}
	var ln net.Listener
	sock := filepath.Join(dir, "d.sock")
	if err == nil {
		ln, err = net.Listen("unix", sock)
	}
	if !e.ops.noErr(err, "start trace sink server") {
		return
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	quiesce()

	start := e.begin(rd)
	var runs []sessionRun
	e.stage(rd, "scorep.parallel", func() {
		rd.inst, runs = r.both("streaming", func(i int) []scorep.Option {
			return []scorep.Option{
				scorep.WithRemoteTrace("unix://" + sock),
				scorep.WithRemoteTraceStream(r.specs[i].Name),
			}
		})
	})
	var infos []scorep.TraceSinkStreamInfo
	seal := e.stage(rd, "scorep.fleet_seal", func() {
		// As cmd/scorep-daemon shuts down: stop serving, then record
		// the shards in the experiment's metadata.
		err = srv.Close()
		<-served
		infos = srv.Streams()
		shards := make([]scorep.TraceShard, len(infos))
		for i, st := range infos {
			shards[i] = scorep.TraceShard{
				File: st.File, Stream: st.ID, Bytes: st.Bytes, DroppedEvents: st.DroppedEvents,
				GapBytes: st.GapBytes, Resumes: st.Resumes, Complete: st.Complete,
			}
		}
		if err == nil {
			err = scorep.SaveFleetExperiment(dir, time.Since(start), shards)
		}
	})
	e.ops.noErr(err, "seal fleet experiment")
	rd.ingest = rd.inst + seal

	e.untimed(rd, func() {
		rd.heapLive = heapLive()
		r.lastTeam = r.lastTeam[:0]
		for _, sr := range runs {
			rd.stages["scorep.session_new"] = max(rd.stages["scorep.session_new"], sr.newD)
			rd.stages["scorep.end"] = max(rd.stages["scorep.end"], sr.endD)
			r.lastTeam = append(r.lastTeam, sr.res.TeamStats())
		}
		e.ops.check(len(infos) == len(r.kernels), "daemon ingested %d streams, want %d", len(infos), len(r.kernels))
		for _, st := range infos {
			e.ops.check(st.Complete && st.DroppedEvents == 0 && st.GapBytes == 0,
				"shard %s: complete=%v dropped=%d gap=%d err=%q", st.ID, st.Complete, st.DroppedEvents, st.GapBytes, st.Err)
			path := filepath.Join(dir, st.File)
			info, err := readArchiveInfo(path)
			if e.ops.noErr(err, "index of shard "+st.File) {
				rd.events += info.events
			}
			rd.bytes += fileSize(path)
		}
	})

	t0 := time.Now()
	var (
		exp *scorep.Experiment
		ta  *scorep.TraceAnalysis
		fb  *scorep.BottleneckFleetSummary
	)
	e.stage(rd, "scorep.open", func() {
		if exp, err = scorep.OpenExperiment(dir); err == nil {
			exp.AnalysisParallelism = e.workers
		}
	})
	if e.ops.noErr(err, "open fleet experiment") {
		e.stage(rd, "scorep.trace_analysis", func() { ta, err = exp.FleetTraceAnalysis() })
		e.ops.noErr(err, "fleet trace analysis")
		e.stage(rd, "scorep.bottlenecks", func() { fb, err = exp.FleetBottlenecks() })
		e.ops.noErr(err, "fleet bottlenecks")
		e.stage(rd, "scorep.report_render", func() {
			if ta != nil {
				ta.Format(io.Discard)
			}
			if fb != nil {
				fb.Format(io.Discard)
			}
		})
		e.ops.check(len(exp.Warnings()) == 0, "fleet experiment: warnings %v", exp.Warnings())
	}
	rd.report = time.Since(t0)
	r.lastDir, r.lastInfo = dir, infos
	e.untimed(rd, func() {
		// This workload's dump_ms sample is loading the shards back, as
		// on archive-query. Its own way to disk — each stream's close
		// waits for the daemon to fsync the shard — is at the mercy of
		// the host's disk (10-36 % between runs); it stays visible as
		// sink.live_close_ms and scorep.fleet_seal_ms.
		l0 := time.Now()
		_, err := readShards(r.shardPaths())
		rd.durable = append(rd.durable, time.Since(l0))
		e.ops.noErr(err, "load shards")
	})
	e.end(rd, start)
}

func (r *fleetRunner) shardPaths() []string {
	var out []string
	for _, st := range r.lastInfo {
		out = append(out, filepath.Join(r.lastDir, st.File))
	}
	return out
}

func (r *fleetRunner) verify() {
	// Per shard, one worker and the run's worker count must agree.
	var seq, par []*scorep.TraceAnalysis
	for _, workers := range []int{1, r.e.workers} {
		exp, err := scorep.OpenExperiment(r.lastDir)
		if !r.e.ops.noErr(err, "reopen fleet experiment") {
			return
		}
		exp.AnalysisParallelism = workers
		for i := range exp.TraceShards() {
			ta, err := exp.ShardTraceAnalysis(i)
			r.e.ops.noErr(err, "shard trace analysis")
			if workers == 1 {
				seq = append(seq, ta)
			} else {
				par = append(par, ta)
			}
		}
	}
	for i := range seq {
		r.e.ops.check(i < len(par) && reflect.DeepEqual(seq[i], par[i]), "shard %d: parallel trace analysis differs from sequential", i)
	}
}

func (r *fleetRunner) last() lastRound {
	paths := r.shardPaths()
	return lastRound{
		scan: paths, query: paths, team: r.lastTeam, threads: len(r.kernels), recordProbe: "trace.stream_record_ns",
		captured: func() (*trace.Trace, error) { return readShards(paths) },
	}
}

func (r *fleetRunner) metrics(m *metricSet, rounds []*round) {
	var frames, bytes, dropped, resumes, gap int64
	for _, st := range r.lastInfo {
		frames += st.Frames
		bytes += st.Bytes
		dropped += st.DroppedEvents
		resumes += st.Resumes
		gap += st.GapBytes
	}
	m.set("sink.live_frames", "count", float64(frames))
	m.set("sink.live_bytes", "B", float64(bytes))
	m.set("sink.live_dropped_events", "count", float64(dropped))
	m.set("sink.live_resumes", "count", float64(resumes))
	m.set("sink.live_gap_bytes", "B", float64(gap))
	var ends []float64
	for _, rd := range rounds {
		ends = append(ends, ms(rd.stages["scorep.end"]))
	}
	// End of a streaming session is the client's Close: drain, seal
	// frame, wait for the daemon's ack.
	m.setMedian("sink.live_close_ms", "ms", ends)
}
