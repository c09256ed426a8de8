package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/omp"
	"repro/internal/trace"
)

// flightRing is the ring size in chunks per thread: with the default
// 4096-event chunks two threads retain ~131 k of nqueens' ~6 M events,
// so nearly every event goes through the eviction path.
const flightRing = 16

// nqueens-flight: the kernel runs under the flight recorder while a
// second goroutine dumps the retained window at a fixed cadence; the
// last dump is then analysed like any experiment.
type flightRunner struct {
	e       *env
	size    bots.Size
	threads int
	cadence time.Duration

	kernel        bots.Kernel
	expected      uint64 // reference result, computed once in set-up
	wantEvents    uint64
	lastDump      string
	lastTeam      omp.TeamStats
	dumpMax       time.Duration
	dumpsPerRound []float64
}

func newNQueensFlight(e *env) runner {
	// A dump every 100 ms gives ~100 latency samples a run; its cost
	// (~4 ms of one processor each) stays a few percent of the kernel.
	r := &flightRunner{e: e, size: bots.SizeMedium, threads: 2, cadence: 100 * time.Millisecond}
	if e.smoke {
		r.size, r.cadence = bots.SizeSmall, 10*time.Millisecond
	}
	return r
}

func (r *flightRunner) setup() error {
	r.kernel = bots.NQueensSpec.Prepare(r.size, false)
	r.expected = bots.NQueensSpec.Expected(r.size)
	warmUp(r)
	return nil
}

func (r *flightRunner) baselineReps() int { return 1 }

func (r *flightRunner) uninstrumented() time.Duration {
	quiesce()
	t0 := time.Now()
	s := scorep.NewSession(scorep.WithoutProfiling())
	got := r.kernel(s.Runtime(), r.threads)
	_, err := s.End()
	d := time.Since(t0)
	r.e.ops.check(err == nil && got == r.expected, "nqueens uninstrumented: result %d (err %v)", got, err)
	return d
}

func (r *flightRunner) instrumented(rd *round) {
	e := r.e
	start := e.begin(rd)
	dumpRoot := filepath.Join(e.dir, "flight")
	e.untimed(rd, func() {
		e.ops.noErr(os.RemoveAll(dumpRoot), "remove the previous round's dumps")
		quiesce()
	})
	var (
		s   *scorep.Session
		res *scorep.Results
		got uint64
		err error
	)
	t0 := time.Now()
	e.stage(rd, "scorep.session_new", func() {
		// The dump signal is off: the benchmark triggers dumps itself
		// and must not install a process-wide SIGUSR1 handler per round.
		s = scorep.NewSession(scorep.WithFlightRecorder(flightRing), scorep.WithDumpSignal(nil))
	})

	// dump writes the retained window into a directory of its own (a
	// dump that rewrites an older dump's files pays ext4's synchronous
	// flush on close) and records the latency. It runs on one goroutine
	// at a time: the dumper while the kernel runs, this one after the
	// dumper has stopped.
	var (
		dumpDir string
		dumpErr error
		dumps   int
	)
	dump := func(parent int) {
		d0 := time.Now()
		dir, err := s.DumpFlightRecorder(filepath.Join(dumpRoot, fmt.Sprintf("dump-%03d", dumps)))
		d1 := time.Now()
		e.tr.add(parent, rd.id, "scorep.flight_dump", d0, d1)
		rd.durable = append(rd.durable, d1.Sub(d0))
		dumps++
		dumpDir = dir
		if err != nil && dumpErr == nil {
			dumpErr = err
		}
	}

	par := e.tr.reserve(rd.root, rd.id, "scorep.parallel")
	p0 := time.Now()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(r.cadence)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				dump(par)
			}
		}
	}()
	got = r.kernel(s.Runtime(), r.threads)
	close(stop)
	<-stopped
	if dumps == 0 {
		// The kernel outran the cadence: take the one dump the analysis
		// needs before the session ends.
		dump(par)
	}
	p1 := time.Now()
	e.tr.finish(par, p0, p1)
	rd.stages["scorep.parallel"] += p1.Sub(p0)
	e.stage(rd, "scorep.end", func() { res, err = s.End() })
	rd.inst = time.Since(t0)
	rd.ingest = rd.inst

	e.untimed(rd, func() {
		rd.heapLive = heapLive()
		e.ops.check(err == nil && got == r.expected, "nqueens under flight recorder: result %d (err %v)", got, err)
		e.ops.noErr(dumpErr, "flight dump")
		fr := res.FlightRecorder()
		recorded := uint64(fr.RetainedEvents) + fr.DroppedEvents
		if r.wantEvents == 0 {
			r.wantEvents = recorded
		}
		// nqueens records the same events on every run, so retained +
		// dropped must come to the same total each round.
		e.ops.check(recorded == r.wantEvents && res.Trace().NumEvents() == fr.RetainedEvents,
			"flight recorder: retained %d + dropped %d = %d, want %d (trace holds %d)",
			fr.RetainedEvents, fr.DroppedEvents, recorded, r.wantEvents, res.Trace().NumEvents())
		rd.events = int64(recorded)
		r.lastTeam = res.TeamStats()
		for _, d := range rd.durable {
			r.dumpMax = max(r.dumpMax, d)
		}
		r.dumpsPerRound = append(r.dumpsPerRound, float64(dumps))
	})

	e.report(rd, dumpDir)
	e.untimed(rd, func() {
		path := filepath.Join(dumpDir, "trace.otf2")
		rd.bytes = fileSize(path)
		st, err := scorep.StatTraceArchive(path)
		if e.ops.noErr(err, "stat flight dump") {
			rd.archived = int64(st.IndexedEvents)
			e.ops.check(st.Flight != nil && st.IndexedEvents > 0,
				"flight dump %s: accounting chunk %v, %d indexed events", path, st.Flight != nil, st.IndexedEvents)
		}
	})
	e.end(rd, start)
	r.lastDump = dumpDir
}

func (r *flightRunner) verify() { sameAnalyses(r.e, r.lastDump) }

func (r *flightRunner) last() lastRound {
	paths := tracePaths([]string{r.lastDump})
	return lastRound{
		scan: paths, query: paths, team: []omp.TeamStats{r.lastTeam}, threads: r.threads, recordProbe: "trace.flight_record_ns",
		captured: func() (*trace.Trace, error) { return readShards(paths) },
	}
}

func (r *flightRunner) metrics(m *metricSet, rounds []*round) {
	m.set("scorep.flight_dump_ms_max", "ms", ms(r.dumpMax))
	m.setMedian("flight.dumps_per_round", "count", r.dumpsPerRound)
}
