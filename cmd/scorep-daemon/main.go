// Command scorep-daemon is the multi-process measurement service: it
// accepts trace streams from many instrumented processes at once (the
// WithRemoteTrace / SCOREP_TRACE_SINK client side), writes one archive
// shard per stream into the experiment directory, and on shutdown seals
// the merged fleet experiment (trace-<id>.otf2 shards + meta.json) for
// scorep-report/scorep-analyze.
//
// Ingest is sharded: each stream has its own goroutine and file, so a
// slow or crashing client never stalls the others; a severed connection
// keeps the intact prefix of that shard, salvageable like any truncated
// archive. A client reconnects and resumes a severed stream
// byte-exactly, and a daemon restarted over an existing experiment
// directory recovers every shard's intact prefix from the stream
// journal and accepts resumes at it — a crashed daemon costs nothing a
// client's replay window covers.
//
// Usage:
//
//	scorep-daemon -listen unix:///tmp/scorep.sock -exp scorep-fleet
//	scorep-daemon -listen tcp://:7007 -exp scorep-fleet -streams 2
//
// The daemon serves until SIGINT/SIGTERM, or — with -streams N — until
// N streams have ended (sealed streams recovered from a previous
// daemon's journal count). On the first signal it drains: no new
// connections, in-flight streams get -drain-timeout to finish, then
// stragglers are severed (their shards keep the durable prefix,
// resumable by a future daemon). A second signal severs immediately.
// Exit status 1 reports a server-side ingest failure (shard I/O).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	scorep "repro"
	"repro/internal/sink"
)

func main() {
	var (
		listen    = flag.String("listen", "unix:///tmp/scorep-daemon.sock", "address to accept streams on (unix:///path.sock, tcp://host:port)")
		expDir    = flag.String("exp", "scorep-fleet", "fleet experiment directory (one trace shard per stream + meta.json)")
		streams   = flag.Int("streams", 0, "exit after this many streams ended (0: serve until SIGINT/SIGTERM)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "grace for in-flight streams on shutdown before severing them (0: sever immediately)")
		idle      = flag.Duration("idle-timeout", 0, "seal a stream that sends nothing for this long (0: never; wedged clients hold their shard open forever)")
		handshake = flag.Duration("handshake-timeout", 10*time.Second, "deadline for a new connection's handshake")
		quiet     = flag.Bool("quiet", false, "suppress per-stream log lines")
	)
	flag.Parse()

	network, address, err := sink.SplitAddr(*listen)
	if err != nil {
		fail(err)
	}
	if network == "unix" {
		// A stale socket file from a killed daemon would fail the bind.
		_ = os.Remove(address)
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "scorep-daemon: "+format+"\n", args...)
		}
	}

	var (
		ended    atomic.Int64
		shutdown = make(chan struct{})
		once     sync.Once
	)
	stop := func() { once.Do(func() { close(shutdown) }) }

	opts := []sink.ServerOption{
		sink.WithLog(logf),
		sink.WithHandshakeTimeout(*handshake),
		sink.WithStreamDone(func(sink.StreamInfo) {
			if *streams > 0 && ended.Add(1) >= int64(*streams) {
				stop()
			}
		}),
	}
	if *idle > 0 {
		opts = append(opts, sink.WithIdleTimeout(*idle))
	}
	srv, err := sink.NewServer(*expDir, opts...)
	if err != nil {
		fail(err)
	}
	if n := srv.Recovered(); n > 0 {
		logf("recovered %d stream(s) from a previous daemon's journal", n)
		// Streams a previous daemon already sealed count toward
		// -streams: a restarted daemon with the same flag exits once
		// the fleet total is reached, not N additional streams later.
		for _, st := range srv.Streams() {
			if st.Sealed && *streams > 0 && ended.Add(1) >= int64(*streams) {
				stop()
			}
		}
	}

	ln, err := net.Listen(network, address)
	if err != nil {
		fail(err)
	}
	logf("listening on %s, experiment %s", *listen, *expDir)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		grace := *drain
		select {
		case <-sig:
			logf("shutdown: draining in-flight streams (up to %s; signal again to sever now)", grace)
		case <-shutdown:
			// -streams satisfied: every counted stream already sealed,
			// the drain only covers connection teardown.
		}
		go func() {
			<-sig
			logf("second signal: severing in-flight streams")
			_ = srv.Shutdown(0)
		}()
		_ = srv.Shutdown(grace)
	}()

	start := time.Now()
	serveErr := srv.Serve(ln)
	_ = srv.Shutdown(0) // idempotent; covers the -streams path where Serve returned first

	infos := srv.Streams()
	shards := make([]scorep.TraceShard, len(infos))
	complete := 0
	for i, st := range infos {
		shards[i] = scorep.TraceShard{
			File:          st.File,
			Stream:        st.ID,
			Bytes:         st.Bytes,
			DroppedEvents: st.DroppedEvents,
			GapBytes:      st.GapBytes,
			Resumes:       st.Resumes,
			Complete:      st.Complete,
		}
		if st.Complete {
			complete++
		}
	}
	if err := scorep.SaveFleetExperiment(*expDir, time.Since(start), shards); err != nil {
		fail(err)
	}
	fmt.Printf("sealed experiment %s (%d shards, %d complete)\n", *expDir, len(shards), complete)

	if serveErr != nil {
		fail(serveErr)
	}
	if err := srv.Err(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "scorep-daemon: %v\n", err)
	os.Exit(1)
}
