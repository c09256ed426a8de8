package sink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// The fault matrix of this file: {sever mid-frame, daemon
// kill-and-restart, ENOSPC on one shard, reconnect-budget exhaustion}
// x {1, 4} concurrent streams. Every surviving shard must be
// salvageable, every loss explicitly counted, and every resume that the
// replay window covers bit-identical to an undisturbed run.

var streamCounts = []int{1, 4}

// streamWorkload returns per-stream batches plus a local reference
// archive recorded with identical writer options — the bytes a
// disturbed stream must still match.
func streamWorkload(t *testing.T, dir string, streams, batches, perBatch int) (map[int]map[int][][]trace.Event, map[int]string) {
	t.Helper()
	work := make(map[int]map[int][][]trace.Event, streams)
	refs := make(map[int]string, streams)
	for i := 0; i < streams; i++ {
		reg := region.NewRegistry()
		b := synthBatches(reg, 2, batches, perBatch)
		work[i] = b
		ref := filepath.Join(dir, fmt.Sprintf("ref-%d.otf2", i))
		writeLocal(t, ref, b, otf2.WithChunkBytes(512))
		refs[i] = ref
	}
	return work, refs
}

func streamAll(t *testing.T, cl *Client, batches map[int][][]trace.Event) {
	t.Helper()
	for th := 0; th < len(batches); th++ {
		for _, evs := range batches[th] {
			if err := cl.WriteEvents(th, evs); err != nil {
				t.Fatalf("WriteEvents: %v", err)
			}
		}
	}
}

func mustEqualFiles(t *testing.T, label, want, got string) {
	t.Helper()
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != string(g) {
		t.Fatalf("%s: %d bytes, want %d — shard not bit-identical to undisturbed run", label, len(g), len(w))
	}
}

// TestSeverMidFrameResume cuts each stream's first connection at an
// exact byte mid-stream (inside a frame) and checks the reconnect +
// replay path reproduces a bit-identical shard, with the resume
// counted and no gap.
func TestSeverMidFrameResume(t *testing.T) {
	for _, streams := range streamCounts {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			srv, addr := startServer(t)
			network, address, err := SplitAddr(addr)
			if err != nil {
				t.Fatal(err)
			}
			work, refs := streamWorkload(t, t.TempDir(), streams, 30, 20)

			resumes := make([]int64, streams) // each client's count
			var wg sync.WaitGroup
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// First connection severed after a stream-dependent
					// number of bytes (mid-frame); later dials are clean.
					var dials atomic.Int64
					dial := func() (net.Conn, error) {
						conn, err := net.Dial(network, address)
						if err != nil {
							return nil, err
						}
						if dials.Add(1) == 1 {
							return faultinject.NewConn(conn,
								faultinject.SeverWriteAfter(int64(1500+700*i)),
								faultinject.SliceWrites(97)), nil
						}
						return conn, nil
					}
					cl, err := NewClient(dial,
						WithStreamID(fmt.Sprintf("w%d", i)),
						WithWriterOptions(otf2.WithChunkBytes(512)),
						WithReconnect(10, 5*time.Millisecond, 10*time.Second))
					if err != nil {
						t.Error(err)
						return
					}
					streamAll(t, cl, work[i])
					if err := cl.Close(); err != nil {
						t.Errorf("stream %d: Close = %v", i, err)
						return
					}
					if resumes[i] = cl.Resumes(); resumes[i] == 0 {
						t.Errorf("stream %d: sever produced no resume", i)
					}
					if cl.GapBytes() != 0 {
						t.Errorf("stream %d: unexpected gap of %d bytes", i, cl.GapBytes())
					}
				}(i)
			}
			wg.Wait()
			if err := srv.Close(); err != nil {
				t.Fatalf("server latched an error from client severs: %v", err)
			}

			infos := map[string]StreamInfo{}
			for _, st := range srv.Streams() {
				infos[st.ID] = st
			}
			for i := 0; i < streams; i++ {
				id := fmt.Sprintf("w%d", i)
				st, ok := infos[id]
				if !ok || !st.Complete || st.Resumes == 0 || st.GapBytes != 0 {
					t.Fatalf("stream %s info = %+v, want complete with resumes and no gap", id, st)
				}
				if st.Resumes != resumes[i] {
					t.Errorf("stream %s: the server counts %d resumes, the client %d", id, st.Resumes, resumes[i])
				}
				mustEqualFiles(t, id, refs[i], filepath.Join(srv.Dir(), st.File))
			}
		})
	}
}

// restartableServer runs a server on a fixed unix socket so a "crashed"
// daemon can be brought back on the same address over the same
// directory.
type restartableServer struct {
	t    *testing.T
	dir  string
	sock string

	srv  *Server
	done chan struct{}
}

func startRestartable(t *testing.T, dir, sock string, opts ...ServerOption) *restartableServer {
	t.Helper()
	srv, err := NewServer(dir, opts...)
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
	return &restartableServer{t: t, dir: dir, sock: sock, srv: srv, done: done}
}

// crash force-severs everything, like a kill: no drain grace.
func (r *restartableServer) crash() {
	_ = r.srv.Shutdown(0)
	<-r.done
}

// TestDaemonCrashRestartResume kills the daemon mid-stream, restarts it
// over the same experiment directory, and checks the client resumes to
// a bit-identical shard: recovery truncates the shard to its intact
// chunk prefix and the client's replay window covers the regression.
func TestDaemonCrashRestartResume(t *testing.T) {
	for _, streams := range streamCounts {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			base := t.TempDir()
			dir := filepath.Join(base, "exp")
			sock := filepath.Join(base, "d.sock")
			// Small ack stride: shards have flushed bytes to recover.
			r := startRestartable(t, dir, sock, WithAckInterval(512))
			work, refs := streamWorkload(t, t.TempDir(), streams, 40, 48) // half of thread 0 overflows the writer's 4 KiB buffer

			half := make(chan int, streams) // streams that wrote half
			goOn := make(chan struct{})     // restart done, finish writing
			errs := make(chan error, streams)
			resumes := make([]int64, streams) // each client's count, read after errs
			for i := 0; i < streams; i++ {
				go func(i int) {
					cl, err := Dial("unix://"+sock,
						WithStreamID(fmt.Sprintf("w%d", i)),
						WithWriterOptions(otf2.WithChunkBytes(512)),
						WithReconnect(50, 5*time.Millisecond, 20*time.Second))
					if err != nil {
						errs <- err
						return
					}
					batches := work[i]
					mid := len(batches[0]) / 2
					for th := 0; th < len(batches); th++ {
						for b, evs := range batches[th] {
							if th == 0 && b == mid {
								half <- i
								<-goOn
							}
							if err := cl.WriteEvents(th, evs); err != nil {
								errs <- fmt.Errorf("stream %d: %v", i, err)
								return
							}
						}
					}
					if err := cl.Close(); err != nil {
						errs <- fmt.Errorf("stream %d: Close: %v", i, err)
						return
					}
					if cl.GapBytes() != 0 {
						errs <- fmt.Errorf("stream %d: gap of %d bytes", i, cl.GapBytes())
						return
					}
					resumes[i] = cl.Resumes()
					errs <- nil
				}(i)
			}
			for i := 0; i < streams; i++ {
				<-half
			}
			// Wait until every shard has flushed bytes, then kill.
			deadline := time.Now().Add(5 * time.Second)
			for i := 0; i < streams; i++ {
				shard := filepath.Join(dir, fmt.Sprintf("trace-w%d.otf2", i))
				for {
					if fi, err := os.Stat(shard); err == nil && fi.Size() > 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("shard %s never got flushed bytes", shard)
					}
					time.Sleep(time.Millisecond)
				}
			}
			r.crash()

			r2 := startRestartable(t, dir, sock, WithAckInterval(512))
			if got := r2.srv.Recovered(); got != streams {
				t.Fatalf("recovered %d streams, want %d", got, streams)
			}
			close(goOn)
			for i := 0; i < streams; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := r2.srv.Close(); err != nil {
				t.Fatal(err)
			}
			<-r2.done

			infos := map[string]StreamInfo{}
			for _, st := range r2.srv.Streams() {
				infos[st.ID] = st
			}
			for i := 0; i < streams; i++ {
				id := fmt.Sprintf("w%d", i)
				st := infos[id]
				if !st.Complete || st.GapBytes != 0 {
					t.Fatalf("stream %s info = %+v, want complete, no gap", id, st)
				}
				if st.Resumes == 0 {
					t.Fatalf("stream %s recorded no resume across the restart", id)
				}
				if st.Resumes != resumes[i] {
					t.Errorf("stream %s: the server counts %d resumes, the client %d", id, st.Resumes, resumes[i])
				}
				mustEqualFiles(t, id, refs[i], filepath.Join(dir, st.File))
			}
		})
	}
}

// TestDaemonCrashGapDegradesToFallback makes the replay window too
// small to cover a crash-recovery regression: the client must declare a
// counted gap (never silently resume), the server must seal the shard
// at its intact prefix, and the client must spill the rest to its local
// fallback archive.
func TestDaemonCrashGapDegradesToFallback(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "exp")
	sock := filepath.Join(base, "d.sock")
	r := startRestartable(t, dir, sock, WithAckInterval(512))

	fallback := filepath.Join(base, "fallback.otf2")
	cl, err := Dial("unix://"+sock,
		WithStreamID("gappy"),
		WithWriterOptions(otf2.WithChunkBytes(256)),
		// No retained history below the server's acked offset: any
		// durable regression at the server is an uncoverable gap.
		WithReplayWindow(0),
		WithReconnect(50, 5*time.Millisecond, 20*time.Second),
		WithFallbackArchive(fallback))
	if err != nil {
		t.Fatal(err)
	}
	reg := region.NewRegistry()
	batches := synthBatches(reg, 1, 60, 20)
	for _, evs := range batches[0] {
		if err := cl.WriteEvents(0, evs); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for acks to advance the window base (history evicted), so
	// the coming regression is guaranteed uncoverable.
	shard := filepath.Join(dir, "trace-gappy.otf2")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if base, _, _, _ := cl.win.snapshot(); base > 512 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server acks never evicted client history")
		}
		time.Sleep(time.Millisecond)
	}
	r.crash()
	// Chop the shard mid-chunk: recovery truncates to the chunk
	// boundary below, regressing durable under the client's acked base.
	fi, err := os.Stat(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shard, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	r2 := startRestartable(t, dir, sock, WithAckInterval(512))

	// Finish the stream: the client reconnects, finds the gap, seals the
	// remote stream and spills locally. Close reports no error — the
	// degradation is recorded, not fatal.
	for _, evs := range synthBatches(region.NewRegistry(), 1, 5, 20)[0] {
		_ = cl.WriteEvents(0, evs) // may race the gap detection; both fine
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close = %v, want nil (degraded to fallback)", err)
	}
	if cl.GapBytes() == 0 {
		t.Fatal("uncoverable regression produced no counted gap")
	}
	path, start, reason, ok := cl.Fallback()
	if !ok || path != fallback || reason == nil {
		t.Fatalf("Fallback() = (%q, %d, %v, %v), want active spill", path, start, reason, ok)
	}
	if start == 0 {
		t.Fatal("fallback start offset 0: spill should continue the shard prefix, not restart")
	}

	if err := r2.srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-r2.done
	var st StreamInfo
	for _, s := range r2.srv.Streams() {
		if s.ID == "gappy" {
			st = s
		}
	}
	if !st.Sealed || st.Complete || st.GapBytes != cl.GapBytes() {
		t.Fatalf("stream info = %+v, want sealed with gap %d", st, cl.GapBytes())
	}
	// The sealed shard is a clean archive prefix (chunk-aligned), and
	// the losses are exactly accounted: shard bytes + gap = resume
	// offset the client would have continued at.
	if _, _, warn, err := otf2.LoadFile(shard, region.NewRegistry(), otf2.Query{}, 1); err != nil || warn != "" {
		t.Fatalf("gap-sealed shard = (%q, %v), want clean chunk-aligned prefix", warn, err)
	}
	fi, err = os.Stat(shard)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size()+st.GapBytes != start {
		t.Fatalf("accounting: shard %d + gap %d != fallback start %d", fi.Size(), st.GapBytes, start)
	}
}

// TestReconnectBudgetExhaustionSpills kills the daemon for good:
// clients exhaust their reconnect budget and spill losslessly to their
// fallback archives — which, with the default replay window, are
// complete standalone archives, bit-identical to an undisturbed run.
func TestReconnectBudgetExhaustionSpills(t *testing.T) {
	for _, streams := range streamCounts {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			base := t.TempDir()
			dir := filepath.Join(base, "exp")
			sock := filepath.Join(base, "d.sock")
			r := startRestartable(t, dir, sock, WithAckInterval(2048))
			work, refs := streamWorkload(t, t.TempDir(), streams, 30, 20)

			clients := make([]*Client, streams)
			fallbacks := make([]string, streams)
			for i := 0; i < streams; i++ {
				fallbacks[i] = filepath.Join(base, fmt.Sprintf("fb-%d.otf2", i))
				cl, err := Dial("unix://"+sock,
					WithStreamID(fmt.Sprintf("w%d", i)),
					WithWriterOptions(otf2.WithChunkBytes(512)),
					WithReconnect(2, time.Millisecond, 200*time.Millisecond),
					WithFallbackArchive(fallbacks[i]))
				if err != nil {
					t.Fatal(err)
				}
				clients[i] = cl
				// First half while the daemon lives.
				for _, evs := range work[i][0][:15] {
					if err := cl.WriteEvents(0, evs); err != nil {
						t.Fatal(err)
					}
				}
			}
			r.crash() // and never comes back

			var wg sync.WaitGroup
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cl := clients[i]
					for _, evs := range work[i][0][15:] {
						if err := cl.WriteEvents(0, evs); err != nil {
							t.Errorf("stream %d: %v", i, err)
							return
						}
					}
					for _, evs := range work[i][1] {
						if err := cl.WriteEvents(1, evs); err != nil {
							t.Errorf("stream %d: %v", i, err)
							return
						}
					}
					if err := cl.Close(); err != nil {
						t.Errorf("stream %d: Close = %v, want nil after spill", i, err)
					}
				}(i)
			}
			wg.Wait()
			for i := 0; i < streams; i++ {
				path, start, reason, ok := clients[i].Fallback()
				if !ok || reason == nil {
					t.Fatalf("stream %d never fell back", i)
				}
				if start != 0 {
					t.Fatalf("stream %d fallback starts at %d, want 0 (complete standalone archive)", i, start)
				}
				mustEqualFiles(t, fmt.Sprintf("fallback %d", i), refs[i], path)
			}
		})
	}
}

// TestDiskFaultOneShard injects ENOSPC into one stream's shard writer:
// that stream is sealed failed (client told mid-stream, spills
// locally), its neighbors ingest to completion, and the server latches
// the disk error.
func TestDiskFaultOneShard(t *testing.T) {
	for _, streams := range streamCounts {
		t.Run(fmt.Sprintf("streams=%d", streams), func(t *testing.T) {
			base := t.TempDir()
			srv, err := NewServer(filepath.Join(base, "exp"),
				WithAckInterval(1024),
				WithShardWriterWrap(func(id string, w io.Writer) io.Writer {
					if id == "w0" {
						return faultinject.NewWriter(w, faultinject.CapacityBytes(4<<10)) // about half of w0's stream
					}
					return w
				}))
			if err != nil {
				t.Fatal(err)
			}
			sock := filepath.Join(base, "d.sock")
			ln, err := net.Listen("unix", sock)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { defer close(done); _ = srv.Serve(ln) }()

			work, refs := streamWorkload(t, t.TempDir(), streams, 30, 20)
			var wg sync.WaitGroup
			fellBack := make([]bool, streams)
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					cl, err := Dial("unix://"+sock,
						WithStreamID(fmt.Sprintf("w%d", i)),
						WithWriterOptions(otf2.WithChunkBytes(512)),
						WithReconnect(3, time.Millisecond, time.Second),
						WithFallbackArchive(filepath.Join(base, fmt.Sprintf("fb-%d.otf2", i))))
					if err != nil {
						t.Error(err)
						return
					}
					streamAll(t, cl, work[i])
					if err := cl.Close(); err != nil {
						t.Errorf("stream %d: Close = %v", i, err)
						return
					}
					_, _, _, fellBack[i] = cl.Fallback()
				}(i)
			}
			wg.Wait()
			if err := srv.Shutdown(5 * time.Second); err == nil {
				t.Fatal("server did not latch the injected disk failure")
			} else if !strings.Contains(err.Error(), "no space left") {
				t.Fatalf("latched error %v does not carry ENOSPC", err)
			}
			<-done

			infos := map[string]StreamInfo{}
			for _, st := range srv.Streams() {
				infos[st.ID] = st
			}
			if st := infos["w0"]; !st.Sealed || st.Complete || st.Err == "" {
				t.Fatalf("faulted stream info = %+v, want sealed failed", st)
			}
			if !fellBack[0] {
				t.Fatal("faulted stream's client did not spill to its fallback archive")
			}
			for i := 1; i < streams; i++ {
				id := fmt.Sprintf("w%d", i)
				st := infos[id]
				if !st.Complete || st.Err != "" {
					t.Fatalf("neighbor %s disturbed by w0's disk fault: %+v", id, st)
				}
				mustEqualFiles(t, id, refs[i], filepath.Join(srv.Dir(), st.File))
				if fellBack[i] {
					t.Fatalf("neighbor %s spilled locally despite a healthy stream", id)
				}
			}
		})
	}
}

// severBeforeHello is a client connection that dies after the server
// registered its stream and before the server's hello reaches the
// client: its first read waits until the server lists the stream, then
// closes the connection instead of reading.
type severBeforeHello struct {
	net.Conn
	srv *Server
}

func (c *severBeforeHello) Read([]byte) (int, error) {
	for deadline := time.Now().Add(5 * time.Second); len(c.srv.Streams()) == 0; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_ = c.Conn.Close()
	return 0, io.ErrUnexpectedEOF
}

// TestResumeOnFirstConnectIsCounted severs the client's first
// connection between the server's registration of the stream and its
// hello. The initial connect loop dials again, the server resumes the
// stream it registered, and the client must count that resume as the
// server does: Client.Resumes equals the shard's StreamInfo.Resumes.
func TestResumeOnFirstConnectIsCounted(t *testing.T) {
	srv, addr := startServer(t)
	network, address, err := SplitAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	dial := func() (net.Conn, error) {
		conn, err := net.Dial(network, address)
		if err == nil && dials.Add(1) == 1 {
			conn = &severBeforeHello{Conn: conn, srv: srv}
		}
		return conn, err
	}
	cl, err := NewClient(dial, WithStreamID("r1"), WithDialRetry(3, time.Millisecond),
		WithWriterOptions(otf2.WithChunkBytes(512)))
	if err != nil {
		t.Fatal(err)
	}
	batches := synthBatches(region.NewRegistry(), 2, 3, 20)
	streamAll(t, cl, batches)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	infos := srv.Streams()
	if len(infos) != 1 || !infos[0].Complete {
		t.Fatalf("streams = %+v, want one complete stream", infos)
	}
	if dials.Load() != 2 || infos[0].Resumes != 1 || cl.Resumes() != infos[0].Resumes {
		t.Fatalf("%d dials; the server counts %d resumes, the client %d; want 2 dials and one resume on both sides",
			dials.Load(), infos[0].Resumes, cl.Resumes())
	}
	local := filepath.Join(t.TempDir(), "local.otf2")
	writeLocal(t, local, batches, otf2.WithChunkBytes(512))
	mustEqualFiles(t, "shard", local, filepath.Join(srv.Dir(), infos[0].File))
}

// TestHandshakeReadDeadline connects and sends nothing: the server must
// shed the connection once the handshake deadline passes instead of
// pinning a goroutine forever (slowloris).
func TestHandshakeReadDeadline(t *testing.T) {
	srv, err := NewServer(t.TempDir(), WithHandshakeTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	start := time.Now()
	if err := srv.ServeConn(c2); err == nil {
		t.Fatal("silent connection was accepted")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("handshake deadline took %v to fire", d)
	}
	if n := len(srv.Streams()); n != 0 {
		t.Fatalf("silent connection registered %d streams", n)
	}
}

// TestIdleWatchdogSealsWedgedStream handshakes, sends a partial stream,
// then goes silent: the idle watchdog must sever the stream (keeping
// the flushed prefix) without the test having to close the socket.
func TestIdleWatchdogSealsWedgedStream(t *testing.T) {
	srv, err := NewServer(t.TempDir(), WithIdleTimeout(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	defer c1.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeConn(c2) }()

	// A valid handshake and one frame, then silence.
	reg := region.NewRegistry()
	local := filepath.Join(t.TempDir(), "p.otf2")
	writeLocal(t, local, synthBatches(reg, 1, 1, 4))
	payload, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = append(buf, Magic...)
	buf = append(buf, ProtocolV2)
	buf = append(buf, byte(len("wedged")))
	buf = append(buf, "wedged"...)
	buf = binary.AppendUvarint(buf, 0xfeed) // stream token
	buf = append(buf, frameData)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	go io.Copy(io.Discard, c1) //nolint:errcheck // the hello
	if _, err := c1.Write(buf); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err == nil {
			t.Fatal("wedged stream ended without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle watchdog never fired")
	}
	infos := srv.Streams()
	if len(infos) != 1 || infos[0].Complete || infos[0].Err == "" {
		t.Fatalf("streams = %+v, want one severed stream", infos)
	}
	if infos[0].Bytes != int64(len(payload)) {
		t.Fatalf("flushed prefix = %d bytes, want %d", infos[0].Bytes, len(payload))
	}
}

// TestShutdownDrains checks the graceful path: Shutdown with grace lets
// an in-flight stream finish cleanly.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	cl, err := Dial("unix://"+sock, WithStreamID("drainee"))
	if err != nil {
		t.Fatal(err)
	}
	reg := region.NewRegistry()
	streamAll(t, cl, synthBatches(reg, 1, 10, 20))

	// The client dials lazily; wait until its connection is established
	// or Shutdown would close the listener before it ever dialed.
	for deadline := time.Now().Add(5 * time.Second); ; {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never connected")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("client Close during drain = %v", err)
	}
	infos := srv.Streams()
	if len(infos) != 1 || !infos[0].Complete {
		t.Fatalf("streams = %+v, want one complete stream after drain", infos)
	}
}

// TestV1ClientAgainstV2Server checks that the server refuses a protocol-v1
// session — version byte 1 and no token, as clients before protocol v2
// spoke it — with an error and no reply, writes no shard for it, and
// leaves the committed v2 session, which it ingests meanwhile, as
// TestRawProtocolBytes does.
func TestV1ClientAgainstV2Server(t *testing.T) {
	srv, err := NewServer(t.TempDir(), WithAckInterval(sessionAckEvery))
	if err != nil {
		t.Fatal(err)
	}
	session := readTestdata(t, sessionFile)
	v2, v2Reply, v2Served := servePipe(srv)
	if _, err := v2.Write(session[:len(session)/2]); err != nil {
		t.Fatal(err)
	}

	v1, v1Reply, v1Served := servePipe(srv)
	v1.Write(append([]byte(Magic), 1, 3, 'o', 'l', 'd', frameData, 1, 0, frameEOS, 0)) //nolint:errcheck // the server may hang up first
	if err := <-v1Served; err == nil || !strings.Contains(err.Error(), "protocol version 1") {
		t.Fatalf("ServeConn of a v1 session = %v, want a refusal of version 1", err)
	}
	if reply := <-v1Reply; len(reply) != 0 {
		t.Errorf("the server answered a v1 handshake with %q", reply)
	}
	if _, err := os.Stat(filepath.Join(srv.Dir(), shardFileName("old"))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the refused session left a shard (%v)", err)
	}

	if _, err := v2.Write(session[len(session)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := <-v2Served; err != nil {
		t.Fatal(err)
	}
	checkSession(t, srv, <-v2Reply)
}
