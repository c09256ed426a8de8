package sink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// synthBatches builds a deterministic per-thread event workload: for
// each thread, batches of task-begin/end pairs with strictly increasing
// times. The same batches written to any sink decode to the same trace.
func synthBatches(reg *region.Registry, threads, batches, perBatch int) map[int][][]trace.Event {
	task := reg.Register("work", "sink_test.go", 1, region.Task)
	out := make(map[int][][]trace.Event, threads)
	for th := 0; th < threads; th++ {
		var bs [][]trace.Event
		t := int64(1000 * (th + 1))
		for b := 0; b < batches; b++ {
			var evs []trace.Event
			for i := 0; i < perBatch; i++ {
				id := uint64(th*1_000_000 + b*1000 + i)
				evs = append(evs, trace.Event{Time: t, Type: trace.EvTaskBegin, Region: task, TaskID: id})
				t += 7
				evs = append(evs, trace.Event{Time: t, Type: trace.EvTaskEnd, Region: task, TaskID: id})
				t += 3
			}
			bs = append(bs, evs)
		}
		out[th] = bs
	}
	return out
}

// archiveOf is the archive a plain writer makes of batches — the bytes a
// streamed shard must match.
func archiveOf(t testing.TB, batches map[int][][]trace.Event, opts ...otf2.WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := otf2.NewWriter(&buf, opts...)
	for th := 0; th < len(batches); th++ {
		for _, evs := range batches[th] {
			if err := w.WriteEvents(th, evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeLocal writes that archive to a file.
func writeLocal(t *testing.T, path string, batches map[int][][]trace.Event, opts ...otf2.WriterOption) {
	t.Helper()
	if err := os.WriteFile(path, archiveOf(t, batches, opts...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readTrace decodes an archive into a fresh registry.
func readTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	tr, err := otf2.ReadFile(path, region.NewRegistry(), 1)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return tr
}

// tracesEqual compares two traces structurally (regions by descriptor,
// not pointer — each read interns into its own registry).
func tracesEqual(t *testing.T, label string, want, got *trace.Trace) {
	t.Helper()
	if len(got.Threads) != len(want.Threads) {
		t.Fatalf("%s: thread count = %d, want %d", label, len(got.Threads), len(want.Threads))
	}
	for tid, wevs := range want.Threads {
		gevs := got.Threads[tid]
		if len(gevs) != len(wevs) {
			t.Fatalf("%s: thread %d: %d events, want %d", label, tid, len(gevs), len(wevs))
		}
		for i := range wevs {
			w, g := wevs[i], gevs[i]
			if w.Time != g.Time || w.Type != g.Type || w.TaskID != g.TaskID {
				t.Fatalf("%s: thread %d event %d = %+v, want %+v", label, tid, i, g, w)
			}
			if (w.Region == nil) != (g.Region == nil) {
				t.Fatalf("%s: thread %d event %d region nilness differs", label, tid, i)
			}
			if w.Region != nil && (w.Region.Name != g.Region.Name || w.Region.Type != g.Region.Type) {
				t.Fatalf("%s: thread %d event %d region = %+v, want %+v", label, tid, i, g.Region, w.Region)
			}
		}
	}
}

// startServer listens on a unix socket in a temp dir and serves until
// the test ends.
func startServer(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := NewServer(dir, opts...)
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
	return srv, "unix://" + sock
}

// TestRoundTripUnixSocket streams a workload over a unix socket and
// checks the daemon's shard decodes identically to a local recording of
// the same batches.
func TestRoundTripUnixSocket(t *testing.T) {
	srv, addr := startServer(t)
	reg := region.NewRegistry()
	batches := synthBatches(reg, 3, 4, 25)

	cl, err := Dial(addr, WithStreamID("w1"), WithWriterOptions(otf2.WithChunkBytes(512)))
	if err != nil {
		t.Fatal(err)
	}
	for th := 0; th < len(batches); th++ {
		for _, evs := range batches[th] {
			if err := cl.WriteEvents(th, evs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	infos := srv.Streams()
	if len(infos) != 1 {
		t.Fatalf("streams = %d, want 1", len(infos))
	}
	st := infos[0]
	if st.ID != "w1" || st.File != "trace-w1.otf2" || !st.Complete || st.DroppedEvents != 0 {
		t.Fatalf("stream info = %+v", st)
	}
	if st.Bytes == 0 || st.Frames == 0 {
		t.Fatalf("empty ingest: %+v", st)
	}

	local := filepath.Join(t.TempDir(), "local.otf2")
	writeLocal(t, local, batches, otf2.WithChunkBytes(512))
	tracesEqual(t, "shard", readTrace(t, local), readTrace(t, filepath.Join(srv.Dir(), st.File)))

	// A cleanly sealed shard carries the footer index.
	f, err := os.Open(filepath.Join(srv.Dir(), st.File))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := otf2.ReadIndex(f); err != nil {
		t.Fatalf("sealed shard has no index: %v", err)
	}
}

// TestDialRetryWhileServerStarts dials first, starts the listener after
// a delay, and expects the lazy connect with backoff to succeed.
func TestDialRetryWhileServerStarts(t *testing.T) {
	dir := t.TempDir()
	sock := filepath.Join(dir, "late.sock")
	cl, err := Dial("unix://"+sock, WithStreamID("late"), WithDialRetry(20, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	reg := region.NewRegistry()
	batches := synthBatches(reg, 1, 1, 5)
	if err := cl.WriteEvents(0, batches[0][0]); err != nil {
		t.Fatal(err)
	}

	time.Sleep(50 * time.Millisecond) // let a few dial attempts fail
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if infos := srv.Streams(); len(infos) != 1 || !infos[0].Complete {
		t.Fatalf("streams = %+v", infos)
	}
}

// TestStreamIDCollision checks two clients announcing the same id get
// distinct shards.
func TestStreamIDCollision(t *testing.T) {
	srv, addr := startServer(t)
	reg := region.NewRegistry()
	batches := synthBatches(reg, 1, 1, 3)

	for i := 0; i < 2; i++ {
		cl, err := Dial(addr, WithStreamID("bots"))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteEvents(0, batches[0][0]); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, st := range srv.Streams() {
		got[st.File] = st.Complete
	}
	if !got["trace-bots.otf2"] || !got["trace-bots.2.otf2"] {
		t.Fatalf("shards = %v, want trace-bots.otf2 and trace-bots.2.otf2", got)
	}
}

// TestHandshakeRejection feeds malformed handshakes and checks the
// server rejects them without registering a stream.
func TestHandshakeRejection(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"bad magic", []byte("NOTSINK\x00\x01")},
		{"bad version", append([]byte(Magic), 99)},
		{"zero id", append(append([]byte(Magic), ProtocolVersion), 0)},
		{"oversize id", func() []byte {
			b := append([]byte(Magic), ProtocolVersion)
			return binary.AppendUvarint(b, MaxStreamIDLen+1)
		}()},
		{"bad id chars", func() []byte {
			b := append([]byte(Magic), ProtocolVersion)
			b = binary.AppendUvarint(b, 4)
			return append(b, "a b/"...)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c1, c2 := net.Pipe()
			go func() {
				c1.Write(tc.raw)
				c1.Close()
			}()
			if err := srv.ServeConn(c2); err == nil {
				t.Fatal("malformed handshake accepted")
			}
			if n := len(srv.Streams()); n != 0 {
				t.Fatalf("registered %d streams from a rejected handshake", n)
			}
			if srv.Err() != nil {
				t.Fatalf("client protocol garbage latched a server error: %v", srv.Err())
			}
		})
	}
}

// TestInvalidClientConfig checks eager validation in Dial.
func TestInvalidClientConfig(t *testing.T) {
	if _, err := Dial("http://nope"); err == nil {
		t.Fatal("bad scheme accepted")
	}
	if _, err := Dial("unix:///tmp/x.sock", WithStreamID("has space")); err == nil {
		t.Fatal("invalid stream id accepted")
	}
	if _, err := Dial("unix:///tmp/x.sock", WithStreamID(strings.Repeat("x", MaxStreamIDLen+1))); err == nil {
		t.Fatal("oversize stream id accepted")
	}
}

// TestSplitAddr covers the accepted address spellings.
func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
		wantErr              bool
	}{
		{"unix:///tmp/d.sock", "unix", "/tmp/d.sock", false},
		{"unix:rel.sock", "unix", "rel.sock", false},
		{"tcp://localhost:7007", "tcp", "localhost:7007", false},
		{"localhost:7007", "tcp", "localhost:7007", false},
		{"/var/run/d.sock", "unix", "/var/run/d.sock", false},
		{"./d.sock", "unix", "./d.sock", false},
		{"", "", "", true},
		{"ftp://x", "", "", true},
		{"justahost", "", "", true},
	}
	for _, tc := range cases {
		network, address, err := SplitAddr(tc.in)
		if (err != nil) != tc.wantErr {
			t.Fatalf("SplitAddr(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
		}
		if err == nil && (network != tc.network || address != tc.address) {
			t.Fatalf("SplitAddr(%q) = %q %q, want %q %q", tc.in, network, address, tc.network, tc.address)
		}
	}
}

// TestEOSDroppedCount sends a raw stream whose end-of-stream frame
// reports dropped events. This build's client always reports 0, but
// the v2 frame carries a count, and the daemon records what it reads in
// StreamInfo.DroppedEvents with the shard intact.
func TestEOSDroppedCount(t *testing.T) {
	srv, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batches := synthBatches(region.NewRegistry(), 1, 3, 10)
	archive := archiveOf(t, batches)
	c1, c2 := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(c2) }()
	drained := make(chan struct{})
	go func() { // hello, durable acks, the final ack
		defer close(drained)
		_, _ = io.Copy(io.Discard, c1)
	}()
	stream := append([]byte(Magic), ProtocolV2, byte(len("lossy")))
	stream = append(stream, "lossy"...)
	stream = binary.AppendUvarint(stream, 0x55)
	stream = append(stream, framesOf(archive, 1000)...)
	stream = append(stream, frameEOS, 42)
	if _, err := c1.Write(stream); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	_ = c1.Close()
	<-drained

	infos := srv.Streams()
	if len(infos) != 1 || !infos[0].Complete || infos[0].DroppedEvents != 42 {
		t.Fatalf("streams = %+v, want one complete stream with 42 dropped events", infos)
	}
	tr := readTrace(t, filepath.Join(srv.Dir(), infos[0].File))
	want := 0
	for _, evs := range batches[0] {
		want += len(evs)
	}
	if n := tr.NumEvents(); n != want {
		t.Fatalf("shard holds %d events, want %d", n, want)
	}
}

// TestBlockPolicyDeliversAll pushes a workload much larger than the
// send buffer through a deliberately slow reader and checks nothing is
// lost.
func TestBlockPolicyDeliversAll(t *testing.T) {
	srv, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	cl, err := NewClientConn(slowConn{c1},
		WithStreamID("patient"),
		WithBufferBytes(1024),
		WithWriterOptions(otf2.WithChunkBytes(128)))
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeConn(c2) }()

	reg := region.NewRegistry()
	batches := synthBatches(reg, 2, 20, 25)
	var total int
	for th := 0; th < len(batches); th++ {
		for _, evs := range batches[th] {
			if err := cl.WriteEvents(th, evs); err != nil {
				t.Fatal(err)
			}
			total += len(evs)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	tr := readTrace(t, filepath.Join(srv.Dir(), "trace-patient.otf2"))
	if tr.NumEvents() != total {
		t.Fatalf("delivered %d events, want %d", tr.NumEvents(), total)
	}
}

// slowConn throttles writes to small slices, forcing the sender to
// stay behind the producers.
type slowConn struct{ net.Conn }

func (c slowConn) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > 128 {
			chunk = chunk[:128]
		}
		m, err := c.Conn.Write(chunk)
		n += m
		if err != nil {
			return n, err
		}
		p = p[len(chunk):]
	}
	return n, nil
}

// TestWriteAfterClose checks the post-Close contract.
func TestWriteAfterClose(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr, WithStreamID("done"))
	if err != nil {
		t.Fatal(err)
	}
	reg := region.NewRegistry()
	batches := synthBatches(reg, 1, 1, 2)
	if err := cl.WriteEvents(0, batches[0][0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteEvents(0, batches[0][0]); err == nil {
		t.Fatal("WriteEvents after Close succeeded")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close = %v, want idempotent nil", err)
	}
	_ = srv
}

// TestValidStreamID pins the id charset.
func TestValidStreamID(t *testing.T) {
	for id, want := range map[string]bool{
		"p123":                   true,
		"node-7.rank_3":          true,
		"":                       false,
		"a b":                    false,
		"a/b":                    false,
		"ü":                      false,
		strings.Repeat("x", 128): true,
		strings.Repeat("x", 129): false,
	} {
		if got := ValidStreamID(id); got != want {
			t.Errorf("ValidStreamID(%q) = %v, want %v", id, got, want)
		}
	}
}

// sessionFile is the client's side of one protocol-v2 session, byte for
// byte: a handshake for stream "transcript" with token 0xfeed, the
// archive internal/otf2/testdata/v4.otf2 in data frames of 256 bytes, and
// an end of stream reporting no dropped events. A server acking every
// sessionAckEvery bytes answers it with testdata/session-v2-reply.bin and
// writes testdata/session-v2-shard.otf2.
const (
	sessionFile     = "session-v2.bin"
	sessionAckEvery = 512
)

func readTestdata(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// servePipe has srv serve one end of a pipe and returns the other, with
// what the server answers on it until it hangs up, and what ServeConn
// returns.
func servePipe(srv *Server) (net.Conn, <-chan []byte, <-chan error) {
	c1, c2 := net.Pipe()
	replied, served := make(chan []byte, 1), make(chan error, 1)
	go func() { served <- srv.ServeConn(c2) }()
	go func() {
		reply, _ := io.ReadAll(c1)
		replied <- reply
	}()
	return c1, replied, served
}

// checkSession holds srv, which served the committed session, and its
// reply to the committed reply and shard.
func checkSession(t *testing.T, srv *Server, reply []byte) {
	t.Helper()
	if want := readTestdata(t, "session-v2-reply.bin"); !bytes.Equal(reply, want) {
		t.Errorf("the server answered % x, want % x", reply, want)
	}
	shard, err := os.ReadFile(filepath.Join(srv.Dir(), shardFileName("transcript")))
	if want := readTestdata(t, "session-v2-shard.otf2"); err != nil || !bytes.Equal(shard, want) {
		t.Errorf("the shard is %d bytes (%v) and differs from the %d committed", len(shard), err, len(want))
	}
	infos := srv.Streams()
	if len(infos) != 1 || !infos[0].Complete || infos[0].Bytes != int64(len(shard)) || infos[0].Frames != 8 {
		t.Errorf("streams = %+v, want one complete stream of 8 frames", infos)
	}
}

// TestRawProtocolBytes replays the committed protocol-v2 session through
// ServeConn and holds the server to the committed reply — hello, durable
// acks, final ack — and shard: the byte-level spec doc.go promises, which
// a reimplementation of either side must produce exactly.
func TestRawProtocolBytes(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		srv, err := NewServer(t.TempDir(), WithAckInterval(sessionAckEvery))
		if err != nil {
			t.Fatal(err)
		}
		conn, replied, served := servePipe(srv)
		if _, err := conn.Write(readTestdata(t, sessionFile)); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		checkSession(t, srv, <-replied)
	})
}

// TestEdgeRecordsRoundTrip streams the events that stress the archive's
// event record — region refs 0 to 20, task IDs whose deltas wrap
// (0, 1, 2^63, 2^64-1 alternating), runs of one task ID across batch and
// chunk boundaries, a clock stepping back (ten-byte deltas), batches of 1
// to 9 events — and holds the daemon's shard to the events sent and,
// byte for byte, to the archive a plain writer makes of them.
func TestEdgeRecordsRoundTrip(t *testing.T) {
	reg := region.NewRegistry()
	regs := []*region.Region{nil}
	for i := 0; i < 20; i++ {
		regs = append(regs, reg.Register(fmt.Sprintf("edge%d", i), "sink_test.go", i, region.UserFunction))
	}
	rng := rand.New(rand.NewSource(5))
	ids := []uint64{0, 1, 1 << 63, math.MaxUint64}
	batches := map[int][][]trace.Event{}
	want := &trace.Trace{Threads: map[int][]trace.Event{}}
	for th := 0; th < 2; th++ {
		now, id := int64(th)<<40, uint64(0)
		for k := 1; len(want.Threads[th]) < 2000; k = k%9 + 1 {
			var evs []trace.Event
			for i := 0; i < k; i++ {
				now += rng.Int63n(1<<12) - 1<<11
				switch rng.Intn(4) {
				case 0:
					id = rng.Uint64() >> uint(rng.Intn(64))
				case 1: // the task before again
				default:
					id = ids[rng.Intn(len(ids))]
				}
				evs = append(evs, trace.Event{Time: now, Type: trace.EventType(rng.Intn(int(trace.EvThreadEnd) + 1)), Region: regs[rng.Intn(len(regs))], TaskID: id})
			}
			batches[th] = append(batches[th], evs)
			want.Threads[th] = append(want.Threads[th], evs...)
		}
	}
	for _, comp := range []otf2.Compression{otf2.CompressionNone, otf2.CompressionFlate} {
		srv, addr := startServer(t)
		opts := []otf2.WriterOption{otf2.WithChunkBytes(1024), otf2.WithCompression(comp)}
		cl, err := Dial(addr, WithStreamID("edge"), WithWriterOptions(opts...))
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < len(batches); th++ {
			for _, evs := range batches[th] {
				if err := cl.WriteEvents(th, evs); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		shard := filepath.Join(srv.Dir(), "trace-edge.otf2")
		tracesEqual(t, comp.String(), want, readTrace(t, shard))
		got, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, archiveOf(t, batches, opts...)) {
			t.Errorf("%s: the shard differs from a plain writer's archive of the same batches", comp)
		}
	}
}
