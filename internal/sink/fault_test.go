package sink

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// flakyConn injects a transport fault: writes succeed (in short slices,
// so frames land partially) until limit bytes have passed, then every
// write fails and the connection is reset. Reads pass through until the
// fault, then fail too — the client's ack read must not hang on it.
type flakyConn struct {
	net.Conn
	limit   int64
	written atomic.Int64
	tripped atomic.Bool
}

var errInjected = errors.New("injected fault: connection reset")

func (c *flakyConn) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		if c.written.Load() >= c.limit {
			if c.tripped.CompareAndSwap(false, true) {
				// Reset the underlying pipe so the peer sees the severance
				// too, like a crashed process's kernel closing its socket.
				c.Conn.Close()
			}
			return n, errInjected
		}
		chunk := p
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		if rem := c.limit - c.written.Load(); int64(len(chunk)) > rem {
			chunk = chunk[:rem]
		}
		m, err := c.Conn.Write(chunk)
		c.written.Add(int64(m))
		n += m
		if err != nil {
			return n, err
		}
		p = p[len(chunk):]
	}
	return n, nil
}

// TestClientSurvivesSeveredConnection cuts the transport mid-stream
// under concurrent blocked producers and checks (a) the client latches
// the error without deadlocking any recording thread, (b) the daemon
// keeps the intact prefix of the severed stream as a salvageable
// archive, and (c) a concurrent healthy stream is untouched.
func TestClientSurvivesSeveredConnection(t *testing.T) {
	srv, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// The doomed stream, over a fault-injected pipe: ~8 KiB get through,
	// then the connection resets mid-frame.
	c1, c2 := net.Pipe()
	fc := &flakyConn{Conn: c1, limit: 8 << 10}
	doomed, err := NewClientConn(fc,
		WithStreamID("doomed"),
		WithBufferBytes(1024),
		WithWriterOptions(otf2.WithChunkBytes(256)))
	if err != nil {
		t.Fatal(err)
	}
	var severed sync.WaitGroup
	severed.Add(1)
	go func() {
		defer severed.Done()
		_ = srv.ServeConn(c2) // returns with an error once the pipe resets
	}()

	// A healthy stream into the same server, concurrently.
	h1, h2 := net.Pipe()
	healthy, err := NewClientConn(h1, WithStreamID("healthy"), WithWriterOptions(otf2.WithChunkBytes(256)))
	if err != nil {
		t.Fatal(err)
	}
	var healthyDone sync.WaitGroup
	healthyDone.Add(1)
	go func() {
		defer healthyDone.Done()
		_ = srv.ServeConn(h2)
	}()

	reg := region.NewRegistry()
	task := reg.Register("work", "fault_test.go", 1, region.Task)
	mkBatch := func(th, i int) []trace.Event {
		base := int64(th*1_000_000 + i*10)
		return []trace.Event{
			{Time: base, Type: trace.EvTaskBegin, Region: task, TaskID: uint64(th<<20 | i)},
			{Time: base + 5, Type: trace.EvTaskEnd, Region: task, TaskID: uint64(th<<20 | i)},
		}
	}

	// Concurrent producers under the block policy: once the transport
	// dies they must all unblock with the latched error, not hang.
	const producers = 4
	const batchesPer = 2000
	var wg sync.WaitGroup
	var sawErr atomic.Int64
	for th := 0; th < producers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < batchesPer; i++ {
				if err := doomed.WriteEvents(th, mkBatch(th, i)); err != nil {
					sawErr.Add(1)
					return
				}
			}
		}(th)
	}
	wg.Wait() // a deadlocked producer fails the test by timeout
	if sawErr.Load() == 0 {
		t.Fatal("no producer observed the severed connection (workload too small for the fault point?)")
	}
	if doomed.Err() == nil {
		t.Fatal("client did not latch the transport error")
	}
	if err := doomed.Close(); err == nil {
		t.Fatal("Close on a severed stream returned nil")
	}

	// Healthy stream: full workload, clean seal.
	var healthyTotal int
	for i := 0; i < 500; i++ {
		if err := healthy.WriteEvents(0, mkBatch(0, i)); err != nil {
			t.Fatalf("healthy stream failed: %v", err)
		}
		healthyTotal += 2
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}
	severed.Wait()
	healthyDone.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("a severed client latched a server error: %v", err)
	}

	infos := map[string]StreamInfo{}
	for _, st := range srv.Streams() {
		infos[st.ID] = st
	}
	d, h := infos["doomed"], infos["healthy"]
	if d.Complete {
		t.Fatalf("severed stream marked complete: %+v", d)
	}
	if d.Err == "" {
		t.Fatalf("severed stream records no error: %+v", d)
	}
	if !h.Complete || h.Err != "" {
		t.Fatalf("healthy stream disturbed by its neighbor's crash: %+v", h)
	}

	// The severed shard holds the intact prefix: lenient reading
	// salvages it (possibly with a truncation warning), and it decodes
	// to a prefix of what the producers wrote.
	tr, _, warn, err := otf2.LoadFile(filepath.Join(srv.Dir(), d.File), region.NewRegistry(), otf2.Query{}, 1)
	if err != nil {
		t.Fatalf("severed shard not salvageable: %v", err)
	}
	if tr.NumEvents() == 0 {
		t.Fatalf("severed shard salvaged zero events from %d ingested bytes", d.Bytes)
	}
	t.Logf("salvaged %d events from severed shard (%d bytes, warning %q)", tr.NumEvents(), d.Bytes, warn)

	// Healthy shard: everything, exactly.
	htr := readTrace(t, filepath.Join(srv.Dir(), h.File))
	if htr.NumEvents() != healthyTotal {
		t.Fatalf("healthy shard holds %d events, want %d", htr.NumEvents(), healthyTotal)
	}
}

// TestDialFailureLatches exhausts the dial retries against a dead
// address and checks recording degrades to errors, not hangs.
func TestDialFailureLatches(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "nobody-home.sock")
	cl, err := Dial("unix://"+sock, WithStreamID("orphan"), WithDialRetry(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	reg := region.NewRegistry()
	task := reg.Register("work", "fault_test.go", 2, region.Task)
	evs := []trace.Event{{Time: 1, Type: trace.EvTaskBegin, Region: task, TaskID: 1}}

	// The sender fails quickly; producers keep writing until they see
	// the latched error.
	deadline := 0
	for {
		if err := cl.WriteEvents(0, evs); err != nil {
			break
		}
		deadline++
		if deadline > 1_000_000 {
			t.Fatal("dial exhaustion never surfaced to WriteEvents")
		}
	}
	if cl.Err() == nil {
		t.Fatal("no latched error after dial exhaustion")
	}
	if err := cl.Close(); err == nil {
		t.Fatal("Close returned nil after dial exhaustion")
	}

	// attempts <= 1 means a single attempt, and n > 1 means n.
	for _, c := range []struct{ attempts, dials int32 }{{-1, 1}, {0, 1}, {1, 1}, {3, 3}} {
		var dials atomic.Int32
		cl, err := NewClient(func() (net.Conn, error) {
			dials.Add(1)
			return nil, errors.New("connection refused")
		}, WithDialRetry(int(c.attempts), time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		cl.WriteEvents(0, evs) //nolint:errcheck // the dials fail; Close reports it
		if err := cl.Close(); err == nil {
			t.Fatalf("attempts %d: Close returned nil with no connection", c.attempts)
		}
		if n := dials.Load(); n != c.dials {
			t.Errorf("WithDialRetry(%d): %d dials, want %d", c.attempts, n, c.dials)
		}
	}
}

// TestDaemonAckFailure checks the client surfaces a daemon that saw the
// end of stream but could not seal the shard (ackFailed path). The fake
// daemon greets the stream as new, takes every frame and answers the end
// of stream with the failure ack; the mid-stream failure ack is covered
// by the disk-fault tests.
func TestDaemonAckFailure(t *testing.T) {
	c1, c2 := net.Pipe()
	cl, err := NewClientConn(c1, WithStreamID("unsealed"))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		br := bufio.NewReader(c2)
		if _, _, err := readHandshake(br); err != nil {
			return
		}
		c2.Write([]byte{frameHello, helloNew, 0})
		for {
			kind, err := br.ReadByte()
			if err != nil {
				return
			}
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return
			}
			if kind == frameEOS {
				c2.Write([]byte{ackByte, ackFailed})
				return
			}
			if _, err := br.Discard(int(n)); err != nil {
				return
			}
		}
	}()
	reg := region.NewRegistry()
	task := reg.Register("work", "fault_test.go", 3, region.Task)
	_ = cl.WriteEvents(0, []trace.Event{{Time: 1, Type: trace.EvTaskBegin, Region: task, TaskID: 1}})
	err = cl.Close()
	if err == nil {
		t.Fatal("Close returned nil though the daemon reported ingest failure")
	}
	if want := "ingest failure"; !strings.Contains(err.Error(), want) {
		t.Fatalf("Close error %q does not mention %q", err, want)
	}
}
