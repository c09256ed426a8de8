package sink

import (
	"bufio"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/otf2"
	"repro/internal/trace"
)

// Client defaults.
const (
	// DefaultBufferBytes bounds the unacked archive bytes buffered
	// between the encoding threads and the background sender — the
	// backpressure debt a slow or absent daemon can impose: a recording
	// thread that finds the buffer full waits for the sender, so no
	// event is lost and the measured program pays the sink's latency,
	// as with a slow local disk.
	DefaultBufferBytes = 1 << 20
	// DefaultDialAttempts and DefaultDialBackoff shape the lazy-connect
	// retry loop: backoff doubles per attempt with jitter (≈50ms,
	// 100ms, ... — about 1.5s in total), covering the "daemon still
	// starting" race without stalling a doomed run for long.
	DefaultDialAttempts = 5
	DefaultDialBackoff  = 50 * time.Millisecond
	// DefaultDialBudget caps the total elapsed time of the initial
	// connect loop, whatever the attempt count and backoff say.
	DefaultDialBudget = 10 * time.Second
	// DefaultAckTimeout bounds how long Close waits for the daemon's
	// seal acknowledgment, and a handshake or gap declaration for its
	// answer.
	DefaultAckTimeout = 10 * time.Second
	// DefaultReconnectAttempts, DefaultReconnectBackoff and
	// DefaultReconnectBudget shape the per-outage reconnect loop: after
	// a mid-stream sever the sender redials with jittered doubling
	// backoff until one of the three budgets runs out, then degrades
	// (fallback archive or latched error).
	DefaultReconnectAttempts = 8
	DefaultReconnectBackoff  = 100 * time.Millisecond
	DefaultReconnectBudget   = 20 * time.Second
	// DefaultReplayBytes is the acked history the client retains below
	// the server's durable offset. It must cover the server's flush
	// lag plus one archive chunk, so a daemon crash that recovers to a
	// chunk boundary can still be resumed bit-identically.
	DefaultReplayBytes = 4 << 20
)

// ClientOption configures a Client.
type ClientOption func(*clientConfig)

type clientConfig struct {
	streamID          string
	token             uint64
	bufBytes          int
	replayBytes       int
	dialAttempts      int
	dialBackoff       time.Duration
	reconnectAttempts int
	reconnectBackoff  time.Duration
	reconnectBudget   time.Duration
	fallbackPath      string
	writerOpts        []otf2.WriterOption
	dial              func() (net.Conn, error)
}

// WithStreamID names the client's stream — and thereby its shard file,
// "trace-<id>.otf2" — in the daemon's experiment. The default is
// "p<pid>", unique per host; the daemon additionally uniquifies
// colliding ids. The id must satisfy ValidStreamID.
func WithStreamID(id string) ClientOption {
	return func(c *clientConfig) { c.streamID = id }
}

// WithStreamToken fixes the stream token the client presents in its
// handshake (default: random). The token identifies the stream across
// reconnects; tests fix it to exercise resume determinism.
func WithStreamToken(token uint64) ClientOption {
	return func(c *clientConfig) { c.token = token }
}

// WithBufferBytes bounds the unacked archive bytes buffered between
// the encoding threads and the background sender (default
// DefaultBufferBytes).
func WithBufferBytes(n int) ClientOption {
	return func(c *clientConfig) {
		if n > 0 {
			c.bufBytes = n
		}
	}
}

// WithReplayWindow sets how many server-acked bytes the client retains
// for crash-recovery replay (default DefaultReplayBytes). Zero retains
// nothing: a severed connection is still resumable, but a daemon crash
// that loses flushed-but-unsealed bytes becomes an explicit gap.
func WithReplayWindow(n int) ClientOption {
	return func(c *clientConfig) {
		if n >= 0 {
			c.replayBytes = n
		}
	}
}

// WithDialRetry shapes the connect retry loop: up to attempts dials,
// sleeping a jittered backoff (doubling) between them. attempts <= 1
// means a single attempt.
func WithDialRetry(attempts int, backoff time.Duration) ClientOption {
	return func(c *clientConfig) {
		c.dialAttempts = max(attempts, 1)
		if backoff > 0 {
			c.dialBackoff = backoff
		}
	}
}

// WithReconnect shapes the per-outage reconnect loop: up to attempts
// redials per outage, jittered doubling backoff, and a total elapsed
// budget per outage. attempts <= 0 disables reconnection entirely — a
// severed connection is then terminal.
func WithReconnect(attempts int, backoff, budget time.Duration) ClientOption {
	return func(c *clientConfig) {
		c.reconnectAttempts = attempts
		if backoff > 0 {
			c.reconnectBackoff = backoff
		}
		c.reconnectBudget = budget
	}
}

// WithFallbackArchive names a local archive file the client spills to
// when the remote stream is lost for good — dial or reconnect budget
// exhausted, an unresumable gap, or a daemon-reported ingest failure.
// The spill is lossless from the archive offset Fallback reports: the
// retained window is written first, then recording continues into the
// file, so offset 0 (the common case) is a complete standalone
// archive. Empty (the default) disables spilling: terminal transport
// failures latch Err instead.
func WithFallbackArchive(path string) ClientOption {
	return func(c *clientConfig) { c.fallbackPath = path }
}

// WithWriterOptions passes options (compression, chunk size, format
// version) to the client's embedded archive writer — compressing the
// event chunks before framing is the natural way to trade CPU for
// network bandwidth on a TCP sink.
func WithWriterOptions(opts ...otf2.WriterOption) ClientOption {
	return func(c *clientConfig) { c.writerOpts = append(c.writerOpts, opts...) }
}

// Client streams one process's event trace to a measurement daemon. It
// implements trace.EventSink: recording threads encode their event
// batches concurrently through the embedded otf2.Writer (the same
// per-thread hot path a file sink uses) into a bounded window that a
// single background goroutine drains to the connection. The connection
// is established lazily by that sender, with retry/backoff, so
// constructing a Client never blocks the measured program's start.
//
// The client speaks wire protocol v2, and the window doubles as a
// replay buffer: a severed connection is survived by reconnect
// (jittered backoff, per-outage attempt and elapsed budgets) and
// byte-exact replay from the server's durable offset. Only when the
// stream is lost for good — budgets exhausted, an unresumable gap, a
// daemon-side ingest failure — does the client degrade: to a lossless
// local fallback archive when WithFallbackArchive is set, else by
// latching the error (Err) and unblocking all waiting recording
// threads, exactly like a failing local disk under the streaming
// recorder's contract. Close leaves the client holding none of its
// stream.
type Client struct {
	cfg clientConfig
	win *sendWindow
	w   *otf2.Writer

	err atomic.Pointer[error]

	resumes       atomic.Int64
	gapBytes      atomic.Int64
	fellBack      atomic.Bool
	fallbackStart atomic.Int64
	fallbackWhy   atomic.Pointer[error]

	done      chan struct{} // closed when the sender goroutine exits
	closeOnce sync.Once
	closeErr  error
}

// interface check: the client is a drop-in streaming-recorder sink.
var _ trace.EventSink = (*Client)(nil)

// Dial creates a Client streaming to the daemon at addr (see SplitAddr
// for accepted forms). The error reports a malformed address or stream
// id; the connection itself is established lazily by the background
// sender, so a daemon that is still starting is retried, not an error.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(func() (net.Conn, error) {
		return net.DialTimeout(network, address, 5*time.Second)
	}, opts...)
}

// NewClient creates a Client that obtains every connection — the
// initial one and reconnects — from dial. This is the seam tests and
// embedders use to interpose fault injection or custom transports.
func NewClient(dial func() (net.Conn, error), opts ...ClientOption) (*Client, error) {
	cfg := defaultClientConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.dial = dial
	return newClient(cfg)
}

// NewClientConn creates a Client streaming over an existing connection
// (tests drive a Server directly through net.Pipe this way). The Client
// takes ownership of conn and closes it; since the connection cannot
// be re-established, reconnection is disabled.
func NewClientConn(conn net.Conn, opts ...ClientOption) (*Client, error) {
	cfg := defaultClientConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.dialAttempts = 1
	cfg.reconnectAttempts = 0
	cfg.dial = func() (net.Conn, error) { return conn, nil }
	return newClient(cfg)
}

func defaultClientConfig() clientConfig {
	return clientConfig{
		streamID:          fmt.Sprintf("p%d", os.Getpid()),
		bufBytes:          DefaultBufferBytes,
		replayBytes:       DefaultReplayBytes,
		dialAttempts:      DefaultDialAttempts,
		dialBackoff:       DefaultDialBackoff,
		reconnectAttempts: DefaultReconnectAttempts,
		reconnectBackoff:  DefaultReconnectBackoff,
		reconnectBudget:   DefaultReconnectBudget,
	}
}

func newClient(cfg clientConfig) (*Client, error) {
	if !ValidStreamID(cfg.streamID) {
		return nil, fmt.Errorf("sink: invalid stream id %q (want 1..%d bytes of [A-Za-z0-9._-])",
			cfg.streamID, MaxStreamIDLen)
	}
	if cfg.token == 0 {
		cfg.token = randomToken()
	}
	c := &Client{cfg: cfg, done: make(chan struct{})}
	c.win = newSendWindow(cfg.bufBytes, cfg.replayBytes)
	c.w = otf2.NewWriter(c.win, cfg.writerOpts...)
	go c.run()
	return c, nil
}

// randomToken draws a nonzero 64-bit stream token.
func randomToken() uint64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return uint64(os.Getpid())<<32 | uint64(time.Now().UnixNano())&0xffffffff | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// StreamID returns the stream id the client announces in its handshake.
func (c *Client) StreamID() string { return c.cfg.streamID }

// Err returns the first unrecoverable transport or daemon failure, or
// nil. Once set, every subsequent WriteEvents returns it. A stream that
// degraded to its fallback archive is not an error: see Fallback.
func (c *Client) Err() error {
	if p := c.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Resumes returns how many times the daemon answered the handshake by
// resuming the stream: a reconnect after a mid-stream sever, or a
// connect retried after the daemon had registered the stream but before
// its hello arrived. It equals the shard's StreamInfo.Resumes.
func (c *Client) Resumes() int64 { return c.resumes.Load() }

// GapBytes returns the size of the unresumable gap the client declared
// to the server (0 if the stream never gapped). A nonzero gap means
// the daemon's shard was sealed at its durable prefix and the bytes in
// between were lost remotely — they are still in the local fallback
// archive when one is configured.
func (c *Client) GapBytes() int64 { return c.gapBytes.Load() }

// Fallback reports the local spill, if the stream degraded to one:
// the fallback archive path, the archive byte offset of its first byte
// (0 means the file is a complete standalone archive; a larger offset
// means it continues the daemon shard's durable prefix), and the
// failure that caused the degradation.
func (c *Client) Fallback() (path string, startOffset int64, reason error, ok bool) {
	if !c.fellBack.Load() {
		return "", 0, nil, false
	}
	if p := c.fallbackWhy.Load(); p != nil {
		reason = *p
	}
	return c.cfg.fallbackPath, c.fallbackStart.Load(), reason, true
}

// fail latches the first error and releases every blocked producer.
func (c *Client) fail(err error) {
	if err == nil {
		return
	}
	c.err.CompareAndSwap(nil, &err)
	c.win.failLatch(err)
}

// terminal handles an unrecoverable remote failure: spill to the
// fallback archive when configured, else latch the error.
func (c *Client) terminal(reason error) {
	if c.cfg.fallbackPath == "" {
		c.fail(reason)
		return
	}
	start, err := c.win.beginSpill(c.cfg.fallbackPath)
	if err != nil {
		c.fail(errors.Join(reason, err))
		return
	}
	why := reason
	c.fallbackWhy.Store(&why)
	c.fallbackStart.Store(start)
	c.fellBack.Store(true)
}

// WriteEvents implements trace.EventSink. It waits for window space
// before encoding (backpressure); batches of different threads encode
// concurrently exactly as with a file sink.
func (c *Client) WriteEvents(thread int, events []trace.Event) error {
	if err := c.Err(); err != nil {
		return err
	}
	if err := c.win.admit(); err != nil {
		return err
	}
	return c.w.WriteEvents(thread, events)
}

// Close flushes the archive (sealing partial chunks and writing
// the footer index), sends the end-of-stream frame and waits for the
// daemon's seal acknowledgment (or seals the local fallback archive,
// if the stream degraded). It returns the first unrecoverable error of
// the whole stream's life — encode, transport, or daemon-side — and is
// idempotent. Events must not be written after Close.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		werr := c.w.Close()
		c.win.closeStream()
		<-c.done
		serr := c.win.finishSpill()
		c.closeErr = c.Err()
		if c.closeErr == nil && werr != nil {
			c.closeErr = werr
		}
		if c.closeErr == nil && serr != nil {
			c.closeErr = serr
		}
	})
	return c.closeErr
}

// transientError marks a failure of one connection attempt or one
// established connection — the class the reconnect loop may retry.
// Everything else (daemon-reported ingest failure, protocol
// violations, exhausted budgets, cancellation) is terminal.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(err error) error { return &transientError{err: err} }

func isTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// run is the background sender: it connects (with retry/backoff and
// budgets), performs the handshake, pumps the window to the connection,
// and survives severed connections by reconnecting and replaying from
// the server's durable offset. However it ends, it leaves the window
// empty: a closed Client holds none of its stream.
func (c *Client) run() {
	defer close(c.done)
	defer c.win.release()
	reconnects := 0
	for {
		conn, durable, resumed, err := c.connect(reconnects > 0)
		if err != nil {
			c.terminal(err)
			return
		}
		if resumed {
			c.resumes.Add(1)
		}
		if err := c.win.rewind(durable); err != nil {
			var ge *gapError
			if errors.As(err, &ge) {
				gap := ge.have - ge.durable
				c.gapBytes.Store(gap)
				c.declareGap(conn, gap)
			}
			_ = conn.Close()
			c.terminal(err)
			return
		}
		err = c.pump(conn)
		if err == nil {
			return
		}
		if !isTransient(err) || c.cfg.reconnectAttempts <= 0 {
			c.terminal(err)
			return
		}
		reconnects++
	}
}

// connect dials (with jittered doubling backoff, an attempt cap and an
// elapsed-time budget) and completes the handshake, returning the
// connection, the server's durable offset for this stream and whether
// the server resumed it.
func (c *Client) connect(reconnect bool) (net.Conn, int64, bool, error) {
	attempts, backoff, budget := c.cfg.dialAttempts, c.cfg.dialBackoff, DefaultDialBudget
	what := "connect"
	if reconnect {
		attempts, backoff, budget = c.cfg.reconnectAttempts, c.cfg.reconnectBackoff, c.cfg.reconnectBudget
		what = "reconnect"
	}
	if attempts < 1 {
		attempts = 1
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			d := jitterBackoff(backoff)
			backoff *= 2
			if !deadline.IsZero() {
				rem := time.Until(deadline)
				if rem <= 0 {
					break
				}
				if d > rem {
					d = rem
				}
			}
			time.Sleep(d)
		}
		conn, err := c.cfg.dial()
		if err != nil {
			lastErr = err
			continue
		}
		durable, status, err := c.handshake(conn)
		if err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		return conn, durable, status == helloResumed, nil
	}
	if lastErr == nil {
		lastErr = errors.New("budget exhausted before any attempt")
	}
	return nil, 0, false, fmt.Errorf("sink: %s: %w", what, lastErr)
}

// jitterBackoff spreads a backoff over [d/2, d), so a fleet of clients
// severed by one daemon crash does not redial in lockstep.
func jitterBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half))
}

// handshake writes the client handshake on conn and reads the server
// hello, returning the durable offset to resume from and the hello's
// status (helloNew or helloResumed).
func (c *Client) handshake(conn net.Conn) (int64, byte, error) {
	_ = conn.SetDeadline(time.Now().Add(DefaultAckTimeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	hs := make([]byte, 0, len(Magic)+1+2*binary.MaxVarintLen64+len(c.cfg.streamID))
	hs = append(hs, Magic...)
	hs = append(hs, ProtocolVersion)
	hs = binary.AppendUvarint(hs, uint64(len(c.cfg.streamID)))
	hs = append(hs, c.cfg.streamID...)
	hs = binary.AppendUvarint(hs, c.cfg.token)
	if _, err := conn.Write(hs); err != nil {
		return 0, 0, fmt.Errorf("handshake: %w", err)
	}
	// Read the hello byte by byte: nothing may be buffered past it,
	// the ack reader owns every later byte.
	cr := &connByteReader{c: conn}
	kind, err := cr.ReadByte()
	if err != nil {
		return 0, 0, fmt.Errorf("reading hello: %w", err)
	}
	switch kind {
	case frameHello:
		status, err := cr.ReadByte()
		if err != nil {
			return 0, 0, fmt.Errorf("reading hello: %w", err)
		}
		if status != helloNew && status != helloResumed {
			return 0, 0, fmt.Errorf("reading hello: unknown status %d", status)
		}
		durable, err := binary.ReadUvarint(cr)
		if err != nil {
			return 0, 0, fmt.Errorf("reading hello durable offset: %w", err)
		}
		return int64(durable), status, nil
	case ackByte:
		// The server refused with a final ack instead of a hello.
		status, err := cr.ReadByte()
		if err != nil {
			return 0, 0, fmt.Errorf("reading hello: %w", err)
		}
		return 0, 0, fmt.Errorf("daemon refused stream (status %d)", status)
	default:
		return 0, 0, fmt.Errorf("reading hello: unexpected frame %q", kind)
	}
}

// connByteReader reads single bytes off a net.Conn without buffering
// ahead.
type connByteReader struct {
	c net.Conn
	b [1]byte
}

func (r *connByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(r.c, r.b[:]); err != nil {
		return 0, err
	}
	return r.b[0], nil
}

// declareGap tells the server the client cannot resume: the shard is
// sealed at the durable prefix with an explicit counted gap. Best
// effort — the stream is lost either way.
func (c *Client) declareGap(conn net.Conn, gap int64) {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, frameGap)
	buf = binary.AppendUvarint(buf, uint64(gap))
	if _, err := conn.Write(buf); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Now().Add(DefaultAckTimeout))
	var ack [2]byte
	_, _ = io.ReadFull(conn, ack[:])
}

// connState is the sender's view of one established connection, shared
// with its ack-reader goroutine.
type connState struct {
	conn  net.Conn
	dead  chan struct{} // closed when the reader exits
	final chan byte     // the final ack status, buffered

	mu  sync.Mutex
	err error
}

func (cs *connState) setErr(err error) {
	cs.mu.Lock()
	if cs.err == nil {
		cs.err = err
	}
	cs.mu.Unlock()
}

func (cs *connState) getErr() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.err
}

// sendBatchBytes is the most the sender takes from the window at a time,
// the payload of one data frame (so at most MaxFramePayload).
const sendBatchBytes = 256 << 10

// pump drains the window into conn until the stream completes (nil) or
// the connection fails (transient error: the caller reconnects). It
// closes conn and returns only once the connection's ack reader has
// ended, so no ack of this connection can reach the window after the
// next one's rewind.
func (c *Client) pump(conn net.Conn) error {
	cs := &connState{conn: conn, dead: make(chan struct{}), final: make(chan byte, 1)}
	go c.readAcks(cs)
	defer func() {
		_ = conn.Close()
		<-cs.dead
	}()
	var (
		hdr   [1 + binary.MaxVarintLen64]byte
		parts = make([][]byte, 1, 8) // a data frame: its header, then its payload where it lies in the window
		bufs  net.Buffers            // parts, for WriteTo to consume
	)
	hdr[0] = frameData
	for {
		if err := cs.getErr(); err != nil {
			return err
		}
		var n int64
		var done, kicked bool
		parts, n, done, kicked = c.win.next(parts[:1], sendBatchBytes)
		if kicked {
			continue
		}
		if n > 0 {
			// One writev on a socket, the same bytes in sequence on any
			// other connection.
			parts[0] = hdr[:1+binary.PutUvarint(hdr[1:], uint64(n))]
			bufs = parts
			if _, err := bufs.WriteTo(conn); err != nil {
				return transient(fmt.Errorf("sink: send: %w", err))
			}
		}
		if done {
			break
		}
	}
	// The end-of-stream frame's dropped-event count is always 0: the
	// client drops nothing (the daemon still reads and records it).
	if _, err := conn.Write([]byte{frameEOS, 0}); err != nil {
		return transient(fmt.Errorf("sink: end of stream: %w", err))
	}
	timeout := time.NewTimer(DefaultAckTimeout)
	defer timeout.Stop()
	select {
	case status := <-cs.final:
		if status == ackOK {
			return nil
		}
		return fmt.Errorf("sink: daemon reported ingest failure (ack status %d)", status)
	case <-cs.dead:
		select {
		case status := <-cs.final:
			if status == ackOK {
				return nil
			}
			return fmt.Errorf("sink: daemon reported ingest failure (ack status %d)", status)
		default:
		}
		if err := cs.getErr(); err != nil {
			return err
		}
		return transient(errors.New("sink: connection closed before seal ack"))
	case <-timeout.C:
		return transient(errors.New("sink: timeout waiting for seal ack"))
	}
}

// readAcks consumes the server's side of a connection: durable
// acks feed the window (freeing producer space and replay history),
// the final ack ends the stream. Any exit closes cs.dead and kicks the
// sender awake so it notices promptly even while idle.
func (c *Client) readAcks(cs *connState) {
	defer func() {
		close(cs.dead)
		c.win.kick()
	}()
	br := bufio.NewReaderSize(cs.conn, 512)
	for {
		kind, err := br.ReadByte()
		if err != nil {
			cs.setErr(transient(fmt.Errorf("sink: connection lost: %w", err)))
			return
		}
		switch kind {
		case frameAck:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				cs.setErr(transient(fmt.Errorf("sink: reading durable ack: %w", err)))
				return
			}
			c.win.ack(int64(n))
		case ackByte:
			status, err := br.ReadByte()
			if err != nil {
				cs.setErr(transient(fmt.Errorf("sink: reading seal ack: %w", err)))
				return
			}
			cs.final <- status
			if status != ackOK {
				cs.setErr(fmt.Errorf("sink: daemon reported ingest failure (ack status %d)", status))
			}
			return
		default:
			cs.setErr(fmt.Errorf("sink: unexpected frame %q from server", kind))
			return
		}
	}
}
