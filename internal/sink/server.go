package sink

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Server defaults.
const (
	// DefaultHandshakeTimeout bounds how long a fresh connection may
	// take to deliver its handshake (and the server its hello): a
	// connected-but-silent client cannot pin a stream goroutine.
	DefaultHandshakeTimeout = 10 * time.Second
	// DefaultAckIntervalBytes is how much payload the server ingests
	// between durable acks: each ack is preceded by a shard flush, so
	// it also bounds the flush lag a daemon crash can lose.
	DefaultAckIntervalBytes = 256 << 10
)

// StreamInfo describes one ingested stream — the material a fleet
// experiment's meta.json records per shard.
type StreamInfo struct {
	// ID is the stream id after collision uniquification.
	ID string
	// File is the shard file name within the server directory.
	File string
	// Bytes counts the archive payload durable in the shard file.
	Bytes int64
	// Frames counts data frames received, across all connections of
	// the stream (a resumed stream re-sends frames, so this may exceed
	// what a single pass over the payload would need).
	Frames int64
	// DroppedEvents is the client-reported backpressure drop count from
	// the end-of-stream frame.
	DroppedEvents int64
	// GapBytes counts archive bytes lost between the durable prefix
	// and the client's resume point when the client declared an
	// unresumable gap (the shard was sealed at the prefix). 0 means no
	// gap.
	GapBytes int64
	// Resumes counts reconnections that resumed this stream.
	Resumes int64
	// Complete reports a cleanly ended stream (end-of-stream frame
	// seen, shard flushed and synced). A false value means the shard
	// holds the intact prefix of a severed, gapped or failed stream —
	// salvageable through the otf2 readers' ErrTruncated contract.
	Complete bool
	// Sealed reports a terminal stream: completed, gap-sealed, or
	// failed. A false value means the stream is severed but resumable —
	// the client may reconnect and continue it.
	Sealed bool
	// Err describes why an incomplete stream ended (or is suspended),
	// "" otherwise.
	Err string
}

// ServerOption configures a Server.
type ServerOption func(*serverConfig)

type serverConfig struct {
	logf             func(format string, args ...any)
	onDone           func(StreamInfo)
	handshakeTimeout time.Duration
	idleTimeout      time.Duration
	ackEvery         int
	wrapShard        func(id string, w io.Writer) io.Writer
}

// WithLog installs a log callback for per-stream lifecycle messages.
func WithLog(f func(format string, args ...any)) ServerOption {
	return func(c *serverConfig) { c.logf = f }
}

// WithStreamDone installs a callback invoked after each stream ends
// terminally — sealed complete, sealed after a gap, or failed — with
// its final StreamInfo. A severed-but-resumable stream does not fire
// the callback until it resumes and ends. Callbacks run on the
// stream's goroutine, one per stream.
func WithStreamDone(f func(StreamInfo)) ServerOption {
	return func(c *serverConfig) { c.onDone = f }
}

// WithHandshakeTimeout bounds how long a new connection may take to
// complete its handshake (default DefaultHandshakeTimeout; <= 0
// disables the deadline).
func WithHandshakeTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.handshakeTimeout = d }
}

// WithIdleTimeout seals a stream as severed when no frame arrives for
// d — a wedged client cannot hold its shard open forever, and its
// neighbors are untouched. Default 0: no idle deadline. A client
// severed this way may still reconnect and resume.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.idleTimeout = d }
}

// WithAckInterval sets how many payload bytes the server ingests
// between durable acks (default DefaultAckIntervalBytes). Each ack is
// preceded by a shard flush; smaller intervals shrink both the replay
// a reconnect needs and the bytes a daemon crash can lose, at the cost
// of more flushes.
func WithAckInterval(n int) ServerOption {
	return func(c *serverConfig) {
		if n > 0 {
			c.ackEvery = n
		}
	}
}

// WithShardWriterWrap interposes f between the server's buffered shard
// writer and the shard file — the fault-injection seam (tests wrap
// shards with ENOSPC or EIO injectors). f is called once per
// connection with the stream id; syncs still go to the file itself.
func WithShardWriterWrap(f func(id string, w io.Writer) io.Writer) ServerOption {
	return func(c *serverConfig) { c.wrapShard = f }
}

// streamState is the server's cross-connection state for one stream:
// identity (token), progress (durable bytes flushed to the shard), and
// lifecycle (active connection, terminal seal).
type streamState struct {
	info     *StreamInfo
	token    uint64
	durable  int64
	sealed   bool
	active   bool
	conn     net.Conn
	connDone chan struct{}
}

// Server is the daemon side of the measurement service: it accepts many
// concurrent client streams and appends each one's frame payloads to
// its own shard file, "trace-<id>.otf2", in the server directory. The
// ingest hot path is per-stream — one goroutine, one file, no shared
// lock; streams touch shared state only at handshake (id registration),
// durable-ack flushes and completion. A client crash severs its stream
// and keeps every intact byte received, leaving the other shards
// untouched; a client may reconnect with its stream token and
// resume at the durable offset. Stream identity and status are
// journaled (sink-journal.json, written via atomic rename), so a
// server constructed over an existing directory recovers: shards are
// truncated to their intact prefix and severed streams await resume.
type Server struct {
	dir string
	cfg serverConfig

	// err latches the first server-side ingest failure (shard file
	// I/O), the same pattern the archive writer uses. A severed client
	// connection is an expected condition, not a server error.
	err atomic.Pointer[error]

	closed atomic.Bool
	wg     sync.WaitGroup

	mu        sync.Mutex
	ln        net.Listener
	used      map[string]int
	streams   []*StreamInfo
	states    map[string]*streamState
	conns     map[net.Conn]struct{}
	recovered int
}

// NewServer creates a server ingesting into dir (created if needed).
// If dir holds the journal of a previous server (a daemon restarting
// over its experiment directory), the stream table is recovered from
// it: every shard is truncated to its intact archive prefix (the
// LoadFile cut point), sealed streams keep their status, and
// severed streams await resume at the recovered durable offset.
func NewServer(dir string, opts ...ServerOption) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	s := &Server{
		dir:    dir,
		used:   make(map[string]int),
		states: make(map[string]*streamState),
		conns:  make(map[net.Conn]struct{}),
	}
	s.cfg.handshakeTimeout = DefaultHandshakeTimeout
	s.cfg.ackEvery = DefaultAckIntervalBytes
	for _, opt := range opts {
		opt(&s.cfg)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the server's shard directory.
func (s *Server) Dir() string { return s.dir }

// Recovered returns how many streams were recovered from a previous
// server's journal in this directory.
func (s *Server) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Err returns the first server-side ingest failure (shard file I/O),
// or nil.
func (s *Server) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

func (s *Server) setErr(err error) {
	if err != nil {
		s.err.CompareAndSwap(nil, &err)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.logf != nil {
		s.cfg.logf(format, args...)
	}
}

// Serve accepts connections on ln until Close/Shutdown, one goroutine
// per stream. It returns nil after Close; any other accept failure is
// returned as-is.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	done := s.closed.Load()
	s.mu.Unlock()
	// A Close/Shutdown that ran before Serve was scheduled found no
	// listener to close — honor it here or Accept would block forever.
	if done {
		_ = ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Register the connection under the same lock Shutdown's
		// force-sever sweep takes, and refuse connections that raced a
		// shutdown: a conn accepted but not yet in s.conns would
		// otherwise dodge the sweep and pin wg.Wait forever. The
		// WaitGroup is counted up under the lock too: Close and Shutdown
		// set closed before they take it, so an Add here happens before
		// their Wait, or does not happen — never concurrently with a
		// Wait on a zero count, which is a race.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			_ = s.ServeConn(conn)
		}()
	}
}

// Close stops accepting, waits for in-flight streams to finish and
// returns Err. It does not write the fleet meta.json — the daemon does
// that, from Streams, once Close returns.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	s.wg.Wait()
	s.mu.Lock()
	s.writeJournalLocked()
	s.mu.Unlock()
	return s.Err()
}

// Shutdown is the graceful drain: it stops accepting, waits up to
// grace for in-flight streams to end on their own, then force-severs
// the remaining connections — their shards keep every flushed byte and
// stay resumable by a future server over the same directory. grace <=
// 0 severs immediately.
func (s *Server) Shutdown(grace time.Duration) error {
	s.closed.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
		}
	}
	select {
	case <-done:
	default:
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.writeJournalLocked()
	s.mu.Unlock()
	return s.Err()
}

// Streams returns a snapshot of every stream seen so far (including
// recovered ones), in arrival order.
func (s *Server) Streams() []StreamInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamInfo, len(s.streams))
	for i, st := range s.streams {
		out[i] = *st
	}
	return out
}

// register claims a shard for id or — when the client presents the
// token of a known stream — resumes it, preempting a half-dead
// previous connection if one is still draining. Fresh collisions are
// uniquified ("bots", "bots.2", "bots.3", ...): two processes
// announcing the same id must not interleave into one archive.
func (s *Server) register(conn net.Conn, id string, token uint64) (st *streamState, resumed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		old := s.states[id]
		if old == nil || old.token != token {
			break
		}
		if !old.active {
			old.active = true
			old.conn = conn
			old.connDone = make(chan struct{})
			old.info.Resumes++
			s.writeJournalLocked()
			return old, true
		}
		// The previous connection is still draining (the server may
		// not have noticed the sever yet): preempt it and wait for
		// its goroutine to finalize before resuming.
		c, prev := old.conn, old.connDone
		s.mu.Unlock()
		if c != nil {
			_ = c.Close()
		}
		<-prev
		s.mu.Lock()
	}
	n := s.used[id]
	s.used[id] = n + 1
	if n > 0 {
		id = fmt.Sprintf("%s.%d", id, n+1)
		// The suffixed name could itself have been claimed explicitly.
		for s.used[id] > 0 {
			n++
			id = fmt.Sprintf("%s.%d", id, n+1)
		}
		s.used[id] = 1
	}
	st = &streamState{
		info:     &StreamInfo{ID: id, File: shardFileName(id)},
		token:    token,
		active:   true,
		conn:     conn,
		connDone: make(chan struct{}),
	}
	s.states[id] = st
	s.streams = append(s.streams, st.info)
	s.writeJournalLocked()
	return st, false
}

// shardFileName maps a stream id to its shard file name.
func shardFileName(id string) string { return "trace-" + id + ".otf2" }

// ServeConn ingests one client connection on conn (exported so tests
// and embedders can drive the server over net.Pipe without a
// listener). It closes conn, updates the stream's StreamInfo and — if
// the stream ended terminally — invokes the stream-done callback. The
// returned error describes a protocol or I/O failure of this
// connection; a clean end-of-stream returns nil.
func (s *Server) ServeConn(conn net.Conn) error {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	st, sealedNow, err := s.ingest(conn)
	if st == nil {
		s.logf("connection rejected: %v", err)
		return err
	}
	s.mu.Lock()
	info := *st.info
	sealed := st.sealed
	s.mu.Unlock()
	switch {
	case info.Complete:
		s.logf("stream %s: sealed %s (%d bytes, %d frames, %d resumes, %d dropped events)",
			info.ID, info.File, info.Bytes, info.Frames, info.Resumes, info.DroppedEvents)
	case sealed && info.GapBytes > 0:
		s.logf("stream %s: sealed with gap of %d bytes at durable prefix %d (%v)",
			info.ID, info.GapBytes, info.Bytes, err)
	case sealed:
		s.logf("stream %s: failed after %d bytes (%v); shard prefix kept", info.ID, info.Bytes, err)
	default:
		s.logf("stream %s: severed after %d bytes (%v); shard prefix kept, resumable", info.ID, info.Bytes, err)
	}
	if sealedNow && s.cfg.onDone != nil {
		s.cfg.onDone(info)
	}
	return err
}

// errTrackWriter distinguishes shard-write failures (disk) from
// connection failures inside the ingest copy loop.
type errTrackWriter struct {
	w   io.Writer
	err error
}

func (t *errTrackWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	if err != nil && t.err == nil {
		t.err = err
	}
	return n, err
}

// ingest runs one connection's protocol. The returned streamState is
// nil if the handshake never established a stream (nothing was
// written); sealedNow reports that this connection transitioned the
// stream to its terminal state (the stream-done callback fires exactly
// once). On a severed connection every intact byte received is flushed
// to the shard, so the file is exactly the archive prefix the client
// got out — the reader's truncation salvage applies, and the stream
// stays resumable at that prefix.
func (s *Server) ingest(conn net.Conn) (st *streamState, sealedNow bool, err error) {
	br := bufio.NewReaderSize(conn, 64<<10)
	if t := s.cfg.handshakeTimeout; t > 0 {
		_ = conn.SetDeadline(time.Now().Add(t))
	}
	id, token, err := readHandshake(br)
	if err != nil {
		return nil, false, err
	}
	st, resumed := s.register(conn, id, token)
	connDone := st.connDone
	s.mu.Lock()
	prevSealed := st.sealed
	s.mu.Unlock()

	// A sealed-but-incomplete stream (disk failure, gap) has no future:
	// refuse the resume with a failure ack instead of a hello, so the
	// client degrades instead of appending to a dead shard. (A sealed
	// *complete* stream is resumable: the client's seal ack was lost,
	// it replays nothing and the server re-acks — an idempotent seal.)
	if resumed && prevSealed {
		s.mu.Lock()
		refuse := !st.info.Complete
		if refuse {
			st.active = false
			st.conn = nil
		}
		s.mu.Unlock()
		if refuse {
			_, _ = conn.Write([]byte{ackByte, ackFailed})
			close(connDone)
			return st, false, fmt.Errorf("sink: refused resume of sealed stream %s", st.info.ID)
		}
	}

	var (
		f        *os.File
		dw       *errTrackWriter
		bw       *bufio.Writer
		received = st.durable
		lastAck  = st.durable
		frames   int64
		dropped  int64
		complete bool
		gapSeal  bool
		gapBytes int64
	)
	path := filepath.Join(s.dir, st.info.File)
	if resumed {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err == nil {
			if fi, serr := f.Stat(); serr != nil {
				err = serr
			} else if fi.Size() != st.durable {
				err = fmt.Errorf("shard is %d bytes, expected %d durable", fi.Size(), st.durable)
			}
		}
		if err != nil {
			err = fmt.Errorf("sink: reopening shard: %w", err)
		}
	} else {
		if f, err = os.Create(path); err != nil {
			err = fmt.Errorf("sink: creating shard: %w", err)
		}
	}

	serr := err
	diskFailed := err != nil
	if serr == nil {
		hello := make([]byte, 0, 2+binary.MaxVarintLen64)
		status := helloNew
		if resumed {
			status = helloResumed
		}
		hello = append(hello, frameHello, status)
		hello = binary.AppendUvarint(hello, uint64(st.durable))
		if _, werr := conn.Write(hello); werr != nil {
			serr = fmt.Errorf("sink: writing hello: %w", werr)
		}
	}
	if serr == nil {
		_ = conn.SetDeadline(time.Time{})
		var w io.Writer = f
		if s.cfg.wrapShard != nil {
			w = s.cfg.wrapShard(st.info.ID, w)
		}
		dw = &errTrackWriter{w: w}
		bw = bufio.NewWriterSize(dw, 64<<10)
		serr = func() error {
			for {
				if t := s.cfg.idleTimeout; t > 0 {
					_ = conn.SetReadDeadline(time.Now().Add(t))
				}
				kind, err := br.ReadByte()
				if err != nil {
					return fmt.Errorf("sink: reading frame: %w", err)
				}
				switch kind {
				case frameData:
					n, err := binary.ReadUvarint(br)
					if err != nil {
						return fmt.Errorf("sink: reading frame length: %w", err)
					}
					if n == 0 || n > MaxFramePayload {
						return fmt.Errorf("sink: frame of %d bytes out of range (1..%d)", n, MaxFramePayload)
					}
					m, err := io.CopyN(bw, br, int64(n))
					received += m
					if err != nil {
						return fmt.Errorf("sink: copying frame payload: %w", err)
					}
					frames++
					if received-lastAck >= int64(s.cfg.ackEvery) {
						if err := bw.Flush(); err != nil {
							return fmt.Errorf("sink: flushing shard: %w", err)
						}
						s.mu.Lock()
						st.durable = received
						s.mu.Unlock()
						ack := make([]byte, 0, 1+binary.MaxVarintLen64)
						ack = append(ack, frameAck)
						ack = binary.AppendUvarint(ack, uint64(received))
						if _, err := conn.Write(ack); err != nil {
							return fmt.Errorf("sink: writing durable ack: %w", err)
						}
						lastAck = received
					}
				case frameEOS:
					d, err := binary.ReadUvarint(br)
					if err != nil {
						return fmt.Errorf("sink: reading end-of-stream: %w", err)
					}
					dropped = int64(d)
					complete = true
					return nil
				case frameGap:
					g, err := binary.ReadUvarint(br)
					if err != nil {
						return fmt.Errorf("sink: reading gap: %w", err)
					}
					gapBytes = int64(g)
					gapSeal = true
					return fmt.Errorf("sink: client declared unresumable gap of %d bytes", g)
				default:
					return fmt.Errorf("sink: unknown frame kind %q", kind)
				}
			}
		}()
	}

	// Flush whatever arrived — on the severed path this preserves the
	// salvageable (and resumable) prefix, on the clean path it
	// completes the shard.
	if bw != nil {
		ferr := bw.Flush()
		if ferr == nil {
			s.mu.Lock()
			st.durable = received
			s.mu.Unlock()
			if complete || gapSeal {
				ferr = f.Sync()
			}
		}
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil || dw.err != nil {
			diskFailed = true
			if dw.err != nil && ferr == nil {
				ferr = dw.err
			}
			ferr = fmt.Errorf("sink: writing shard %s: %w", st.info.File, ferr)
			s.setErr(ferr)
			if serr == nil {
				serr = ferr
			}
			complete = false
		}
	} else if f != nil {
		_ = f.Close()
	}

	// Classify the end: complete and gap-sealed streams are terminal;
	// disk failures are terminal (resuming onto a failing shard has no
	// future) and the client is told immediately; a plain connection
	// sever leaves the stream resumable.
	sealed := complete || gapSeal || diskFailed || prevSealed
	s.mu.Lock()
	if prevSealed {
		// The stream was already terminal (a re-sealing reconnect whose
		// ack got lost): its recorded state stands, whatever happened to
		// this connection.
	} else {
		st.info.Bytes = st.durable
		st.info.Frames += frames
		if complete {
			st.info.DroppedEvents = dropped
			st.info.Complete = true
			st.info.Err = ""
		} else {
			st.info.Complete = false
			if serr != nil {
				st.info.Err = serr.Error()
			}
		}
		if gapSeal {
			st.info.GapBytes = gapBytes
		}
		st.info.Sealed = sealed
		st.sealed = sealed
	}
	st.active = false
	st.conn = nil
	s.writeJournalLocked()
	s.mu.Unlock()
	close(connDone)

	switch {
	case complete:
		// Acknowledge the seal so the client's Close can surface
		// daemon-side failures; a failed ack write is the client's
		// problem to observe, the shard itself is already safe.
		_, _ = conn.Write([]byte{ackByte, ackOK})
	case gapSeal && !diskFailed:
		_, _ = conn.Write([]byte{ackByte, ackGapSealed})
	case diskFailed:
		// Tell a still-live client now, so it can degrade without
		// waiting for its own end of stream.
		_, _ = conn.Write([]byte{ackByte, ackFailed})
	}
	return st, sealed && !prevSealed, serr
}

// readHandshake validates the magic, version, stream id and token.
func readHandshake(br *bufio.Reader) (id string, token uint64, err error) {
	var hdr [len(Magic) + 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", 0, fmt.Errorf("sink: reading handshake: %w", err)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return "", 0, fmt.Errorf("sink: bad handshake magic %q", hdr[:len(Magic)])
	}
	if proto := hdr[len(Magic)]; proto != ProtocolV2 {
		return "", 0, fmt.Errorf("sink: protocol version %d not supported (this build speaks %d)", proto, ProtocolV2)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, fmt.Errorf("sink: reading stream id: %w", err)
	}
	if n == 0 || n > MaxStreamIDLen {
		return "", 0, fmt.Errorf("sink: stream id of %d bytes out of range (1..%d)", n, MaxStreamIDLen)
	}
	idb := make([]byte, n)
	if _, err := io.ReadFull(br, idb); err != nil {
		return "", 0, fmt.Errorf("sink: reading stream id: %w", err)
	}
	if !ValidStreamID(string(idb)) {
		return "", 0, fmt.Errorf("sink: invalid stream id %q", idb)
	}
	if token, err = binary.ReadUvarint(br); err != nil {
		return "", 0, fmt.Errorf("sink: reading stream token: %w", err)
	}
	if token == 0 {
		return "", 0, fmt.Errorf("sink: zero stream token")
	}
	return string(idb), token, nil
}
