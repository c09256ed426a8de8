// Package sink implements the multi-process measurement service: a
// network transport that carries already-encoded trace archives from
// instrumented processes to a central daemon, the way Score-P's
// measurement system funnels one OTF2 location group per rank into a
// shared experiment directory.
//
// The split of work follows the archive format's strengths. A Client is
// a trace.EventSink: events are encoded locally through the existing
// per-thread otf2.Writer path (concurrent, allocation-free in steady
// state) and the resulting archive byte stream is cut into frames and
// shipped over a unix or TCP socket by a background sender. The Server
// is a byte relay: it never decodes events, it appends each stream's
// frame payloads to its own shard file — so ingest of N streams shares
// no lock beyond registration, and a severed connection leaves exactly
// the archive prefix the sender got out, which the otf2 readers already
// salvage under the ErrTruncated contract.
//
// Streams are resumable: the server acknowledges the durable
// (flushed-to-shard) byte count, the client keeps a bounded replay window
// of recent archive bytes, and a severed connection is survived by
// reconnecting and replaying from the server's durable offset —
// producing a shard bit-identical to an undisturbed run whenever the
// window covers the loss. See the package doc of the repository root
// (doc.go, "Remote tracing" and "Fault tolerance") for the byte-level
// specification; the constants below define the frame alphabet.
//
// # Wire protocol
//
// All integers are unsigned LEB128 varints ("uvarint") unless noted.
// One connection carries one attempt at one stream. The client speaks
// first:
//
//	session   := handshake frame* (eos | gap)
//	handshake := "SPSINK\x00" 0x02 uvarint(len(id)) id uvarint(token)
//	frame     := 'F' uvarint(n) payload[n]     1 <= n <= 4 MiB
//	eos       := 'Z' uvarint(droppedEvents)
//	gap       := 'G' uvarint(gapBytes)
//
// The byte after the magic is the protocol version, 2; the server
// refuses every other. The stream id names the shard
// ("trace-<id>.otf2"); it is 1..128 bytes of [A-Za-z0-9._-]. The token
// is a client-chosen random 64-bit value other than 0 identifying the
// stream across connections: a reconnect presenting the same (id, token)
// resumes the stream, a different token is a distinct stream and the id
// is uniquified. The concatenated frame payloads are exactly one spotf2
// archive byte stream (see package otf2); on a resumed connection the
// payload continues at the durable offset the server announced.
//
// The server speaks immediately after a valid handshake, and again as
// ingest progresses:
//
//	hello := 'H' status(1 byte) uvarint(durable)   0 = new, 1 = resumed
//	ack   := 'K' uvarint(durable)
//
// durable counts archive bytes flushed to the shard file; the client
// must (re)send payload from exactly that offset and may discard
// replay history below it. 'K' acks are sent after flushes, at least
// every DefaultAckIntervalBytes of payload.
//
// After eos the server flushes and syncs the shard and answers one
// final ack, which the client's Close waits for so daemon-side write
// failures surface at the producer:
//
//	final := 'A' status(1 byte)    0 = sealed, 1 = failed, 2 = sealed after gap
//
// The server may also send the final ack with status 1 mid-stream,
// when its shard write failed (e.g. disk full): the stream is over,
// the shard keeps the flushed prefix, and the client reacts without
// waiting for its own end of stream. The gap frame is the client's
// declaration that it cannot resume (its replay window no longer
// covers the server's durable offset): the server seals the shard at
// the durable prefix, records the counted gap, answers status 2 and
// the stream ends — archive bytes are never appended after a hole,
// because timestamp deltas chain across chunks and a hole would
// silently corrupt every later time.
//
// A connection that dies before eos leaves the shard at its flushed
// prefix, and the stream stays resumable until the server shuts down.
// Unknown frame kinds are a protocol error, not skipped — unlike the
// archive format there is no forward-compatibility promise inside one
// protocol version.
package sink

import (
	"fmt"
	"strings"
)

// Protocol constants. Magic deliberately differs from the archive magic
// ("SPOTF2\x00"): connecting a sink client to a file, or feeding an
// archive to the daemon port, fails the handshake instead of producing
// a half-plausible byte soup.
const (
	// Magic opens the client handshake.
	Magic = "SPSINK\x00"
	// ProtocolV2 is the protocol of resumable streams: the stream token,
	// the server hello, durable-offset acks and the gap frame. It is the
	// one version the Server accepts.
	ProtocolV2 = 2
	// ProtocolVersion is the version the Client speaks.
	ProtocolVersion = ProtocolV2

	frameData  byte = 'F'
	frameEOS   byte = 'Z'
	frameGap   byte = 'G'
	frameHello byte = 'H'
	frameAck   byte = 'K'
	ackByte    byte = 'A'

	ackOK        byte = 0
	ackFailed    byte = 1
	ackGapSealed byte = 2

	helloNew     byte = 0
	helloResumed byte = 1

	// MaxStreamIDLen bounds the handshake's stream id.
	MaxStreamIDLen = 128
	// MaxFramePayload bounds one data frame's payload. The client
	// splits larger writes; the server rejects larger declarations
	// before allocating or copying anything.
	MaxFramePayload = 4 << 20
)

// ValidStreamID reports whether id is a legal wire stream id: 1..128
// bytes of letters, digits, '.', '_' and '-'. The charset keeps the id
// safe to embed in a shard file name on every platform (no separators,
// no shell metacharacters) and cannot spell a path traversal.
func ValidStreamID(id string) bool {
	if len(id) == 0 || len(id) > MaxStreamIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// SplitAddr parses a sink address into a net.Dial/net.Listen pair.
// Accepted forms:
//
//	unix:///path/to.sock  (also unix:/path/to.sock)
//	tcp://host:port
//	host:port             (bare: tcp)
//	/path/to.sock         (bare absolute path: unix)
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		p := strings.TrimPrefix(addr, "unix:")
		p = strings.TrimPrefix(p, "//")
		if p == "" {
			return "", "", fmt.Errorf("sink: address %q names no socket path", addr)
		}
		return "unix", p, nil
	case strings.HasPrefix(addr, "tcp:"):
		p := strings.TrimPrefix(addr, "tcp:")
		p = strings.TrimPrefix(p, "//")
		if p == "" {
			return "", "", fmt.Errorf("sink: address %q names no host:port", addr)
		}
		return "tcp", p, nil
	case strings.Contains(addr, "://"):
		return "", "", fmt.Errorf("sink: unsupported scheme in address %q (want unix:// or tcp://)", addr)
	case strings.HasPrefix(addr, "/") || strings.HasPrefix(addr, "./"):
		return "unix", addr, nil
	case strings.Contains(addr, ":"):
		return "tcp", addr, nil
	case addr == "":
		return "", "", fmt.Errorf("sink: empty address")
	default:
		return "", "", fmt.Errorf("sink: cannot tell unix path from host in address %q (use unix:// or tcp://)", addr)
	}
}
