package sink

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/otf2"
	"repro/internal/region"
)

// archiveMagic opens every archive; the byte after it is the format
// version.
const archiveMagic = "SPOTF2\x00"

// framesOf cuts payload into data frames of size bytes.
func framesOf(payload []byte, size int) []byte {
	var out []byte
	for len(payload) > 0 {
		part := payload[:min(size, len(payload))]
		out = append(out, frameData)
		out = binary.AppendUvarint(out, uint64(len(part)))
		out = append(out, part...)
		payload = payload[len(part):]
	}
	return out
}

// relayed is what a byte relay has to make of a client's frames: the
// payload of the data frames, in order, as far as it came — to the end
// of the stream (complete), or to the first thing that is not a frame, a
// length out of range, or the end of the bytes.
func relayed(frames []byte) (shard []byte, complete bool) {
	for len(frames) > 0 {
		kind := frames[0]
		n, k := binary.Uvarint(frames[1:])
		if k <= 0 {
			return shard, false
		}
		frames = frames[1+k:]
		switch {
		case kind == frameEOS:
			return shard, true
		case kind != frameData || n == 0 || n > MaxFramePayload:
			return shard, false
		}
		got := frames[:min(n, uint64(len(frames)))]
		shard = append(shard, got...)
		if frames = frames[len(got):]; uint64(len(got)) < n {
			return shard, false
		}
	}
	return shard, false
}

// FuzzServerFrames sends arbitrary bytes after a well-formed handshake
// with the fuzzed stream token into a server that ingests a second,
// well-behaved stream beside it. The server is a relay and nothing the
// bytes say may make it anything else: it does not panic, a length a
// frame declares allocates nothing before the bytes arrive, the fuzzed
// shard is exactly the payload that came and its StreamInfo says so, the
// neighbour's shard is what the neighbour sent, the journal parses, and
// a fresh server over the directory recovers both streams — cutting the
// fuzzed shard back to whole chunks, which the archive reader accepts
// whenever the payload was an archive's prefix, unless it opens with the
// header of another format version.
func FuzzServerFrames(f *testing.F) {
	archive := archiveOf(f, synthBatches(region.NewRegistry(), 2, 3, 40))
	eos := []byte{frameEOS, 0}
	for _, token := range []uint64{0x55, 1 << 63} { // a one-byte and a ten-byte uvarint
		f.Add(token, append(framesOf(archive, 1000), eos...))                   // a real stream
		f.Add(token, framesOf(archive, 7)[:len(archive)/2])                     // cut mid-frame
		f.Add(token, append(framesOf(archive, len(archive)), frameEOS, 5, 'F')) // drops reported, bytes after the end
		f.Add(token, append(framesOf(archive[:100], 64), frameGap, 9))          // a gap declared
		f.Add(token, []byte{frameData, 0x80, 0x80, 0x80, 0x02, 1, 2, 3})        // 4 MiB declared, three bytes sent
		f.Add(token, []byte{frameData, 0x81, 0x80, 0x80, 0x02})                 // a byte over the limit
		f.Add(token, []byte{frameData, 0})                                      // an empty frame
		f.Add(token, []byte{frameData, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		f.Add(token, []byte{'X', 1, 1})
		f.Add(token, []byte{frameEOS})
		f.Add(token, []byte{})
	}
	f.Add(uint64(0x55), framesOf([]byte(archiveMagic+"\x05"), 8)) // an archive of a version this build does not read
	// The committed session's frames, after its handshake.
	session := readTestdata(f, sessionFile)
	f.Add(uint64(0xfeed), session[bytes.IndexByte(session, frameData):])
	neighbourBatches := synthBatches(region.NewRegistry(), 1, 4, 25)
	neighbourShard := archiveOf(f, neighbourBatches)

	f.Fuzz(func(t *testing.T, token uint64, frames []byte) {
		dir := t.TempDir()
		srv, err := NewServer(dir)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() (net.Conn, <-chan struct{}) {
			c1, c2 := net.Pipe()
			served := make(chan struct{})
			go func() {
				defer close(served)
				_ = srv.ServeConn(c2)
			}()
			return c1, served
		}
		nconn, neighbourServed := serve()
		neighbour, err := NewClientConn(nconn, WithStreamID("neighbour"))
		if err != nil {
			t.Fatal(err)
		}
		half := neighbourBatches[0][:2]
		for _, evs := range half {
			if err := neighbour.WriteEvents(0, evs); err != nil {
				t.Fatal(err)
			}
		}

		// The fuzzed connection from its first byte to the server's leaving
		// it, the neighbour open and idle meanwhile: what is allocated now
		// is allocated for this connection.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		conn, served := serve()
		drained := make(chan struct{})
		go func() { // hello, durable acks, the final ack
			defer close(drained)
			_, _ = io.Copy(io.Discard, conn)
		}()
		hs := append([]byte(Magic), ProtocolV2, byte(len("fuzzed")))
		hs = append(hs, "fuzzed"...)
		hs = binary.AppendUvarint(hs, max(token, 1)) // a zero token is refused
		if _, err := conn.Write(hs); err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Write(frames) // the server hangs up on what it cannot take
		_ = conn.Close()
		<-served
		<-drained
		runtime.ReadMemStats(&after)
		// Two 64 KiB buffers, the shard file and the journal twice: a
		// quarter of the largest length a frame may declare bounds them
		// with room to spare.
		if grown := after.TotalAlloc - before.TotalAlloc; grown > MaxFramePayload/4 {
			t.Errorf("%d bytes of frames made the server allocate %d", len(frames), grown)
		}

		for _, evs := range neighbourBatches[0][len(half):] {
			if err := neighbour.WriteEvents(0, evs); err != nil {
				t.Fatal(err)
			}
		}
		if err := neighbour.Close(); err != nil {
			t.Fatalf("the neighbour's Close = %v", err)
		}
		<-neighbourServed
		if err := srv.Close(); err != nil {
			t.Fatalf("a client's bytes latched a server error: %v", err)
		}

		want, complete := relayed(frames)
		infos := map[string]StreamInfo{}
		for _, st := range srv.Streams() {
			infos[st.ID] = st
		}
		st := infos["fuzzed"]
		fuzzedPath := filepath.Join(dir, shardFileName("fuzzed"))
		got, err := os.ReadFile(fuzzedPath)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("the fuzzed shard holds %d bytes (%v), the frames carried %d", len(got), err, len(want))
		}
		if st.Bytes != int64(len(want)) || st.Complete != complete {
			t.Fatalf("fuzzed stream %+v, want %d bytes, complete %v", st, len(want), complete)
		}
		neighbourPath := filepath.Join(dir, shardFileName("neighbour"))
		if got, err := os.ReadFile(neighbourPath); err != nil || !bytes.Equal(got, neighbourShard) || !infos["neighbour"].Complete {
			t.Fatalf("the neighbour's shard holds %d bytes (%v), it sent %d: %+v", len(got), err, len(neighbourShard), infos["neighbour"])
		}

		data, err := os.ReadFile(filepath.Join(dir, journalFileName))
		var doc journalDoc
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil || doc.Version != journalVersion || len(doc.Streams) != 2 {
			t.Fatalf("journal %q: %v", data, err)
		}
		again, err := NewServer(dir)
		if err != nil || again.Recovered() != 2 {
			t.Fatalf("a fresh server over the directory: %v, %d streams recovered", err, again.Recovered())
		}
		if got, err := os.ReadFile(neighbourPath); err != nil || !bytes.Equal(got, neighbourShard) {
			t.Fatalf("recovery left the neighbour's shard at %d bytes (%v)", len(got), err)
		}
		kept, err := os.ReadFile(fuzzedPath)
		if err != nil || !bytes.HasPrefix(want, kept) {
			t.Fatalf("recovery left a fuzzed shard of %d bytes (%v) that is no prefix of what came", len(kept), err)
		}
		// A shard that opens with the header of a format version this build
		// does not read is left as it came, however much of it is intact.
		otherVersion := len(kept) > len(archiveMagic) && string(kept[:len(archiveMagic)]) == archiveMagic && kept[len(archiveMagic)] != otf2.FormatVersion
		if intact, err := otf2.IntactPrefixSize(fuzzedPath); (err != nil || intact != int64(len(kept))) && !(otherVersion && err != nil && len(kept) == len(want)) {
			t.Fatalf("the recovered shard has %d bytes, %d of them intact (%v)", len(kept), intact, err)
		}
		// Not every shard of whole chunks is an archive — the server never
		// looks inside one — but the reader must take or refuse it without
		// panicking, and take it if an archive is what was sent.
		if _, _, _, err := otf2.LoadFile(fuzzedPath, region.NewRegistry(), otf2.Query{}, 1); err != nil && len(kept) > 0 && bytes.HasPrefix(archive, kept) {
			t.Fatalf("the recovered shard is a prefix of an archive and does not read: %v", err)
		}
	})
}
