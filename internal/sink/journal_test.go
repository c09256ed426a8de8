package sink

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/otf2"
	"repro/internal/region"
)

// journalOf is a journal document with one stream entry per file name.
func journalOf(t testing.TB, files ...string) []byte {
	t.Helper()
	doc := journalDoc{Version: journalVersion}
	for i, f := range files {
		doc.Streams = append(doc.Streams, journalEntry{ID: "s" + string(rune('a'+i)), File: f, Bytes: 1 << 20})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recoveryDir lays out what a recovery may find around a server
// directory: base/exp is the directory, holding a shard cut mid-chunk
// (trace-a.otf2, which recovery truncates to its intact prefix), a
// complete shard of a format version this build does not read
// (trace-v5.otf2) and the shards of the committed daemon directory
// (daemonDir), and beside it lie files that are no business of the
// server's — a text file and an archive cut like the shard. It returns the
// server directory and the bytes of every file under base as they were.
func recoveryDir(t testing.TB) (string, map[string][]byte) {
	t.Helper()
	base := t.TempDir()
	dir := filepath.Join(base, "exp")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	w := otf2.NewWriter(&archive, otf2.WithChunkBytes(1024))
	for th, batches := range synthBatches(region.NewRegistry(), 1, 4, 100) {
		for _, evs := range batches {
			w.WriteEvents(th, evs) //nolint:errcheck // latched: Close returns it
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cut := archive.Bytes()[:archive.Len()-100]
	newer, err := os.ReadFile(filepath.Join("..", "otf2", "testdata", "v4.otf2"))
	if err != nil {
		t.Fatal(err)
	}
	newer[len(archiveMagic)] = 5 // a complete archive as a newer client would stream it
	files := map[string][]byte{
		"victim.txt":         []byte("not an archive\n"),
		"victim.otf2":        cut,
		"exp/trace-a.otf2":   cut,
		"exp/trace-v5.otf2":  newer,
		"exp/sub/trace.otf2": cut,
	}
	for _, name := range daemonShards {
		files["exp/"+name] = readTestdata(t, filepath.Join(daemonDir, name))
	}
	for name, data := range files {
		path := filepath.Join(base, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, snapshot(t, base)
}

// newerJournal names trace-v5.otf2 as a sealed, complete stream of all
// its 1835 bytes.
var newerJournal = []byte(`{"version":1,"streams":[{"id":"v5","file":"trace-v5.otf2","bytes":1835,"complete":true,"sealed":true}]}`)

// snapshot returns the bytes of every regular file under root, by path.
func snapshot(t testing.TB, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// outsideUnchanged fails t if a file recovery must not touch — anything
// but the journal and the files directly inside dir — differs from
// before.
func outsideUnchanged(t testing.TB, dir string, before map[string][]byte) {
	t.Helper()
	for path, data := range snapshot(t, filepath.Dir(dir)) {
		if filepath.Dir(path) == dir {
			continue
		}
		if old, ok := before[path]; !ok || !bytes.Equal(old, data) {
			t.Errorf("recovery changed %s (%d bytes, were %d)", path, len(data), len(old))
		}
	}
	for path := range before {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("recovery removed %s: %v", path, err)
		}
	}
}

// TestRecoverRefusesPathsOutsideDir writes journals whose entries name
// files that are not directly inside the server directory — a file beside
// it, one further up, an absolute path, a file in a subdirectory, the
// directory itself — and holds NewServer to refusing each without
// touching any of them; a journal naming the shard inside it recovers
// and truncates that shard to its intact prefix.
func TestRecoverRefusesPathsOutsideDir(t *testing.T) {
	const absolute = "the absolute path of ../victim.otf2"
	for _, file := range []string{"../victim.txt", "../victim.otf2", "../exp/../victim.otf2", absolute, ".", "..", "/", "sub/trace.otf2"} {
		dir, before := recoveryDir(t)
		if file == absolute {
			file = filepath.Join(filepath.Dir(dir), "victim.otf2")
		}
		if err := os.WriteFile(filepath.Join(dir, journalFileName), journalOf(t, "trace-a.otf2", file), 0o644); err != nil {
			t.Fatal(err)
		}
		if srv, err := NewServer(dir); err == nil {
			srv.Close() //nolint:errcheck // the test has failed already
			t.Errorf("file %q: NewServer recovered the journal", file)
		} else if !strings.Contains(err.Error(), "not a file in") {
			t.Errorf("file %q: NewServer: %v", file, err)
		}
		outsideUnchanged(t, dir, before)
		if shard := filepath.Join(dir, "trace-a.otf2"); !bytes.Equal(snapshot(t, dir)[shard], before[shard]) {
			t.Errorf("file %q: a refused journal truncated the shard inside the directory", file)
		}
	}

	dir, before := recoveryDir(t)
	if err := os.WriteFile(filepath.Join(dir, journalFileName), journalOf(t, "trace-a.otf2"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	outsideUnchanged(t, dir, before)
	shard := filepath.Join(dir, "trace-a.otf2")
	intact, err := otf2.IntactPrefixSize(shard)
	if fi, serr := os.Stat(shard); err != nil || serr != nil || fi.Size() != intact || intact >= int64(len(before[shard])) {
		t.Errorf("the shard was not truncated to its intact prefix (err %v, %v)", err, serr)
	}
}

// TestRecoverKeepsShardsOfOtherVersions restarts a server over a journal
// naming a complete shard whose format version this build does not read:
// recovery must leave the file byte for byte as it was — it is an archive
// a newer reader takes, not a damaged one to cut — and hold the stream
// sealed and incomplete, with an error naming the version.
func TestRecoverKeepsShardsOfOtherVersions(t *testing.T) {
	dir, before := recoveryDir(t)
	if err := os.WriteFile(filepath.Join(dir, journalFileName), newerJournal, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos := srv.Streams()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(dir, "trace-v5.otf2")
	if got := snapshot(t, dir)[shard]; !bytes.Equal(got, before[shard]) {
		t.Errorf("recovery left the shard at %d bytes, were %d", len(got), len(before[shard]))
	}
	if len(infos) != 1 || !infos[0].Sealed || infos[0].Complete || !strings.Contains(infos[0].Err, "version 5") {
		t.Errorf("recovered streams = %+v, want one sealed, incomplete, naming version 5", infos)
	}
	outsideUnchanged(t, dir, before)
}

// FuzzJournal feeds server recovery arbitrary journals over a directory
// laid out by recoveryDir: NewServer must not panic, and whatever it
// makes of the journal, no file outside the directory changes; a server
// it returns closes cleanly.
func FuzzJournal(f *testing.F) {
	f.Add(readTestdata(f, filepath.Join(daemonDir, journalFileName)))
	f.Add(journalOf(f, "trace-a.otf2"))
	f.Add(newerJournal)
	f.Add(journalOf(f, "trace-a.otf2", "../victim.txt"))
	f.Add(journalOf(f, "../victim.otf2"))
	f.Add(journalOf(f, "sub/trace.otf2", ".."))
	f.Add([]byte(`{"version":1,"streams":[{"id":"","file":"trace-a.otf2"}]}`))
	f.Add([]byte(`{"version":1,"streams":[{"id":"a","file":""}]}`))
	f.Add([]byte(`{"version":1,"streams":[{"id":"a"}]}`))
	f.Add([]byte(`{"version":2,"streams":[{"id":"a","file":"trace-a.otf2"}]}`))
	f.Add([]byte(`{"version":1,"streams":[{"id":"a","file":"trace-a.otf2","complete":true,"sealed":true,"bytes":99999}`)) // cut
	f.Add([]byte(`{"version":1,"streams":[{"id":"a","file":"trace-a.otf2"},{"id":"a","file":"trace-a.otf2"}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir, before := recoveryDir(t)
		if err := os.WriteFile(filepath.Join(dir, journalFileName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(dir)
		outsideUnchanged(t, dir, before)
		if err != nil {
			return
		}
		for _, st := range srv.Streams() {
			if !plainFileName(st.File) {
				t.Errorf("recovered stream %q names %q", st.ID, st.File)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		outsideUnchanged(t, dir, before)
	})
}

// daemonDir is a server directory as a daemon killed after serving two
// streams leaves it: testdata/session-v2.bin served whole as stream
// "transcript", and stream "cut" (token 0xc07), whose connection broke in
// the middle of a data frame after cutBytes bytes of
// internal/otf2/testdata/v4.otf2 in frames of 256. It holds
// sink-journal.json and the two shards, daemonShards; recovering it
// gives the stream table in testdata/daemon-recovered.json.
const (
	daemonDir = "daemon"
	cutBytes  = 1500
)

var daemonShards = []string{"trace-cut.otf2", "trace-transcript.otf2"}

// hungUpConn is a connection whose peer sent its bytes and went away:
// reads return them and then EOF, and writes go nowhere, so the server
// meets the cut at the same byte on every run.
type hungUpConn struct {
	net.Conn
	r *bytes.Reader
}

func (c hungUpConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c hungUpConn) Write(p []byte) (int, error) { return len(p), nil }

func hungUp(data []byte) net.Conn {
	c, peer := net.Pipe()
	peer.Close()
	return hungUpConn{Conn: c, r: bytes.NewReader(data)}
}

// TestDaemonDirFixture serves the two streams daemonDir describes and
// holds the journal and shards the server writes to the committed
// directory, byte for byte; then recovers a copy of the committed
// directory and holds the stream table to daemon-recovered.json and the
// cut shard to its intact prefix.
func TestDaemonDirFixture(t *testing.T) {
	archive, err := os.ReadFile(filepath.Join("..", "otf2", "testdata", "v4.otf2"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	srv, err := NewServer(dir, WithAckInterval(sessionAckEvery))
	if err != nil {
		t.Fatal(err)
	}
	cut := append([]byte(Magic), ProtocolV2, byte(len("cut")))
	cut = append(cut, "cut"...)
	cut = binary.AppendUvarint(cut, 0xc07)
	frames := framesOf(archive[:cutBytes], 256)
	cut = append(cut, frames[:len(frames)-40]...)
	conn, replied, served := servePipe(srv)
	if _, err := conn.Write(readTestdata(t, sessionFile)); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	<-replied
	if err := srv.ServeConn(hungUp(cut)); err == nil {
		t.Fatal("a stream cut mid-frame was served without an error")
	}
	// Compared before Close, which seals the journal as a clean shutdown.
	got, want := snapshot(t, dir), snapshot(t, filepath.Join("testdata", daemonDir))
	if len(got) != len(want) {
		t.Errorf("the server wrote %d files, the committed directory holds %d", len(got), len(want))
	}
	for path, data := range want {
		name := filepath.Base(path)
		if g, ok := got[filepath.Join(dir, name)]; !ok || !bytes.Equal(g, data) {
			t.Errorf("the server wrote %s as %d bytes, the committed one is %d:\n%s", name, len(g), len(data), g)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := t.TempDir()
	for path, data := range want {
		if err := os.WriteFile(filepath.Join(recovered, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := NewServer(recovered)
	if err != nil {
		t.Fatal(err)
	}
	table, err := json.MarshalIndent(rec.Streams(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if want := readTestdata(t, "daemon-recovered.json"); !bytes.Equal(append(table, '\n'), want) {
		t.Errorf("recovery gives the stream table\n%s\nwant\n%s", table, want)
	}
	shard := filepath.Join(recovered, "trace-cut.otf2")
	kept, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	intact, err := otf2.IntactPrefixSize(shard)
	if err != nil || intact != int64(len(kept)) || !bytes.HasPrefix(archive, kept) || len(kept) >= cutBytes {
		t.Errorf("recovery left the cut shard at %d bytes, %d of them intact (%v), not a proper prefix of the archive", len(kept), intact, err)
	}
}
