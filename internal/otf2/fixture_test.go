package otf2

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
	"repro/internal/trace"
)

// The committed fixtures under testdata/ are one small recording in every
// form the readers accept. The writer writes v4.otf2, v4-flate.otf2,
// v4-flight.otf2 (a flight-recorder dump: an 'F' chunk, and windows that
// start mid-stream) and v4-cut.otf2 (the recording written in v2.otf2's
// chunks, cut in the middle of its last chunk, so that it salvages what
// v2-cut.otf2 does). The format-3 writer wrote v3.otf2, v3-flate.otf2,
// v3-flight.otf2 and v3-cut.otf2 the same way, the format-2 writer
// v2.otf2, v2-flate.otf2, flight.otf2 and v2-cut.otf2, and the format-1
// writer v1.otf2; those writers are gone, so no code here can make those
// files again. recording.jsonl is the recording itself, what v1, v2,
// v2-flate, v3, v3-flate, v4 and v4-flate decode to; events.golden holds
// each fixture's event count, and <fixture>.json what `scorep-analyze
// -trace <fixture> -bottlenecks -json` prints for it — the same for a
// fixture as for its twin of the format before. A change that cannot
// read an old file, or reads it differently, fails here.

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata's v4, v4-flate, v4-flight and v4-cut archives, recording.jsonl and every golden from the recording (the v1, v2 and v3 fixtures are never rewritten)")

// fixtureNames are the fixtures, without the .otf2 extension.
var fixtureNames = []string{"v1", "v2", "v2-flate", "flight", "v2-cut", "v3", "v3-flate", "v3-flight", "v3-cut", "v4", "v4-flate", "v4-flight", "v4-cut"}

// twins maps each v3 and v4 fixture to the fixture of the same recording
// in the format before.
var twins = map[string]string{
	"v3": "v2", "v3-flate": "v2-flate", "v3-flight": "flight", "v3-cut": "v2-cut",
	"v4": "v3", "v4-flate": "v3-flate", "v4-flight": "v3-flight", "v4-cut": "v3-cut",
}

func fixturePath(name string) string { return filepath.Join("testdata", name+Ext) }

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureRecording is the recording every fixture holds, on a manual
// clock: a single producer. Thread 0 creates 100 tasks inside a single
// construct and then joins the implicit barrier, where it runs the even
// ones; thread 1 waits in the barrier from the start and runs each odd
// task once it exists.
func fixtureRecording(reg *region.Registry) *trace.Trace {
	par := reg.Register("fx.par", "fx.go", 1, region.Parallel)
	single := reg.Register("fx.single", "fx.go", 2, region.Single)
	task := reg.Register("fx.task", "fx.go", 3, region.Task)
	work := reg.Register("fx.work", "fx.go", 4, region.UserFunction)
	ibar := reg.Register("fx.ibar", "fx.go", 5, region.ImplicitBarrier)
	tr := &trace.Trace{Threads: map[int][]trace.Event{}}
	now := []int64{1_000, 1_010}
	emit := func(tid int, d int64, typ trace.EventType, r *region.Region, id uint64) {
		now[tid] += d
		tr.Threads[tid] = append(tr.Threads[tid], trace.Event{Time: now[tid], Type: typ, Region: r, TaskID: id})
	}
	run := func(tid, i int) {
		emit(tid, 12, trace.EvTaskBegin, task, uint64(i))
		emit(tid, 8, trace.EvEnter, work, 0)
		emit(tid, 60+int64(i*53%90), trace.EvExit, work, 0)
		emit(tid, 6, trace.EvTaskEnd, task, uint64(i))
		emit(tid, 4, trace.EvTaskSwitch, nil, 0)
	}
	const tasks = 100
	created := make([]int64, tasks+1)
	for tid := range now {
		emit(tid, 0, trace.EvThreadBegin, nil, 0)
		emit(tid, 20, trace.EvEnter, par, 0)
	}
	emit(0, 30, trace.EvEnter, single, 0)
	for i := 1; i <= tasks; i++ {
		emit(0, 15, trace.EvTaskCreateBegin, task, 0)
		emit(0, 25+int64(i%3)*10, trace.EvTaskCreateEnd, task, uint64(i))
		created[i] = now[0]
	}
	emit(0, 10, trace.EvExit, single, 0)
	emit(0, 5, trace.EvEnter, ibar, 0)
	emit(1, 15, trace.EvEnter, ibar, 0)
	for i := 1; i <= tasks; i += 2 {
		now[1] = max(now[1], created[i])
		run(1, i)
	}
	for i := 2; i <= tasks; i += 2 {
		run(0, i)
	}
	end := max(now[0], now[1])
	for tid := range now {
		emit(tid, end-now[tid]+int64(30+3*tid), trace.EvExit, ibar, 0)
		emit(tid, 7, trace.EvExit, par, 0)
		emit(tid, 2, trace.EvThreadEnd, nil, 0)
	}
	return tr
}

// fixtureArchives writes the recording as every v4 fixture: what the
// committed files must be, byte for byte.
func fixtureArchives(t testing.TB) map[string][]byte {
	t.Helper()
	reg := region.NewRegistry()
	tr := fixtureRecording(reg)
	write := func(opts ...WriterOption) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, tr, append([]WriterOption{WithChunkBytes(1024)}, opts...)...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// A cut archive salvages its whole chunks, so v4-cut, to salvage what
	// v2-cut does, is cut from the recording written in v2.otf2's chunks:
	// thread by thread, each chunk's events sealed by a Flush.
	v2, err := os.ReadFile(fixturePath("v2"))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	w := NewWriter(&base, WithChunkBytes(1<<20))
	for _, tc := range ix.Threads {
		evs := tr.Threads[tc.Thread]
		for _, cr := range tc.Chunks {
			w.WriteEvents(tc.Thread, evs[:cr.Events]) //nolint:errcheck // latched: Close returns it
			w.Flush()                                 //nolint:errcheck
			evs = evs[cr.Events:]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ix, err = ReadIndex(bytes.NewReader(base.Bytes())); err != nil {
		t.Fatal(err)
	}
	last := ix.Threads[len(ix.Threads)-1].Chunks
	cut := (last[len(last)-1].Offset + ix.end) / 2

	// The flight dump: the recording through a flight recorder's own
	// listener, both threads in time order, into rings of two 32-event
	// chunks.
	var at int64
	f := NewFlight(clock.Func(func() int64 { return at }), 2, 32)
	type timed struct {
		tid int
		ev  trace.Event
	}
	var stream []timed
	for tid, evs := range tr.Threads {
		for _, ev := range evs {
			stream = append(stream, timed{tid, ev})
		}
	}
	sort.Slice(stream, func(i, j int) bool {
		a, b := stream[i], stream[j]
		return a.ev.Time < b.ev.Time || a.ev.Time == b.ev.Time && a.tid < b.tid
	})
	ths := map[int]*omp.Thread{0: {ID: 0}, 1: {ID: 1}}
	var tk omp.Task
	for _, e := range stream {
		at = e.ev.Time
		replayEvent(f.Recorder(), ths[e.tid], &tk, e.ev)
	}
	var dump bytes.Buffer
	if _, err := f.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"v4":        write(),
		"v4-flate":  write(WithCompression(CompressionFlate)),
		"v4-flight": dump.Bytes(),
		"v4-cut":    base.Bytes()[:cut],
	}
}

// v1Of is an archive as the format-1 writer wrote it: the header with
// version byte 1, then the chunks of the archive's v2 form (v2Of, for a
// later archive) up to its footer index. Format 2 left the chunks of
// format 1 as they were, so this is how tests make v1 inputs;
// TestV1OfIsTheV1Fixture holds it to the writer's own.
func v1Of(t testing.TB, archive []byte) []byte {
	t.Helper()
	if archive[len(magic)] >= version3 {
		archive = v2Of(t, archive)
	}
	ix, err := ReadIndex(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(magic+"\x01"), archive[headerLen:ix.end]...)
}

// v2Of is a v3 archive — or a v4 one, through v3Of — as the format-2
// writer wrote it, chunk for chunk: every event chunk's records in the v2
// layout. Format 3 changed nothing else, so this is how tests make v2
// inputs; TestV2OfIsTheFlightFixture holds it to the v2 writer's own.
func v2Of(t testing.TB, archive []byte) []byte {
	t.Helper()
	if archive[len(magic)] == version4 {
		archive = v3Of(t, archive)
	}
	return transcode(t, archive, version3, v2Records)
}

// v3Of is a v4 archive as the format-3 writer wrote it, chunk for chunk:
// every event chunk's records in the v3 layout. Format 4 changed nothing
// else, so this is how tests make v3 inputs; TestV3OfIsTheV3FlightFixture
// holds it to the v3 writer's own.
func v3Of(t testing.TB, v4 []byte) []byte {
	t.Helper()
	return transcode(t, v4, version4, v3Records)
}

// transcode rewrites an indexed archive of format version from into the
// format before it: every event chunk's records through records —
// compressed if the archive's event chunks were and that shrinks them, as
// the writer did — and the footer index with the chunks' new offsets.
func transcode(t testing.TB, archive []byte, from byte, records func(testing.TB, []byte) []byte) []byte {
	t.Helper()
	ix, err := ReadIndex(bytes.NewReader(archive))
	if err != nil || ix.version != from {
		t.Fatalf("transcode wants an indexed v%d archive (err %v)", from, err)
	}
	compressed := false
	walk(bytes.NewReader(archive), int64(headerLen), ix.end, func(f frame) error { //nolint:errcheck // the walk below reports
		compressed = compressed || f.kind == chunkCompressed
		return nil
	})
	w := &Writer{chunkMeta: make(map[int][]ChunkRef)} // for its index encoder
	moved := make(map[int64]int64)
	out := append([]byte(magic), from-1)
	chunk := func(kind byte, payload []byte) {
		out = append(out, kind)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	_, err = walk(bytes.NewReader(archive), int64(headerLen), ix.end, func(f frame) error {
		payload := archive[f.body : f.body+int64(f.size)]
		switch f.kind {
		case chunkDefs:
			w.defOffs = append(w.defOffs, int64(len(out)))
		case chunkCompressed:
			raw, err := inflateChunk(nil, payload)
			if err != nil {
				return err
			}
			payload = raw
			fallthrough
		case chunkEvents:
			moved[f.off] = int64(len(out))
			payload = records(t, payload)
			if compressed {
				if c, ok := compressChunk(nil, payload); ok {
					chunk(chunkCompressed, c)
					return nil
				}
			}
			chunk(chunkEvents, payload)
			return nil
		}
		chunk(f.kind, payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range ix.Threads {
		for _, cr := range tc.Chunks {
			cr.Offset = moved[cr.Offset]
			w.chunkMeta[tc.Thread] = append(w.chunkMeta[tc.Thread], cr)
		}
	}
	idxOff := len(out)
	chunk(chunkIndex, w.appendIndexLocked(nil))
	chunk(chunkTrailer, append(binary.LittleEndian.AppendUint64(nil, uint64(idxOff)), trailerMagic...))
	return out
}

// eventsHead reads the thread/count head of the event payload p and
// returns it re-encoded, with the count and a cursor at the first record.
func eventsHead(t testing.TB, p []byte) ([]byte, uint64, *cursor) {
	t.Helper()
	c := &cursor{payload: p}
	tid, err := c.varint("thread")
	if err != nil {
		t.Fatal(err)
	}
	count, err := c.uvarint("count")
	if err != nil {
		t.Fatal(err)
	}
	return binary.AppendUvarint(binary.AppendVarint(nil, tid), count), count, c
}

// v3Records rewrites the v4 event payload p (thread, count, records) in
// the v3 record layout: a same-task code becomes its task event with a
// zero task delta, and the time delta a varint.
func v3Records(t testing.TB, p []byte) []byte {
	t.Helper()
	out, count, c := eventsHead(t, p)
	for range count {
		head := p[c.pos]
		c.pos++
		at := c.pos
		if head>>headRefShift == headRefEscape {
			if _, err := c.uvarint("region ref"); err != nil {
				t.Fatal(err)
			}
		}
		code := head & headTypeMask
		if code > maxEventType {
			head += headTask - sameTaskShift
		}
		out = append(append(out, head), p[at:c.pos]...)
		delta, err := c.uvarint("time delta")
		if err != nil {
			t.Fatal(err)
		}
		out = binary.AppendVarint(out, int64(delta))
		at = c.pos
		if head&headTask != 0 && code <= maxEventType {
			if _, err := c.varint("task id"); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, p[at:c.pos]...)
		if code > maxEventType {
			out = append(out, 0) // varint(0)
		}
	}
	return out
}

// v2Records rewrites the v3 event payload p (thread, count, records) in
// the v2 record layout.
func v2Records(t testing.TB, p []byte) []byte {
	t.Helper()
	out, count, c := eventsHead(t, p)
	var task uint64
	for range count {
		head := p[c.pos]
		c.pos++
		ref := uint64(head >> headRefShift)
		if ref == headRefEscape {
			x, err := c.uvarint("region ref")
			if err != nil {
				t.Fatal(err)
			}
			ref += x
		}
		delta, err := c.varint("time delta")
		if err != nil {
			t.Fatal(err)
		}
		id := uint64(0)
		if head&headTask != 0 {
			d, err := c.varint("task id")
			if err != nil {
				t.Fatal(err)
			}
			task += uint64(d)
			id = task
		}
		out = append(out, head&headTypeMask)
		out = binary.AppendVarint(out, delta)
		out = binary.AppendUvarint(out, ref)
		out = binary.AppendUvarint(out, id)
	}
	return out
}

// fixtureJSON is the envelope of `scorep-analyze -trace X -bottlenecks
// -json`.
type fixtureJSON struct {
	Findings      []analyze.Finding    `json:"findings,omitempty"`
	TraceAnalysis *trace.Analysis      `json:"traceAnalysis,omitempty"`
	Bottlenecks   *bottleneck.Analysis `json:"bottlenecks,omitempty"`
}

// fixtureAnalysis is what scorep-analyze prints for a fixture, scanned
// at workers workers.
func fixtureAnalysis(t *testing.T, name string, workers int) []byte {
	t.Helper()
	a, c := trace.NewAnalyzer(), bottleneck.NewCollector(workers)
	_, warning, err := ScanFile(fixturePath(name), Query{}, workers, a, c)
	if err != nil || (warning != "") != strings.HasSuffix(name, "-cut") {
		t.Fatalf("%s: scan: warning %q, err %v", name, warning, err)
	}
	b := c.Finish()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(fixtureJSON{Findings: b.Findings, TraceAnalysis: a.Finish(), Bottlenecks: b}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFixtureWriterPin pins the writer: the recording written now is, byte
// for byte, what was committed.
func TestFixtureWriterPin(t *testing.T) {
	fresh := fixtureArchives(t)
	if *updateFixtures {
		for name, data := range fresh {
			if err := os.WriteFile(fixturePath(name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range fresh {
		if !bytes.Equal(readFixture(t, name), data) {
			t.Errorf("%s: a fresh write of the recording (%d bytes) differs from %s", name, len(data), fixturePath(name))
		}
	}
}

// TestV1OfIsTheV1Fixture holds the tests' v1 helper to the v1 writer:
// v1Of(v2.otf2) is v1.otf2.
func TestV1OfIsTheV1Fixture(t *testing.T) {
	v1 := readFixture(t, "v1")
	if v1[len(magic)] != 1 {
		t.Fatalf("v1.otf2 has version byte %d", v1[len(magic)])
	}
	if got := v1Of(t, readFixture(t, "v2")); !bytes.Equal(got, v1) {
		t.Errorf("v1Of(v2.otf2) is %d bytes, v1.otf2 %d, and they differ", len(got), len(v1))
	}
}

// TestV2OfIsTheFlightFixture holds the tests' v2 helper to the v2
// writer: a flight dump seals its chunks by event count, not by bytes, so
// v2Of(v3-flight.otf2) is flight.otf2, and so is v2Of(v4-flight.otf2).
func TestV2OfIsTheFlightFixture(t *testing.T) {
	want := readFixture(t, "flight")
	for _, name := range []string{"v3-flight", "v4-flight"} {
		if got := v2Of(t, readFixture(t, name)); !bytes.Equal(got, want) {
			t.Errorf("v2Of(%s.otf2) is %d bytes, flight.otf2 %d, and they differ", name, len(got), len(want))
		}
	}
}

// TestV3OfIsTheV3FlightFixture holds the tests' v3 helper to the v3
// writer: v3Of(v4-flight.otf2) is v3-flight.otf2.
func TestV3OfIsTheV3FlightFixture(t *testing.T) {
	v4 := readFixture(t, "v4-flight")
	if v4[len(magic)] != version4 {
		t.Fatalf("v4-flight.otf2 has version byte %d", v4[len(magic)])
	}
	if got, want := v3Of(t, v4), readFixture(t, "v3-flight"); !bytes.Equal(got, want) {
		t.Errorf("v3Of(v4-flight.otf2) is %d bytes, v3-flight.otf2 %d, and they differ", len(got), len(want))
	}
}

// TestFixtureGoldens reads every fixture the ways the tools do and holds
// what comes out to the goldens: the recording in JSONL, the event count,
// and the analyses at one worker and at four.
func TestFixtureGoldens(t *testing.T) {
	var jsonl bytes.Buffer
	if err := trace.WriteJSONL(&jsonl, fixtureRecording(region.NewRegistry())); err != nil {
		t.Fatal(err)
	}
	var counts strings.Builder
	for _, name := range fixtureNames {
		n, _, err := CountFileEvents(fixturePath(name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&counts, "%s %d\n", name, n)
	}
	golden := func(file string, got []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("testdata/%s differs from what is read now:\n got %s\nwant %s", file, got, want)
		}
	}
	if *updateFixtures {
		updates := map[string][]byte{"recording.jsonl": jsonl.Bytes(), "events.golden": []byte(counts.String())}
		for _, name := range fixtureNames {
			updates[name+".json"] = fixtureAnalysis(t, name, 1)
		}
		for file, data := range updates {
			if err := os.WriteFile(filepath.Join("testdata", file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden("recording.jsonl", jsonl.Bytes())
	golden("events.golden", []byte(counts.String()))
	for _, name := range fixtureNames {
		for _, workers := range []int{1, 4} {
			golden(name+".json", fixtureAnalysis(t, name, workers))
		}
		if twin, ok := twins[name]; ok {
			want, err := os.ReadFile(filepath.Join("testdata", twin+".json"))
			if err != nil {
				t.Fatal(err)
			}
			golden(name+".json", want)
		}
		if !strings.Contains(name, "flight") && !strings.HasSuffix(name, "-cut") {
			tr, _, _, err := LoadFile(fixturePath(name), region.NewRegistry(), Query{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := trace.WriteJSONL(&got, tr); err != nil {
				t.Fatal(err)
			}
			golden("recording.jsonl", got.Bytes())
		}
	}
}
