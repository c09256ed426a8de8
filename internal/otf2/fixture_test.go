package otf2

import (
	"bytes"
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
// form of archive the readers meet. The writer writes v4.otf2,
// v4-flate.otf2, v4-flight.otf2 (a flight-recorder dump: an 'F' chunk, and
// windows that start mid-stream) and v4-cut.otf2 (the recording written
// in fixed chunks, cut in the middle of its last chunk). recording.jsonl
// is the recording itself, what v4 and v4-flate decode to; events.golden
// holds each fixture's event count, and <fixture>.json what
// `scorep-analyze -trace <fixture> -bottlenecks -json` prints for it. A
// change that cannot read a committed file, or reads it differently,
// fails here.

var updateFixtures = flag.Bool("update-fixtures", false, "rewrite testdata's v4, v4-flate, v4-flight and v4-cut archives, recording.jsonl and every golden from the recording")

// fixtureNames are the fixtures, without the .otf2 extension.
var fixtureNames = []string{"v4", "v4-flate", "v4-flight", "v4-cut"}

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

	// v4-cut is the recording written thread by thread, thread 0 then 1,
	// in chunks of these event counts, each sealed by a Flush, and cut in
	// the middle of its last chunk: it salvages the whole chunks before
	// the cut.
	var base bytes.Buffer
	w := NewWriter(&base, WithChunkBytes(1<<20))
	for tid, chunks := range [][]int{{254, 204}, {244, 12}} {
		evs := tr.Threads[tid]
		for _, n := range chunks {
			w.WriteEvents(tid, evs[:n]) //nolint:errcheck // latched: Close returns it
			w.Flush()                   //nolint:errcheck
			evs = evs[n:]
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(base.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	last := ix.Threads[len(ix.Threads)-1].Chunks
	cut := (last[len(last)-1].Offset + ix.end) / 2

	// The flight dump: the recording replayed into a flight recorder,
	// both threads in time order, into rings of two 32-event chunks.
	f := NewFlight(clock.NewManual(0), 2, 32)
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
	for _, e := range stream {
		f.Recorder().Record(ths[e.tid], e.ev)
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
	a, c := trace.NewAnalyzer(), bottleneck.NewCollector()
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
