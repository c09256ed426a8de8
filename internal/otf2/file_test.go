package otf2

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// fileTestTrace builds a deterministic single-thread trace with n task
// executions.
func fileTestTrace(reg *region.Registry, n int) *trace.Trace {
	task := reg.Register("file.task", "file_test.go", 1, region.Task)
	var evs []trace.Event
	ts := int64(0)
	next := func() int64 { ts += 10; return ts }
	evs = append(evs, trace.Event{Time: next(), Type: trace.EvThreadBegin})
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		evs = append(evs,
			trace.Event{Time: next(), Type: trace.EvTaskCreateBegin, Region: task},
			trace.Event{Time: next(), Type: trace.EvTaskCreateEnd, Region: task, TaskID: id},
			trace.Event{Time: next(), Type: trace.EvTaskBegin, Region: task, TaskID: id},
			trace.Event{Time: next(), Type: trace.EvTaskEnd, Region: task, TaskID: id},
		)
	}
	evs = append(evs, trace.Event{Time: next(), Type: trace.EvThreadEnd})
	return &trace.Trace{Threads: map[int][]trace.Event{0: evs}}
}

// loadWhole is LoadFile of the whole file on one worker.
func loadWhole(path string) (*trace.Trace, string, error) {
	tr, _, warning, err := LoadFile(path, region.NewRegistry(), Query{}, 1)
	return tr, warning, err
}

func TestReadFileLenientIntact(t *testing.T) {
	dir := t.TempDir()
	reg := region.NewRegistry()
	tr := fileTestTrace(reg, 8)
	for name, opts := range map[string][]WriterOption{
		"t.otf2":       nil,
		"t-flate.otf2": {WithCompression(CompressionFlate)},
	} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr, opts...); err != nil {
			t.Fatal(err)
		}
		got, warning, err := loadWhole(path)
		if err != nil || warning != "" {
			t.Fatalf("%s: LoadFile = (_, %q, %v), want no warning, no error", name, warning, err)
		}
		if got.NumEvents() != tr.NumEvents() {
			t.Errorf("%s: events = %d, want %d", name, got.NumEvents(), tr.NumEvents())
		}
		n, warning, err := CountFileEvents(path)
		if err != nil || warning != "" || n != tr.NumEvents() {
			t.Errorf("%s: CountFileEvents = (%d, %q, %v), want (%d, \"\", nil)", name, n, warning, err, tr.NumEvents())
		}
	}
}

// TestReadFileLenientTruncated cuts an archive mid-chunk and checks the
// lenient helpers salvage the intact prefix with a warning.
func TestReadFileLenientTruncated(t *testing.T) {
	dir := t.TempDir()
	reg := region.NewRegistry()
	tr := fileTestTrace(reg, 2000) // multiple 1 KiB chunks

	path := filepath.Join(dir, "cut.otf2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterSize(f, 1024)
	if err := w.WriteEvents(0, tr.Threads[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate inside the last event chunk, so events are genuinely
	// lost along with the footer index and trailer.
	archive, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, lastEventChunkOffset(t, archive)+3); err != nil {
		t.Fatal(err)
	}

	got, warning, err := loadWhole(path)
	if err != nil {
		t.Fatalf("truncated archive must salvage, got %v", err)
	}
	if warning == "" {
		t.Error("truncation produced no warning")
	}
	if n := got.NumEvents(); n == 0 || n >= tr.NumEvents() {
		t.Errorf("salvaged %d events, want a non-empty strict prefix of %d", n, tr.NumEvents())
	}

	n, warning2, err := CountFileEvents(path)
	if err != nil || warning2 == "" {
		t.Fatalf("CountFileEvents = (_, %q, %v), want warning and no error", warning2, err)
	}
	if n != got.NumEvents() {
		t.Errorf("CountFileEvents = %d, LoadFile salvaged %d", n, got.NumEvents())
	}

	a, warning3, err := AnalyzeFile(path, 1)
	if err != nil || warning3 == "" || a == nil {
		t.Fatalf("AnalyzeFile = (%v, %q, %v), want analysis, warning, no error", a, warning3, err)
	}
	if want := trace.Analyze(got); !reflect.DeepEqual(a, want) {
		t.Errorf("streaming analysis of the prefix differs from in-memory analysis")
	}
	// One cut, one wording, whichever way the file is read.
	if warning2 != warning || warning3 != warning {
		t.Errorf("the cut is worded three ways: %q, %q, %q", warning, warning2, warning3)
	}
}

// TestAnalyzeFileFormatsAgree checks the raw and the flate-compressed
// archive yield the same analysis for the same trace.
func TestAnalyzeFileFormatsAgree(t *testing.T) {
	dir := t.TempDir()
	reg := region.NewRegistry()
	tr := fileTestTrace(reg, 32)
	flate := filepath.Join(dir, "t-flate.otf2")
	archive := filepath.Join(dir, "t.otf2")
	if err := WriteFile(flate, tr, WithCompression(CompressionFlate)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(archive, tr); err != nil {
		t.Fatal(err)
	}
	af, _, err := AnalyzeFile(flate, 1)
	if err != nil {
		t.Fatal(err)
	}
	aa, _, err := AnalyzeFile(archive, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(af, aa) {
		t.Errorf("compressed and raw archive analyses differ:\nflate: %+v\nraw:   %+v", af, aa)
	}
}

// TestJSONLDumpIsRefused holds every file reader to "archives only": a
// JSONL dump fails at the archive header, with an error naming the last
// commit whose scorep-convert turns it into an archive, and has no
// intact prefix.
func TestJSONLDumpIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := WriteFile(path, fileTestTrace(region.NewRegistry(), 8)); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "scorep-convert built at commit 72ec01f") {
			t.Errorf("%s of a JSONL dump: err = %v, want the bad-magic error naming commit 72ec01f", what, err)
		}
	}
	_, _, err := ScanFile(path, Query{}, 2, trace.NewAnalyzer())
	refused("ScanFile", err)
	_, _, _, err = LoadFile(path, region.NewRegistry(), Query{}, 2)
	refused("LoadFile", err)
	_, _, err = CountFileEvents(path)
	refused("CountFileEvents", err)
	_, err = StatFile(path)
	refused("StatFile", err)
	if n, err := IntactPrefixSize(path); n != 0 || err != nil {
		t.Errorf("IntactPrefixSize of a JSONL dump = (%d, %v), want (0, nil)", n, err)
	}
}

// TestIntactPrefixSize checks the cut-point walk against the readers'
// salvage behavior: the intact prefix of a complete archive is the
// whole file, a damaged chunk length ends it at the chunk before, and
// for a raw, a compressed and an index-less archive cut at every byte
// offset it is the prefix the lenient load salvages: truncated to it, the
// file reads cleanly to exactly the salvaged events.
func TestIntactPrefixSize(t *testing.T) {
	dir := t.TempDir()
	reg := region.NewRegistry()
	tr := fileTestTrace(reg, 2000)

	path := filepath.Join(dir, "t.otf2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriterSize(f, 1024)
	if err := w.WriteEvents(0, tr.Threads[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	archive, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if n, err := IntactPrefixSize(path); err != nil || n != int64(len(archive)) {
		t.Fatalf("complete archive: IntactPrefixSize = (%d, %v), want (%d, nil)", n, err, len(archive))
	}

	// A damaged length ends the intact prefix at the chunk before it,
	// whether it is too long or overflows 64 bits.
	for name, length := range map[string][]byte{
		"over-long":  {0xff, 0xff, 0xff, 0xff, 0x0f},
		"overflowed": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		p := filepath.Join(dir, name+Ext)
		if err := os.WriteFile(p, append(append(slices.Clip(archive), chunkEvents), length...), 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := IntactPrefixSize(p); err != nil || n != int64(len(archive)) {
			t.Errorf("%s length: IntactPrefixSize = (%d, %v), want (%d, nil)", name, n, err, len(archive))
		}
	}

	// Every cut of archives of about 20 chunks, taken from the end down:
	// the prefix the walk finds is the one a load salvages (LoadFile's
	// load and salvage, on the bytes), and it reads cleanly to the same.
	task := reg.Register("wide.task", "file_test.go", 2, region.Task)
	wide := make([]trace.Event, 1200) // 18 bytes an event: task IDs far apart
	for i := range wide {
		wide[i] = trace.Event{Time: int64(i+1) << 40, Type: trace.EvTaskBegin + trace.EventType(i&1), Region: task, TaskID: uint64(i+1) * 0x9e3779b97f4a7c15}
	}
	write := func(opts ...WriterOption) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, &trace.Trace{Threads: map[int][]trace.Event{0: wide}}, append([]WriterOption{WithChunkBytes(1024)}, opts...)...); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, data := range map[string][]byte{
		"raw":      write(),
		"flate":    write(WithCompression(CompressionFlate)),
		"no-index": unindexed(t, write()),
	} {
		cutPath := filepath.Join(dir, "cut-"+name+Ext)
		if err := os.WriteFile(cutPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		prefixes := map[int64]*trace.Trace{} // the clean load of each prefix
		step := 1
		if raceDetector {
			step = 7 // the offsets' property is not a concurrent one
		}
		for cut := len(data); cut >= 0; cut -= step {
			if err := os.Truncate(cutPath, int64(cut)); err != nil {
				t.Fatal(err)
			}
			n, err := IntactPrefixSize(cutPath)
			if err != nil || n > int64(cut) || (cut < headerLen) != (n == 0) {
				t.Fatalf("%s cut at %d: IntactPrefixSize = (%d, %v)", name, cut, n, err)
			}
			salvaged, _, err := Load(bytes.NewReader(data[:cut]), reg, Query{}, 1)
			if warning, err := salvage(err); err != nil || (warning == "") != (n == int64(cut) && cut >= headerLen) {
				t.Fatalf("%s cut at %d, intact to %d: the load salvages with warning %q, err %v", name, cut, n, warning, err)
			}
			want, ok := prefixes[n]
			if !ok {
				want, _, err = Load(bytes.NewReader(data[:n]), reg, Query{}, 1)
				if n >= int64(headerLen) && err != nil {
					t.Fatalf("%s: the prefix of %d bytes does not read cleanly: %v", name, n, err)
				}
				prefixes[n] = want
			}
			if !sameEvents(salvaged, want) {
				t.Fatalf("%s cut at %d: %d events salvaged, the %d-byte intact prefix holds %d", name, cut, salvaged.NumEvents(), n, want.NumEvents())
			}
		}
		if len(prefixes) < 20 {
			t.Errorf("%s: %d intact prefixes, want a chunk boundary for each of about 20 chunks", name, len(prefixes))
		}
	}

	// Degenerate files: empty, short header, wrong magic.
	for name, content := range map[string][]byte{
		"empty.otf2": nil,
		"short.otf2": []byte(magic[:4]),
		"bad.otf2":   []byte("NOTOTF2\x01extra"),
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if n, err := IntactPrefixSize(p); err != nil || n != 0 {
			t.Errorf("%s: IntactPrefixSize = (%d, %v), want (0, nil)", name, n, err)
		}
	}
	if _, err := IntactPrefixSize(filepath.Join(dir, "missing.otf2")); err == nil {
		t.Error("IntactPrefixSize accepted a missing file")
	}
}

func TestLenientHelpersRealErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.otf2")
	if _, _, err := loadWhole(missing); err == nil {
		t.Error("LoadFile accepted a missing file")
	}
	if _, _, err := AnalyzeFile(missing, 1); err == nil {
		t.Error("AnalyzeFile accepted a missing file")
	}
	if _, _, err := CountFileEvents(missing); err == nil {
		t.Error("CountFileEvents accepted a missing file")
	}
}

// TestRefusesOtherVersions gives every way into an archive the v4
// fixture under each header version but 4: each refuses it with an
// error, which for versions 1 to 3 names the last commit that reads
// them; none takes the file for a cut or damaged archive.
func TestRefusesOtherVersions(t *testing.T) {
	v4 := readFixture(t, "v4")
	for _, version := range []byte{0, 1, 2, 3, 5, 255} {
		data := slices.Clone(v4)
		data[len(magic)] = version
		path := filepath.Join(t.TempDir(), "old.otf2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, loadErr := Load(bytes.NewReader(data), region.NewRegistry(), Query{}, 2)
		_, scanErr := Scan(bytes.NewReader(data), Query{}, 2, trace.NewAnalyzer())
		_, _, _, loadFileErr := LoadFile(path, region.NewRegistry(), Query{}, 2)
		_, _, scanFileErr := ScanFile(path, Query{}, 2, trace.NewAnalyzer())
		_, _, countErr := CountFileEvents(path)
		_, statErr := StatFile(path)
		_, indexErr := ReadIndex(bytes.NewReader(data))
		_, prefixErr := IntactPrefixSize(path)
		for what, err := range map[string]error{
			"Load": loadErr, "Scan": scanErr, "LoadFile": loadFileErr, "ScanFile": scanFileErr,
			"CountFileEvents": countErr, "StatFile": statErr, "ReadIndex": indexErr, "IntactPrefixSize": prefixErr,
		} {
			if err == nil || errors.Is(err, ErrTruncated) || errors.Is(err, ErrNoIndex) ||
				(version >= 1 && version <= 3) != strings.Contains(err.Error(), "a6f702c") {
				t.Errorf("version %d: %s returns %v, want a refusal naming a6f702c for versions 1 to 3", version, what, err)
			}
		}
	}
}
