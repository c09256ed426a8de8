package otf2

import (
	"os"
	"path/filepath"
	"reflect"
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
	for _, name := range []string{"t.otf2", "t.jsonl"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, tr); err != nil {
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

// TestAnalyzeFileFormatsAgree checks the two on-disk formats yield the
// same analysis for the same trace.
func TestAnalyzeFileFormatsAgree(t *testing.T) {
	dir := t.TempDir()
	reg := region.NewRegistry()
	tr := fileTestTrace(reg, 32)
	jsonl := filepath.Join(dir, "t.jsonl")
	archive := filepath.Join(dir, "t.otf2")
	if err := WriteFile(jsonl, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(archive, tr); err != nil {
		t.Fatal(err)
	}
	aj, _, err := AnalyzeFile(jsonl, 1)
	if err != nil {
		t.Fatal(err)
	}
	aa, _, err := AnalyzeFile(archive, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aj, aa) {
		t.Errorf("JSONL and archive analyses differ:\njsonl:   %+v\narchive: %+v", aj, aa)
	}
}

// TestIntactPrefixSize checks the cut-point scan against the readers'
// salvage behavior: the intact prefix of a complete archive is the
// whole file, the prefix of a mid-chunk cut is chunk-aligned, and
// truncating to it yields an archive that reads cleanly with exactly
// the events the lenient reader salvages.
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

	// Cut mid-chunk; the scan must land on the chunk boundary before the
	// cut, and the truncated-to-prefix file must read without salvage.
	cutPath := filepath.Join(dir, "cut.otf2")
	cut := lastEventChunkOffset(t, archive) + 3
	if err := os.WriteFile(cutPath, archive[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	prefix, err := IntactPrefixSize(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if prefix <= int64(len(magic)+1) || prefix >= cut {
		t.Fatalf("IntactPrefixSize = %d, want a chunk boundary in (8, %d)", prefix, cut)
	}
	salvaged, warning, err := loadWhole(cutPath)
	if err != nil || warning == "" {
		t.Fatalf("LoadFile(cut) = (_, %q, %v), want salvage warning", warning, err)
	}
	if err := os.Truncate(cutPath, prefix); err != nil {
		t.Fatal(err)
	}
	clean, warning, err := loadWhole(cutPath)
	if err != nil || warning != "" {
		t.Fatalf("truncated-to-prefix archive = (_, %q, %v), want clean read", warning, err)
	}
	if clean.NumEvents() != salvaged.NumEvents() {
		t.Errorf("prefix archive has %d events, lenient salvage had %d", clean.NumEvents(), salvaged.NumEvents())
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
