package otf2

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/region"
)

// TestBottlenecksMatchInMemoryReference checks the defining property of
// the out-of-core bottleneck analysis: Scan into a Collector over an
// archive equals fully decoding it, filtering with the query, and
// running the in-memory analysis — at worker counts 1 and 4, on
// indexed, compressed, and index-less archives.
func TestBottlenecksMatchInMemoryReference(t *testing.T) {
	tr := benchTrace(3, 400)
	v4, flate := queryArchive(t, tr), queryArchive(t, tr, WithCompression(CompressionFlate))
	archives := map[string][]byte{
		"v4":       v4,
		"v4-flate": flate,
		"no-index": unindexed(t, v4),
	}
	for name, archive := range archives {
		full, err := loadSequential(bytes.NewReader(archive), region.NewRegistry())
		if err != nil {
			t.Fatalf("%s: loadSequential: %v", name, err)
		}
		for _, q := range queryCases(full) {
			want := bottleneck.Analyze(q.Filter(full))
			for _, workers := range []int{1, 4} {
				got, st, err := analyzeBottlenecks(bytes.NewReader(archive), q, workers)
				if err != nil {
					t.Fatalf("%s workers=%d %v: Scan into a Collector: %v", name, workers, q, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d %v: Scan into a Collector != analyze(filter(full))", name, workers, q)
				}
				if wantIndexed := name != "no-index"; st.Indexed != wantIndexed {
					t.Errorf("%s workers=%d %v: stats.Indexed = %v, want %v", name, workers, q, st.Indexed, wantIndexed)
				}
			}
		}
	}
}

// TestBottlenecksTruncatedSalvage: a truncated archive (unreadable
// index) must salvage the intact prefix's bottleneck analysis on every
// worker count, with identical results on the sequential and pipeline
// fallback paths, alongside an error wrapping ErrTruncated.
func TestBottlenecksTruncatedSalvage(t *testing.T) {
	tr := benchTrace(2, 400)
	archive := queryArchive(t, tr)
	cut := int(lastEventChunkOffset(t, archive)) + 3

	if _, err := ReadIndex(bytes.NewReader(archive[:cut])); err == nil {
		t.Fatal("truncated archive still has a readable index")
	}
	// The reference: the events Load itself salvages from the
	// same prefix, analyzed in memory.
	prefix, _, err := Load(bytes.NewReader(archive[:cut]), region.NewRegistry(), Query{}, 1)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("Load err = %v, want ErrTruncated", err)
	}
	want := bottleneck.Analyze(prefix)
	for _, workers := range []int{1, 4} {
		a, st, err := analyzeBottlenecks(bytes.NewReader(archive[:cut]), Query{}, workers)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("workers=%d: err = %v, want ErrTruncated", workers, err)
		}
		if st.Indexed {
			t.Fatalf("workers=%d: truncated archive took the indexed path", workers)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("workers=%d: salvaged analysis != in-memory analysis of salvaged prefix", workers)
		}
	}
}

// TestAnalyzeFileBottlenecks covers the file front-end: raw and
// compressed archives produce the identical analysis, and a truncated
// archive is downgraded to a warning.
func TestAnalyzeFileBottlenecks(t *testing.T) {
	tr := benchTrace(2, 200)
	dir := t.TempDir()

	archivePath := dir + "/t.otf2"
	if err := WriteFile(archivePath, tr); err != nil {
		t.Fatal(err)
	}
	flatePath := dir + "/t-flate.otf2"
	if err := WriteFile(flatePath, tr, WithCompression(CompressionFlate)); err != nil {
		t.Fatal(err)
	}

	want := bottleneck.Analyze(tr)
	for _, path := range []string{archivePath, flatePath} {
		a, _, warn, err := AnalyzeFileBottlenecks(path, Query{}, 4)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if warn != "" {
			t.Fatalf("%s: unexpected warning %q", path, warn)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("%s: file analysis != in-memory analysis", path)
		}
	}

	archive, err := os.ReadFile(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	cutPath := dir + "/cut.otf2"
	cut := int(lastEventChunkOffset(t, archive)) + 3
	if err := os.WriteFile(cutPath, archive[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	a, _, warn, err := AnalyzeFileBottlenecks(cutPath, Query{}, 4)
	if err != nil {
		t.Fatalf("truncated file: err = %v, want warning instead", err)
	}
	if warn == "" {
		t.Fatal("truncated file produced no warning")
	}
	if a == nil || len(a.PerThread) == 0 {
		t.Fatal("truncated file salvaged no analysis")
	}
}
