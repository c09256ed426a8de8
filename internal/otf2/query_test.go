package otf2

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// queryArchive writes tr as an archive with small chunks so queries
// have many chunks to prune.
func queryArchive(t *testing.T, tr *trace.Trace, opts ...WriterOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr, append([]WriterOption{WithChunkBytes(1024)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// queryCases covers the edge cases the query semantics are defined on:
// full matches, interior windows, empty and inverted windows,
// out-of-range bounds, thread subsets, and combinations.
func queryCases(tr *trace.Trace) []Query {
	var minT, maxT int64
	first := true
	for _, evs := range tr.Threads {
		for _, ev := range evs {
			if first || ev.Time < minT {
				minT = ev.Time
			}
			if first || ev.Time > maxT {
				maxT = ev.Time
			}
			first = false
		}
	}
	mid := (minT + maxT) / 2
	tids := tr.ThreadIDs()
	qs := []Query{
		{}, // all
		{Windowed: true, MinTime: minT, MaxTime: maxT},
		{Windowed: true, MinTime: mid, MaxTime: maxT},
		{Windowed: true, MinTime: minT, MaxTime: mid},
		{Windowed: true, MinTime: mid - (maxT-minT)/8, MaxTime: mid + (maxT-minT)/8},
		{Windowed: true, MinTime: maxT + 1, MaxTime: maxT + 1000}, // out of range high
		{Windowed: true, MinTime: minT - 1000, MaxTime: minT - 1}, // out of range low
		{Windowed: true, MinTime: mid, MaxTime: mid - 1},          // inverted: empty
	}
	if len(tids) > 1 {
		qs = append(qs,
			Query{Threads: tids[:1]},
			Query{Threads: tids[1:2], Windowed: true, MinTime: mid, MaxTime: maxT},
			Query{Threads: []int{tids[0], tids[len(tids)-1]}},
			Query{Threads: []int{1 << 20}}, // nonexistent thread
		)
	}
	return qs
}

// TestQueryMatchesFilterReference checks the defining property of every
// query path: the result equals fully decoding, filtering with
// Query.Filter, and then reading/analyzing — at worker counts 1 and 4,
// on indexed (v2), compressed, and fallback (v1) archives.
func TestQueryMatchesFilterReference(t *testing.T) {
	tr := benchTrace(3, 400)
	archives := map[string][]byte{
		"v2":       queryArchive(t, tr),
		"v2-flate": queryArchive(t, tr, WithCompression(CompressionFlate)),
		"v1":       v1Of(t, queryArchive(t, tr)),
	}
	for name, archive := range archives {
		full, err := loadSequential(bytes.NewReader(archive), region.NewRegistry())
		if err != nil {
			t.Fatalf("%s: loadSequential: %v", name, err)
		}
		for _, q := range queryCases(full) {
			wantTr := q.Filter(full)
			wantA := trace.Analyze(wantTr)
			for _, workers := range []int{1, 4} {
				gotA, st, err := analyzeQuery(bytes.NewReader(archive), q, workers)
				if err != nil {
					t.Fatalf("%s workers=%d %v: Scan: %v", name, workers, q, err)
				}
				if !reflect.DeepEqual(gotA, wantA) {
					t.Errorf("%s workers=%d %v: Scan != analyze(filter(full))", name, workers, q)
				}
				if wantIndexed := name != "v1"; st.Indexed != wantIndexed {
					t.Errorf("%s workers=%d %v: stats.Indexed = %v, want %v", name, workers, q, st.Indexed, wantIndexed)
				}
				gotTr, _, err := Load(bytes.NewReader(archive), region.NewRegistry(), q, workers)
				if err != nil {
					t.Fatalf("%s workers=%d %v: Load: %v", name, workers, q, err)
				}
				tracesEqual(t, wantTr, gotTr)
			}
		}
	}
}

// TestQueryReadsOnlyMatchingChunks is the acceptance check for the
// seekable layer: a windowed query on a >=1M-event v2 archive must
// read (and decode) only the chunks whose indexed time bounds overlap
// the window — O(matching chunks), not O(archive).
func TestQueryReadsOnlyMatchingChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >=1M-event archive")
	}
	tr := benchTrace(4, 1<<16) // 4 threads x 65536 tasks x 4+ events > 1M events
	if n := tr.NumEvents(); n < 1_000_000 {
		t.Fatalf("test trace has %d events, want >= 1M", n)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()

	var minT, maxT int64
	for _, evs := range tr.Threads {
		for _, ev := range evs {
			if ev.Time > maxT {
				maxT = ev.Time
			}
		}
	}
	// A narrow interior window: an eighth of the time range.
	q := Query{Windowed: true, MinTime: minT + (maxT-minT)/2, MaxTime: minT + (maxT-minT)/2 + (maxT-minT)/8}

	got, st, err := analyzeQuery(bytes.NewReader(archive), q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Indexed {
		t.Fatal("v2 archive did not take the indexed path")
	}
	if st.ChunksTotal < 100 {
		t.Fatalf("archive has only %d chunks; chunk pruning is not meaningfully tested", st.ChunksTotal)
	}
	if st.ChunksRead >= st.ChunksTotal/2 {
		t.Fatalf("windowed query read %d of %d chunks; want a pruned minority", st.ChunksRead, st.ChunksTotal)
	}
	full, err := loadSequential(bytes.NewReader(archive), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Analyze(q.Filter(full))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windowed indexed analysis differs from filtered full analysis")
	}

	// The zero query over the same archive must read every chunk and
	// reproduce the plain analysis exactly.
	all, st, err := analyzeQuery(bytes.NewReader(archive), Query{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksRead != st.ChunksTotal {
		t.Fatalf("zero query read %d of %d chunks", st.ChunksRead, st.ChunksTotal)
	}
	seq, err := analyzeSequential(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, seq) {
		t.Fatal("indexed full-archive analysis differs from sequential analysis")
	}
}

// TestCompressedRoundTrip checks that compressed archives decode
// identically to uncompressed ones, shrink the file, and interoperate
// with every reader path.
func TestCompressedRoundTrip(t *testing.T) {
	tr := benchTrace(2, 500)
	raw := queryArchive(t, tr)
	comp := queryArchive(t, tr, WithCompression(CompressionFlate))
	if len(comp) >= len(raw) {
		t.Fatalf("compressed archive is %d bytes, raw %d: no shrink", len(comp), len(raw))
	}
	want, err := loadSequential(bytes.NewReader(raw), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadSequential(bytes.NewReader(comp), region.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, want, got)
	gotPar, err := ReadAllParallel(bytes.NewReader(comp), region.NewRegistry(), 4)
	if err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, want, gotPar)
	wantA, err := analyzeSequential(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := analyzeParallel(bytes.NewReader(comp), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatal("parallel analysis of compressed archive differs")
	}
}

// TestVersionRoundTrip checks that a v1 archive converts to v2
// byte-identically: decoding the v1 fixture and writing it again is the
// v2 fixture, and the same holds for a larger trace through the tests'
// v1 helper (the writer is deterministic).
func TestVersionRoundTrip(t *testing.T) {
	v2 := queryArchive(t, benchTrace(2, 300))
	for _, c := range []struct {
		v1, v2 []byte
	}{
		{readFixture(t, "v1"), readFixture(t, "v2")},
		{v1Of(t, v2), v2},
	} {
		if c.v1[len(magic)] != version1 || c.v2[len(magic)] != version2 {
			t.Fatal("version bytes not as expected")
		}
		up, err := loadSequential(bytes.NewReader(c.v1), region.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		var upBuf bytes.Buffer
		if err := Write(&upBuf, up, WithChunkBytes(1024)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(upBuf.Bytes(), c.v2) {
			t.Fatal("v1->v2 upgrade is not byte-identical to a direct v2 write")
		}
	}
}

// TestTruncatedV2SalvagesViaSequentialFallback cuts a v2 archive so the
// index is lost and checks queries still salvage the intact prefix via
// the sequential fallback, reporting ErrTruncated.
func TestTruncatedV2SalvagesViaSequentialFallback(t *testing.T) {
	tr := benchTrace(2, 400)
	archive := queryArchive(t, tr)
	cut := int(lastEventChunkOffset(t, archive)) + 3

	if _, err := ReadIndex(bytes.NewReader(archive[:cut])); err == nil {
		t.Fatal("truncated archive still has a readable index")
	}
	for _, workers := range []int{1, 4} {
		a, st, err := analyzeQuery(bytes.NewReader(archive[:cut]), Query{}, workers)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("workers=%d: err = %v, want ErrTruncated", workers, err)
		}
		if st.Indexed {
			t.Fatalf("workers=%d: truncated archive took the indexed path", workers)
		}
		if a == nil || len(a.PerThread) == 0 {
			t.Fatalf("workers=%d: no analysis salvaged", workers)
		}
		tr2, _, err := Load(bytes.NewReader(archive[:cut]), region.NewRegistry(), Query{}, workers)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("workers=%d: Load err = %v, want ErrTruncated", workers, err)
		}
		if tr2 == nil || tr2.NumEvents() == 0 || tr2.NumEvents() >= tr.NumEvents() {
			t.Fatalf("workers=%d: salvaged %d events, want non-empty strict prefix", workers, tr2.NumEvents())
		}
	}
}

// TestIndexMatchesArchive validates the invariants the planner relies
// on: offsets point at event chunks, counts and time bounds match the
// decoded contents.
func TestIndexMatchesArchive(t *testing.T) {
	tr := benchTrace(3, 200)
	for _, opts := range [][]WriterOption{nil, {WithCompression(CompressionFlate)}} {
		archive := queryArchive(t, tr, opts...)
		ix, err := ReadIndex(bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumEvents() != tr.NumEvents() {
			t.Fatalf("index declares %d events, trace has %d", ix.NumEvents(), tr.NumEvents())
		}
		full, err := loadSequential(bytes.NewReader(archive), region.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range ix.Threads {
			pos := 0
			for _, cr := range tc.Chunks {
				kind, _, err := ReadChunkAt(bytes.NewReader(archive), cr.Offset)
				if err != nil {
					t.Fatal(err)
				}
				if kind != chunkEvents && kind != chunkCompressed {
					t.Fatalf("index points at %q chunk", kind)
				}
				evs := full.Threads[tc.Thread][pos : pos+int(cr.Events)]
				var minT, maxT int64
				for i, ev := range evs {
					if i == 0 || ev.Time < minT {
						minT = ev.Time
					}
					if i == 0 || ev.Time > maxT {
						maxT = ev.Time
					}
				}
				if minT != cr.MinTime || maxT != cr.MaxTime {
					t.Fatalf("thread %d chunk at %d: bounds [%d,%d], events span [%d,%d]",
						tc.Thread, cr.Offset, cr.MinTime, cr.MaxTime, minT, maxT)
				}
				pos += int(cr.Events)
			}
		}
	}
}

// TestQueryRandomizedProperty fuzzes query windows over random traces:
// every (archive x query x workers) combination must equal the
// filter-then-analyze reference.
func TestQueryRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		tr := randomTrace(rng)
		var buf bytes.Buffer
		opts := []WriterOption{WithChunkBytes(1024)}
		if rng.Intn(2) == 1 {
			opts = append(opts, WithCompression(CompressionFlate))
		}
		if err := Write(&buf, tr, opts...); err != nil {
			t.Fatal(err)
		}
		archive := buf.Bytes()
		full, err := loadSequential(bytes.NewReader(archive), region.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		q := Query{}
		if rng.Intn(4) > 0 {
			q.Windowed = true
			q.MinTime = rng.Int63n(2000) - 500
			q.MaxTime = q.MinTime + rng.Int63n(1500) - 200
		}
		if rng.Intn(3) == 0 {
			q.Threads = []int{rng.Intn(4)}
		}
		want := trace.Analyze(q.Filter(full))
		for _, workers := range []int{1, 4} {
			got, _, err := analyzeQuery(bytes.NewReader(archive), q, workers)
			if err != nil {
				t.Fatalf("round %d workers %d: %v", round, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d workers %d query %v: mismatch", round, workers, q)
			}
		}
	}
}
