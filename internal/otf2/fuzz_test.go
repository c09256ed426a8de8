package otf2

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// corruptTail returns a copy of data with the byte n before the end
// flipped — aimed at the trailer, index chunk or compressed payloads
// that all sit at the back of a v2 archive.
func corruptTail(data []byte, n int) []byte {
	out := append([]byte(nil), data...)
	if n < len(out) {
		out[len(out)-1-n] ^= 0xff
	}
	return out
}

// FuzzCodec throws arbitrary bytes at the archive reader: decoding must
// never panic, and whatever decodes successfully must survive a
// re-encode → re-decode round trip unchanged (the codec is a bijection
// on its image).
func FuzzCodec(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, sampleTrace(region.NewRegistry())); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])      // truncated v2 (index lost)
	f.Add([]byte(magic + "\x01"))                    // v1 header only
	f.Add([]byte(magic + "\x02"))                    // v2 header only
	f.Add([]byte("SPOTF2\x00\x01D\x03\x01\x80\x01")) // tiny defs chunk
	f.Add([]byte{})
	// v2-specific seeds: valid archives with compression, a damaged
	// trailer, a corrupted index payload and a corrupted compressed
	// chunk — the decoder must reject or salvage, never panic.
	var compressed bytes.Buffer
	if err := Write(&compressed, sampleTrace(region.NewRegistry()), WithCompression(CompressionFlate)); err != nil {
		f.Fatal(err)
	}
	f.Add(compressed.Bytes())
	f.Add(corruptTail(valid.Bytes(), 1))                                                  // trailer magic damaged
	f.Add(corruptTail(valid.Bytes(), 6))                                                  // index offset damaged
	f.Add(corruptTail(compressed.Bytes(), 30))                                            // inside the index chunk
	f.Add(corruptTail(compressed.Bytes(), 80))                                            // inside a flate stream
	f.Add(valid.Bytes()[: len(valid.Bytes())-trailerLen : len(valid.Bytes())-trailerLen]) // trailer sheared off
	f.Add([]byte(magic + "\x02F\x04\x00\x00\x00\x30"))                                    // damaged flight accounting: no path may be alone in rejecting it

	f.Fuzz(func(t *testing.T, data []byte) {
		// The query planner must never panic either, whatever the bytes
		// (it exercises ReadIndex, ReadChunkAt, inflateChunk and the
		// indexed worker pool on top of the plain decoder).
		q := Query{Windowed: true, MinTime: 10, MaxTime: 1 << 40}
		if a, _, err := analyzeQuery(bytes.NewReader(data), q, 2); err == nil {
			ref, _, rerr := Load(bytes.NewReader(data), region.NewRegistry(), q, 1)
			if rerr != nil {
				t.Fatalf("Scan accepted input Load rejects: %v", rerr)
			}
			if want := trace.Analyze(ref); !reflect.DeepEqual(a, want) {
				t.Fatalf("Scan != analyze(Load): %+v vs %+v", a, want)
			}
		}
		tr, err := loadSequential(bytes.NewReader(data), region.NewRegistry())
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		tr2, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if len(tr2.Threads) != len(tr.Threads) {
			t.Fatalf("thread count changed: %d -> %d", len(tr.Threads), len(tr2.Threads))
		}
		for tid, evs := range tr.Threads {
			evs2 := tr2.Threads[tid]
			if len(evs2) != len(evs) {
				t.Fatalf("thread %d: event count changed: %d -> %d", tid, len(evs), len(evs2))
			}
			for i := range evs {
				if !eventsEqual(evs[i], evs2[i]) {
					t.Fatalf("thread %d event %d changed: %+v -> %+v", tid, i, evs[i], evs2[i])
				}
			}
		}
	})
}
