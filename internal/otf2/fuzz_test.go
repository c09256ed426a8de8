package otf2

import (
	"bytes"
	"errors"
	"fmt"
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

// FuzzCodec throws arbitrary bytes at the archive readers: decoding must
// never panic; Load at one and three workers and Scan must agree with the
// sequential reference reader on what they accept, on whether a failure
// is a cut, and on the events — a cut input's intact prefix included,
// which the framing walk must end exactly at; and whatever decodes
// successfully must survive a re-encode → re-decode round trip unchanged
// (the codec is a bijection on its image). Where a footer index is
// readable the plan holds it to the chunks, so there Load and Scan may
// refuse an input the reference reads, never read it differently.
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
	// Inputs without an index, planned from their framing.
	f.Add(v1Of(f, valid.Bytes()))
	f.Add(compressed.Bytes()[:compressed.Len()-trailerLen]) // flate, trailer sheared off
	// An event chunk naming region 0 before the definition chunk that
	// defines it: rejected, however the chunks are read.
	forward := []byte(magic + "\x02E\x06\x00\x01\x01\x02\x01\x00")
	forward = append(forward, "D\x0a\x02\x00\x01r\x03\x00\x00\x00\x01\x01"...)
	f.Add(forward)
	tr, st := flightTestTrace(f)
	var flight bytes.Buffer
	if err := WriteFlightDump(&flight, tr, st); err != nil {
		f.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(flight.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flight.Bytes()[:ix.Threads[0].Chunks[0].Offset+9]) // a flight dump cut mid-chunk
	for _, name := range fixtureNames {
		f.Add(readFixture(f, name))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := loadSequential(bytes.NewReader(data), region.NewRegistry())
		cut := errors.Is(werr, ErrTruncated)
		_, ixErr := ReadIndex(bytes.NewReader(data))
		agree := func(what string, err error, same bool) {
			t.Helper()
			if ixErr == nil && err != nil && !errors.Is(err, ErrTruncated) {
				return // the index lies: refused
			}
			if (err == nil) != (werr == nil) || errors.Is(err, ErrTruncated) != cut {
				t.Fatalf("%s: err %v, the sequential reader's %v", what, err, werr)
			}
			if (werr == nil || cut) && !same {
				t.Fatalf("%s differs from the sequential reader's (err %v)", what, werr)
			}
		}
		for _, workers := range []int{1, 3} {
			got, _, err := Load(bytes.NewReader(data), region.NewRegistry(), Query{}, workers)
			agree(fmt.Sprintf("Load at %d workers", workers), err, reflect.DeepEqual(got, want))
		}
		a, _, err := analyzeQuery(bytes.NewReader(data), Query{}, 2)
		agree("Scan into an Analyzer", err, werr != nil && !cut || reflect.DeepEqual(a, trace.Analyze(want)))
		if cut && len(data) >= headerLen {
			end, _ := walk(bytes.NewReader(data), int64(headerLen), int64(len(data)), nil)
			if prefix, err := loadSequential(bytes.NewReader(data[:end]), region.NewRegistry()); err != nil || !reflect.DeepEqual(prefix, want) {
				t.Fatalf("the framing walk ends at %d, where the reader reads %v (err %v), not the intact prefix", end, prefix, err)
			}
		}

		// A windowed query too: Scan and Load agree with each other.
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
		if werr != nil {
			return // rejected input is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, want); err != nil {
			t.Fatalf("re-encoding decoded trace: %v", err)
		}
		tr2, err := loadSequential(bytes.NewReader(buf.Bytes()), region.NewRegistry())
		if err != nil {
			t.Fatalf("re-decoding re-encoded trace: %v", err)
		}
		if len(tr2.Threads) != len(want.Threads) {
			t.Fatalf("thread count changed: %d -> %d", len(want.Threads), len(tr2.Threads))
		}
		for tid, evs := range want.Threads {
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
